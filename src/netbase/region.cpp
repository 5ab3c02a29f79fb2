#include "netbase/region.hpp"

#include <algorithm>

#include "netbase/error.hpp"

namespace aio::net {

std::string_view regionName(Region region) {
    switch (region) {
    case Region::NorthernAfrica: return "Northern Africa";
    case Region::WesternAfrica: return "Western Africa";
    case Region::EasternAfrica: return "Eastern Africa";
    case Region::CentralAfrica: return "Central Africa";
    case Region::SouthernAfrica: return "Southern Africa";
    case Region::Europe: return "Europe";
    case Region::NorthAmerica: return "N. America";
    case Region::SouthAmerica: return "S. America";
    case Region::AsiaPacific: return "Asia-Pacific";
    }
    return "?";
}

std::string_view macroRegionName(MacroRegion macro) {
    switch (macro) {
    case MacroRegion::Africa: return "Africa";
    case MacroRegion::Europe: return "Europe";
    case MacroRegion::NorthAmerica: return "N. America";
    case MacroRegion::SouthAmerica: return "S. America";
    case MacroRegion::AsiaPacific: return "Asia-Pacific";
    }
    return "?";
}

MacroRegion macroOf(Region region) {
    switch (region) {
    case Region::NorthernAfrica:
    case Region::WesternAfrica:
    case Region::EasternAfrica:
    case Region::CentralAfrica:
    case Region::SouthernAfrica: return MacroRegion::Africa;
    case Region::Europe: return MacroRegion::Europe;
    case Region::NorthAmerica: return MacroRegion::NorthAmerica;
    case Region::SouthAmerica: return MacroRegion::SouthAmerica;
    case Region::AsiaPacific: return MacroRegion::AsiaPacific;
    }
    return MacroRegion::Africa;
}

bool isAfrican(Region region) {
    return macroOf(region) == MacroRegion::Africa;
}

std::span<const Region> africanRegions() {
    static constexpr std::array<Region, 5> regions = {
        Region::NorthernAfrica, Region::WesternAfrica, Region::EasternAfrica,
        Region::CentralAfrica, Region::SouthernAfrica};
    return regions;
}

std::span<const Region> allRegions() {
    static constexpr std::array<Region, 9> regions = {
        Region::NorthernAfrica, Region::WesternAfrica, Region::EasternAfrica,
        Region::CentralAfrica,  Region::SouthernAfrica, Region::Europe,
        Region::NorthAmerica,   Region::SouthAmerica,   Region::AsiaPacific};
    return regions;
}

std::span<const MacroRegion> allMacroRegions() {
    static constexpr std::array<MacroRegion, 5> macros = {
        MacroRegion::Africa, MacroRegion::Europe, MacroRegion::NorthAmerica,
        MacroRegion::SouthAmerica, MacroRegion::AsiaPacific};
    return macros;
}

namespace {

// Centroids are approximate country centroids; populations are rough 2024
// figures in millions (they act as relative weights, not demographics).
std::vector<Country> buildWorld() {
    using R = Region;
    return {
        // --- Northern Africa ---
        {"DZ", "Algeria", R::NorthernAfrica, {28.0, 3.0}, 45.0, true},
        {"EG", "Egypt", R::NorthernAfrica, {26.8, 30.8}, 110.0, true},
        {"LY", "Libya", R::NorthernAfrica, {26.3, 17.2}, 7.0, true},
        {"MA", "Morocco", R::NorthernAfrica, {31.8, -7.1}, 37.0, true},
        {"SD", "Sudan", R::NorthernAfrica, {15.6, 30.2}, 48.0, true},
        {"TN", "Tunisia", R::NorthernAfrica, {33.9, 9.5}, 12.0, true},
        // --- Western Africa ---
        {"BJ", "Benin", R::WesternAfrica, {9.3, 2.3}, 13.0, true},
        {"BF", "Burkina Faso", R::WesternAfrica, {12.2, -1.6}, 22.0, false},
        {"CV", "Cabo Verde", R::WesternAfrica, {16.0, -24.0}, 0.6, true},
        {"CI", "Cote d'Ivoire", R::WesternAfrica, {7.5, -5.5}, 28.0, true},
        {"GM", "Gambia", R::WesternAfrica, {13.4, -15.3}, 2.7, true},
        {"GH", "Ghana", R::WesternAfrica, {7.9, -1.0}, 33.0, true},
        {"GN", "Guinea", R::WesternAfrica, {9.9, -9.7}, 14.0, true},
        {"GW", "Guinea-Bissau", R::WesternAfrica, {11.8, -15.2}, 2.1, true},
        {"LR", "Liberia", R::WesternAfrica, {6.4, -9.4}, 5.3, true},
        {"ML", "Mali", R::WesternAfrica, {17.6, -4.0}, 22.0, false},
        {"MR", "Mauritania", R::WesternAfrica, {20.3, -10.3}, 4.9, true},
        {"NE", "Niger", R::WesternAfrica, {17.6, 8.1}, 26.0, false},
        {"NG", "Nigeria", R::WesternAfrica, {9.1, 8.7}, 220.0, true},
        {"SN", "Senegal", R::WesternAfrica, {14.5, -14.5}, 17.0, true},
        {"SL", "Sierra Leone", R::WesternAfrica, {8.5, -11.8}, 8.6, true},
        {"TG", "Togo", R::WesternAfrica, {8.6, 0.8}, 8.8, true},
        // --- Eastern Africa ---
        {"BI", "Burundi", R::EasternAfrica, {-3.4, 29.9}, 13.0, false},
        {"KM", "Comoros", R::EasternAfrica, {-11.9, 43.9}, 0.9, true},
        {"DJ", "Djibouti", R::EasternAfrica, {11.8, 42.6}, 1.1, true},
        {"ER", "Eritrea", R::EasternAfrica, {15.2, 39.8}, 3.7, true},
        {"ET", "Ethiopia", R::EasternAfrica, {9.1, 40.5}, 123.0, false},
        {"KE", "Kenya", R::EasternAfrica, {-0.02, 37.9}, 54.0, true},
        {"MG", "Madagascar", R::EasternAfrica, {-18.8, 46.9}, 29.0, true},
        {"MW", "Malawi", R::EasternAfrica, {-13.3, 34.3}, 20.0, false},
        {"MU", "Mauritius", R::EasternAfrica, {-20.3, 57.6}, 1.3, true},
        {"MZ", "Mozambique", R::EasternAfrica, {-18.7, 35.5}, 33.0, true},
        {"RW", "Rwanda", R::EasternAfrica, {-1.9, 29.9}, 14.0, false},
        {"SC", "Seychelles", R::EasternAfrica, {-4.7, 55.5}, 0.1, true},
        {"SO", "Somalia", R::EasternAfrica, {5.2, 46.2}, 17.0, true},
        {"SS", "South Sudan", R::EasternAfrica, {7.3, 30.3}, 11.0, false},
        {"TZ", "Tanzania", R::EasternAfrica, {-6.4, 34.9}, 65.0, true},
        {"UG", "Uganda", R::EasternAfrica, {1.4, 32.3}, 47.0, false},
        {"ZM", "Zambia", R::EasternAfrica, {-13.1, 27.8}, 20.0, false},
        {"ZW", "Zimbabwe", R::EasternAfrica, {-19.0, 29.2}, 16.0, false},
        // --- Central Africa ---
        {"AO", "Angola", R::CentralAfrica, {-11.2, 17.9}, 36.0, true},
        {"CM", "Cameroon", R::CentralAfrica, {7.4, 12.4}, 28.0, true},
        {"CF", "Central African Rep.", R::CentralAfrica, {6.6, 20.9}, 5.6,
         false},
        {"TD", "Chad", R::CentralAfrica, {15.5, 18.7}, 18.0, false},
        {"CG", "Congo", R::CentralAfrica, {-0.2, 15.8}, 6.0, true},
        {"CD", "DR Congo", R::CentralAfrica, {-4.0, 21.8}, 102.0, true},
        {"GQ", "Equatorial Guinea", R::CentralAfrica, {1.6, 10.3}, 1.7, true},
        {"GA", "Gabon", R::CentralAfrica, {-0.8, 11.6}, 2.4, true},
        {"ST", "Sao Tome & Principe", R::CentralAfrica, {0.2, 6.6}, 0.2, true},
        // --- Southern Africa ---
        {"BW", "Botswana", R::SouthernAfrica, {-22.3, 24.7}, 2.6, false},
        {"SZ", "Eswatini", R::SouthernAfrica, {-26.5, 31.5}, 1.2, false},
        {"LS", "Lesotho", R::SouthernAfrica, {-29.6, 28.2}, 2.3, false},
        {"NA", "Namibia", R::SouthernAfrica, {-22.9, 18.5}, 2.6, true},
        {"ZA", "South Africa", R::SouthernAfrica, {-30.6, 22.9}, 60.0, true},
        // --- Europe (transit & hosting destinations) ---
        {"DE", "Germany", R::Europe, {51.2, 10.4}, 84.0, true},
        {"NL", "Netherlands", R::Europe, {52.1, 5.3}, 18.0, true},
        {"GB", "United Kingdom", R::Europe, {54.0, -2.0}, 67.0, true},
        {"FR", "France", R::Europe, {46.2, 2.2}, 68.0, true},
        {"PT", "Portugal", R::Europe, {39.4, -8.2}, 10.0, true},
        {"ES", "Spain", R::Europe, {40.5, -3.7}, 48.0, true},
        {"IT", "Italy", R::Europe, {42.5, 12.5}, 59.0, true},
        // --- North America ---
        {"US", "United States", R::NorthAmerica, {37.1, -95.7}, 335.0, true},
        {"CA", "Canada", R::NorthAmerica, {56.1, -106.3}, 39.0, true},
        // --- South America ---
        {"BR", "Brazil", R::SouthAmerica, {-14.2, -51.9}, 216.0, true},
        {"AR", "Argentina", R::SouthAmerica, {-38.4, -63.6}, 46.0, true},
        {"CL", "Chile", R::SouthAmerica, {-35.7, -71.5}, 20.0, true},
        {"CO", "Colombia", R::SouthAmerica, {4.6, -74.1}, 52.0, true},
        // --- Asia-Pacific ---
        {"IN", "India", R::AsiaPacific, {20.6, 79.0}, 1430.0, true},
        {"SG", "Singapore", R::AsiaPacific, {1.35, 103.8}, 5.9, true},
        {"JP", "Japan", R::AsiaPacific, {36.2, 138.3}, 124.0, true},
        {"AU", "Australia", R::AsiaPacific, {-25.3, 133.8}, 26.0, true},
        {"ID", "Indonesia", R::AsiaPacific, {-0.8, 113.9}, 277.0, true},
        {"CN", "China", R::AsiaPacific, {35.9, 104.2}, 1410.0, true},
    };
}

} // namespace

CountryTable::CountryTable() : countries_(buildWorld()) {}

const CountryTable& CountryTable::world() {
    static const CountryTable table;
    return table;
}

const Country* CountryTable::find(std::string_view iso2) const {
    const auto it = std::ranges::find(countries_, iso2, &Country::iso2);
    return it == countries_.end() ? nullptr : &*it;
}

const Country& CountryTable::byCode(std::string_view iso2) const {
    const Country* country = find(iso2);
    if (country == nullptr) {
        throw NotFoundError{"unknown country code: '" + std::string{iso2} +
                            "'"};
    }
    return *country;
}

std::vector<const Country*> CountryTable::inRegion(Region region) const {
    std::vector<const Country*> out;
    for (const Country& c : countries_) {
        if (c.region == region) {
            out.push_back(&c);
        }
    }
    return out;
}

std::vector<const Country*>
CountryTable::inMacroRegion(MacroRegion macro) const {
    std::vector<const Country*> out;
    for (const Country& c : countries_) {
        if (macroOf(c.region) == macro) {
            out.push_back(&c);
        }
    }
    return out;
}

std::vector<const Country*> CountryTable::african() const {
    return inMacroRegion(MacroRegion::Africa);
}

} // namespace aio::net
