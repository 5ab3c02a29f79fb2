#pragma once

#include <array>
#include <span>
#include <string_view>
#include <vector>

#include "netbase/geo.hpp"

namespace aio::net {

/// Sub-continental regions used throughout the paper's analysis. Africa is
/// split along the UN geoscheme (Northern/Western/Eastern/Central/Southern);
/// the remaining values are the macro comparison regions of Figure 1.
enum class Region {
    NorthernAfrica,
    WesternAfrica,
    EasternAfrica,
    CentralAfrica,
    SouthernAfrica,
    Europe,
    NorthAmerica,
    SouthAmerica,
    AsiaPacific,
};

/// Continental grouping used for the Figure 1 comparison and for the
/// detour analysis (a route "leaves Africa" when it visits a non-Africa
/// macro region).
enum class MacroRegion {
    Africa,
    Europe,
    NorthAmerica,
    SouthAmerica,
    AsiaPacific,
};

[[nodiscard]] std::string_view regionName(Region region);
[[nodiscard]] std::string_view macroRegionName(MacroRegion macro);
[[nodiscard]] MacroRegion macroOf(Region region);
[[nodiscard]] bool isAfrican(Region region);

/// The five African regions, in display order.
[[nodiscard]] std::span<const Region> africanRegions();

/// All regions, in display order.
[[nodiscard]] std::span<const Region> allRegions();

/// All macro regions, in display order.
[[nodiscard]] std::span<const MacroRegion> allMacroRegions();

/// Static facts about one country: where it is, how big it is, and whether
/// a subsea cable can land there. Population drives AS-count and traffic
/// weights in the generator.
struct Country {
    std::string_view iso2;
    std::string_view name;
    Region region;
    GeoPoint centroid;
    double populationMillions = 0.0;
    bool coastal = false;
};

/// Immutable table of countries the simulator knows about: the whole of
/// Africa (54 states) plus representative countries of each comparison
/// macro region (transit/hosting destinations in Europe, N/S America and
/// Asia-Pacific).
class CountryTable {
public:
    /// The built-in world table (shared immutable instance).
    static const CountryTable& world();

    [[nodiscard]] std::span<const Country> all() const { return countries_; }

    /// Lookup by ISO-3166 alpha-2 code; null when unknown.
    [[nodiscard]] const Country* find(std::string_view iso2) const;

    /// find() that throws NotFoundError when the code is unknown.
    [[nodiscard]] const Country& byCode(std::string_view iso2) const;

    [[nodiscard]] bool contains(std::string_view iso2) const {
        return find(iso2) != nullptr;
    }

    /// Countries belonging to one region (stable order).
    [[nodiscard]] std::vector<const Country*> inRegion(Region region) const;

    /// Countries belonging to one macro region (stable order).
    [[nodiscard]] std::vector<const Country*>
    inMacroRegion(MacroRegion macro) const;

    /// All African countries.
    [[nodiscard]] std::vector<const Country*> african() const;

private:
    CountryTable();
    std::vector<Country> countries_;
};

} // namespace aio::net
