#include "phys/cable.hpp"

#include <algorithm>

#include "netbase/error.hpp"

namespace aio::phys {

bool SubseaCable::landsIn(std::string_view iso2) const {
    return std::ranges::any_of(landings, [&](const LandingStation& station) {
        return station.countryCode == iso2;
    });
}

CorridorId CableRegistry::addCorridor(std::string name) {
    corridors_.push_back(Corridor{std::move(name)});
    return corridors_.size() - 1;
}

CableId CableRegistry::addCable(SubseaCable cable) {
    AIO_EXPECTS(cable.corridor < corridors_.size(),
                "cable corridor must exist");
    AIO_EXPECTS(cable.landings.size() >= 2,
                "a cable needs at least two landings");
    cables_.push_back(std::move(cable));
    return cables_.size() - 1;
}

const SubseaCable& CableRegistry::cable(CableId id) const {
    AIO_EXPECTS(id < cables_.size(), "cable id OOB");
    return cables_[id];
}

const Corridor& CableRegistry::corridor(CorridorId id) const {
    AIO_EXPECTS(id < corridors_.size(), "corridor id OOB");
    return corridors_[id];
}

std::vector<CableId>
CableRegistry::cablesLandingIn(std::string_view iso2) const {
    std::vector<CableId> out;
    for (CableId id = 0; id < cables_.size(); ++id) {
        if (cables_[id].landsIn(iso2)) {
            out.push_back(id);
        }
    }
    return out;
}

std::vector<CableId> CableRegistry::cablesServing(std::string_view a,
                                                  std::string_view b) const {
    std::vector<CableId> out;
    for (CableId id = 0; id < cables_.size(); ++id) {
        if (cables_[id].landsIn(a) && cables_[id].landsIn(b)) {
            out.push_back(id);
        }
    }
    return out;
}

std::vector<CableId>
CableRegistry::cablesToEurope(std::string_view iso2) const {
    const auto& world = net::CountryTable::world();
    std::vector<CableId> out;
    for (CableId id = 0; id < cables_.size(); ++id) {
        if (!cables_[id].landsIn(iso2)) {
            continue;
        }
        const bool reachesEurope = std::ranges::any_of(
            cables_[id].landings, [&](const LandingStation& station) {
                const net::Country* country =
                    world.find(station.countryCode);
                return country != nullptr &&
                       country->region == net::Region::Europe;
            });
        if (reachesEurope) {
            out.push_back(id);
        }
    }
    return out;
}

std::vector<CableId>
CableRegistry::cablesInCorridor(CorridorId corridor) const {
    std::vector<CableId> out;
    for (CableId id = 0; id < cables_.size(); ++id) {
        if (cables_[id].corridor == corridor) {
            out.push_back(id);
        }
    }
    return out;
}

CableId CableRegistry::byName(std::string_view name) const {
    for (CableId id = 0; id < cables_.size(); ++id) {
        if (cables_[id].name == name) {
            return id;
        }
    }
    throw net::NotFoundError{"unknown cable: '" + std::string{name} + "'"};
}

std::size_t CableRegistry::sharedLandingCount(CableId a, CableId b) const {
    const SubseaCable& left = cable(a);
    const SubseaCable& right = cable(b);
    std::vector<std::string_view> seen;
    for (const LandingStation& station : left.landings) {
        if (right.landsIn(station.countryCode) &&
            std::ranges::find(seen, station.countryCode) == seen.end()) {
            seen.push_back(station.countryCode);
        }
    }
    return seen.size();
}

double CableRegistry::cutCorrelation(
    CableId primary, CableId other,
    const CableCorrelationConfig& config) const {
    if (primary == other) {
        return 1.0;
    }
    double prob = 0.0;
    if (cable(primary).corridor == cable(other).corridor) {
        prob += config.sameCorridorProb;
    }
    prob += config.sharedLandingProb *
            static_cast<double>(sharedLandingCount(primary, other));
    return std::clamp(prob, 0.0, config.maxProb);
}

namespace {

LandingStation landing(std::string_view iso2) {
    const auto& world = net::CountryTable::world();
    LandingStation station;
    station.countryCode = std::string{iso2};
    // Landing stations sit on the coast; the country centroid is a good
    // enough stand-in at continental scale (the Nautilus reproduction adds
    // its own geolocation error on top).
    station.location = world.byCode(iso2).centroid;
    return station;
}

SubseaCable makeCable(std::string name, CorridorId corridor, int rfs,
                      double capacity,
                      std::initializer_list<std::string_view> codes) {
    SubseaCable cable;
    cable.name = std::move(name);
    cable.corridor = corridor;
    cable.readyForService = rfs;
    cable.capacityTbps = capacity;
    for (const auto code : codes) {
        cable.landings.push_back(landing(code));
    }
    return cable;
}

} // namespace

CableRegistry CableRegistry::africanDefaults() {
    CableRegistry reg;
    // Corridors group cables whose seabed paths are co-located and whose
    // failures are therefore correlated.
    const CorridorId west = reg.addCorridor("West Coast");
    const CorridorId east = reg.addCorridor("East Coast / Red Sea");
    const CorridorId med = reg.addCorridor("Mediterranean");
    const CorridorId indian = reg.addCorridor("Indian Ocean");
    const CorridorId westDiverse = reg.addCorridor("West Coast (diverse)");
    const CorridorId panDiverse = reg.addCorridor("Pan-African (diverse)");

    // --- West coast: the March 2024 rock-slide victims (§5.1). ---
    reg.addCable(makeCable("WACS", west, 2012, 14.5,
                           {"ZA", "NA", "AO", "CD", "CG", "CM", "NG", "TG",
                            "GH", "CI", "CV", "PT", "GB"}));
    reg.addCable(makeCable("SAT-3", west, 2002, 4.6,
                           {"ZA", "AO", "GA", "CM", "NG", "BJ", "GH", "CI",
                            "SN", "ES", "PT"}));
    reg.addCable(makeCable("MainOne", west, 2010, 10.0,
                           {"NG", "GH", "CI", "SN", "PT"}));
    reg.addCable(makeCable("ACE", west, 2012, 12.8,
                           {"FR", "PT", "MR", "SN", "GM", "GW", "GN", "SL",
                            "LR", "CI", "GH", "BJ", "NG", "CM", "GA", "ST"}));
    reg.addCable(makeCable("Glo-1", west, 2010, 2.5,
                           {"GB", "PT", "SN", "GH", "NG"}));

    // --- East coast / Red Sea: EIG, Seacom, AAE-1 (§5.1). ---
    reg.addCable(makeCable("SEACOM", east, 2009, 12.0,
                           {"ZA", "MZ", "TZ", "KE", "DJ", "EG", "IT"}));
    reg.addCable(makeCable("EASSy", east, 2010, 36.0,
                           {"ZA", "MZ", "MG", "KM", "TZ", "KE", "SO", "DJ",
                            "SD"}));
    reg.addCable(makeCable("EIG", east, 2011, 3.8,
                           {"GB", "PT", "FR", "LY", "EG", "DJ", "IN"}));
    reg.addCable(makeCable("AAE-1", east, 2017, 40.0,
                           {"FR", "IT", "EG", "DJ", "IN", "SG"}));
    reg.addCable(makeCable("DARE1", east, 2021, 36.0, {"DJ", "SO", "KE"}));

    // --- Mediterranean shore. ---
    reg.addCable(makeCable("SeaMeWe-4", med, 2005, 4.6,
                           {"FR", "IT", "DZ", "TN", "EG", "IN", "SG"}));
    reg.addCable(makeCable("Atlas-Offshore", med, 2007, 1.2, {"MA", "FR"}));
    reg.addCable(makeCable("Hannibal", med, 2009, 3.2, {"TN", "IT"}));
    reg.addCable(makeCable("Alexandros", med, 2012, 2.0, {"EG", "FR", "LY"}));

    // --- Indian Ocean islands. ---
    reg.addCable(makeCable("LION", indian, 2009, 1.3, {"MG", "MU"}));
    reg.addCable(makeCable("METISS", indian, 2021, 3.2, {"MU", "MG", "ZA"}));
    reg.addCable(makeCable("PEACE-Sey", indian, 2023, 16.0,
                           {"SC", "KE", "EG", "FR"}));

    // --- The geographically diverse newcomers (§5.1 implication). ---
    reg.addCable(makeCable("Equiano", westDiverse, 2022, 144.0,
                           {"PT", "TG", "NG", "NA", "ZA"}));
    reg.addCable(makeCable("2Africa", panDiverse, 2023, 180.0,
                           {"GB", "FR", "PT", "MA", "SN", "CI", "GH", "NG",
                            "GA", "CD", "AO", "ZA", "MZ", "TZ", "KE", "DJ",
                            "EG", "IT"}));
    return reg;
}

} // namespace aio::phys
