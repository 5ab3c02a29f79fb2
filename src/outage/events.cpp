#include "outage/events.hpp"

#include <algorithm>

#include "netbase/error.hpp"

namespace aio::outage {

std::string_view outageTypeName(OutageType type) {
    switch (type) {
    case OutageType::CableCut: return "subsea cable cut";
    case OutageType::PowerOutage: return "power outage";
    case OutageType::GovernmentShutdown: return "government shutdown";
    case OutageType::RoutingIncident: return "routing incident";
    }
    return "?";
}

bool OutageEvent::activeAtDay(double day) const {
    return day >= startDay && day < startDay + durationDays;
}

OutageEngine::OutageEngine(const topo::Topology& topology,
                           const phys::CableRegistry& registry,
                           OutageConfig config)
    : topo_(&topology), registry_(&registry), config_(config) {
    AIO_EXPECTS(config.windowYears > 0.0, "window must be positive");
}

std::vector<OutageEvent>
OutageEngine::generateWindow(net::Rng& rng) const {
    std::vector<OutageEvent> events;
    generateForMacro(net::MacroRegion::Africa, config_.africa, rng, events);
    generateForMacro(net::MacroRegion::Europe, config_.europe, rng, events);
    generateForMacro(net::MacroRegion::NorthAmerica, config_.northAmerica,
                     rng, events);
    generateForMacro(net::MacroRegion::SouthAmerica, config_.southAmerica,
                     rng, events);
    generateForMacro(net::MacroRegion::AsiaPacific, config_.asiaPacific, rng,
                     events);
    std::ranges::sort(events, [](const OutageEvent& a, const OutageEvent& b) {
        return a.startDay < b.startDay;
    });
    return events;
}

void OutageEngine::generateForMacro(net::MacroRegion macro,
                                    const OutageRates& rates, net::Rng& rng,
                                    std::vector<OutageEvent>& out) const {
    const double windowDays = config_.windowYears * 365.0;
    const auto countries = net::CountryTable::world().inMacroRegion(macro);
    std::vector<double> populationWeights;
    populationWeights.reserve(countries.size());
    for (const auto* c : countries) {
        populationWeights.push_back(c->populationMillions);
    }

    const auto emit = [&](OutageType type, double meanDays) {
        OutageEvent event;
        event.type = type;
        event.macroRegion = macro;
        event.startDay = rng.uniformReal(0.0, windowDays);
        event.durationDays = std::max(0.02, rng.exponential(meanDays));
        if (type != OutageType::CableCut) {
            event.countries.push_back(std::string{
                countries[rng.weightedIndex(populationWeights)]->iso2});
        }
        out.push_back(std::move(event));
        return out.size() - 1;
    };

    const auto count = [&](double perYear) {
        return rng.poisson(perYear * config_.windowYears);
    };

    // Cable cuts: only meaningful where we model the cable plant (Africa).
    if (macro == net::MacroRegion::Africa) {
        const int cuts = count(rates.cableCutsPerYear);
        for (int i = 0; i < cuts; ++i) {
            const std::size_t idx =
                emit(OutageType::CableCut, config_.cableRepairMeanDays);
            OutageEvent& event = out[idx];
            // Pick a corridor weighted by its cable count, then cut the
            // primary cable plus correlated co-located systems.
            std::vector<double> corridorWeights;
            for (phys::CorridorId c = 0; c < registry_->corridorCount();
                 ++c) {
                corridorWeights.push_back(static_cast<double>(
                    registry_->cablesInCorridor(c).size()));
            }
            const phys::CorridorId corridor =
                rng.weightedIndex(corridorWeights);
            auto cables = registry_->cablesInCorridor(corridor);
            AIO_EXPECTS(!cables.empty(), "empty corridor selected");
            rng.shuffle(cables);
            event.cutCables.push_back(cables.front());
            for (std::size_t k = 1; k < cables.size(); ++k) {
                if (rng.bernoulli(config_.corridorCorrelationProb)) {
                    event.cutCables.push_back(cables[k]);
                }
            }
        }
    } else {
        // Other regions' cable cuts exist for the Fig. 4 frequency
        // comparison but have no modelled blast radius.
        const int cuts = count(rates.cableCutsPerYear);
        for (int i = 0; i < cuts; ++i) {
            emit(OutageType::CableCut, config_.cableRepairMeanDays * 0.5);
        }
    }

    const int power = count(rates.powerOutagesPerYear);
    for (int i = 0; i < power; ++i) {
        emit(OutageType::PowerOutage, config_.powerOutageMeanDays);
    }
    const int shutdowns = count(rates.shutdownsPerYear);
    for (int i = 0; i < shutdowns; ++i) {
        emit(OutageType::GovernmentShutdown, config_.shutdownMeanDays);
    }
    const int routing = count(rates.routingIncidentsPerYear);
    for (int i = 0; i < routing; ++i) {
        emit(OutageType::RoutingIncident, config_.routingIncidentMeanDays);
    }
}

} // namespace aio::outage
