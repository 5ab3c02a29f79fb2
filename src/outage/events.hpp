#pragma once

#include <string>
#include <vector>

#include "netbase/rng.hpp"
#include "phys/linkmap.hpp"

namespace aio::outage {

/// Outage classes tracked by the Cloudflare-Radar-style analysis (§5.1).
enum class OutageType {
    CableCut,
    PowerOutage,
    GovernmentShutdown,
    RoutingIncident,
};

[[nodiscard]] std::string_view outageTypeName(OutageType type);

/// One ground-truth outage event.
struct OutageEvent {
    OutageType type = OutageType::PowerOutage;
    net::MacroRegion macroRegion = net::MacroRegion::Africa;
    double startDay = 0.0;
    /// Ground-truth time to full physical restoration. For cable cuts
    /// this is the ship-repair time; countries may *recover* earlier by
    /// re-negotiating transit (see ImpactAnalyzer).
    double durationDays = 0.0;
    std::vector<phys::CableId> cutCables; ///< CableCut only
    std::vector<std::string> countries;   ///< direct scope (power/shutdown/
                                          ///< routing); cable cuts derive
                                          ///< their blast radius from the
                                          ///< physical layer

    [[nodiscard]] bool operator==(const OutageEvent&) const = default;

    /// True while the event is ongoing at `day` (fault overlays and the
    /// radar detector both reason about instant-in-time activity).
    [[nodiscard]] bool activeAtDay(double day) const;
};

/// Yearly event rates for one macro region.
struct OutageRates {
    double cableCutsPerYear = 1.0;
    double powerOutagesPerYear = 2.0;
    double shutdownsPerYear = 0.0;
    double routingIncidentsPerYear = 2.0;
};

struct OutageConfig {
    double windowYears = 2.0;
    /// Rates per macro region; Africa's total is ~4x the mature regions'
    /// (Fig. 2c/§5.1: "Africa experiences 4x more outages").
    OutageRates africa{.cableCutsPerYear = 3.5,
                       .powerOutagesPerYear = 18.0,
                       .shutdownsPerYear = 6.0,
                       .routingIncidentsPerYear = 9.0};
    OutageRates europe{.cableCutsPerYear = 0.8,
                       .powerOutagesPerYear = 2.0,
                       .shutdownsPerYear = 0.0,
                       .routingIncidentsPerYear = 4.5};
    OutageRates northAmerica{.cableCutsPerYear = 0.5,
                             .powerOutagesPerYear = 2.5,
                             .shutdownsPerYear = 0.0,
                             .routingIncidentsPerYear = 4.0};
    OutageRates southAmerica{.cableCutsPerYear = 1.0,
                             .powerOutagesPerYear = 4.0,
                             .shutdownsPerYear = 0.5,
                             .routingIncidentsPerYear = 4.0};
    OutageRates asiaPacific{.cableCutsPerYear = 2.0,
                            .powerOutagesPerYear = 5.0,
                            .shutdownsPerYear = 1.5,
                            .routingIncidentsPerYear = 5.0};

    /// Probability that each additional cable in the primary victim's
    /// corridor is also cut by the same physical event (anchor drag /
    /// rock slide hits co-located systems, §5.1).
    double corridorCorrelationProb = 0.65;

    /// Duration parameters (days). Cable repairs need a ship: weeks.
    double cableRepairMeanDays = 21.0;
    double powerOutageMeanDays = 0.35;
    double shutdownMeanDays = 3.0;
    double routingIncidentMeanDays = 0.15;
};

/// Generates a ground-truth outage event stream over the analysis window.
/// African cable-cut events select a corridor (weighted by cable count)
/// and cut correlated subsets of it; other event types select countries
/// weighted by population.
class OutageEngine {
public:
    OutageEngine(const topo::Topology& topology,
                 const phys::CableRegistry& registry, OutageConfig config);

    /// One sampled window; deterministic for a given rng state.
    [[nodiscard]] std::vector<OutageEvent> generateWindow(net::Rng& rng) const;

    [[nodiscard]] const OutageConfig& config() const { return config_; }

private:
    void generateForMacro(net::MacroRegion macro, const OutageRates& rates,
                          net::Rng& rng, std::vector<OutageEvent>& out) const;

    const topo::Topology* topo_;
    const phys::CableRegistry* registry_;
    OutageConfig config_;
};

} // namespace aio::outage
