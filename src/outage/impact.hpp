#pragma once

#include <map>
#include <memory>

#include "content/catalog.hpp"
#include "dns/resolver.hpp"
#include "outage/events.hpp"
#include "routing/oracle_cache.hpp"
#include "routing/route_oracle.hpp"
#include "routing/sharded_oracle.hpp"

namespace aio::outage {

/// Impact of one event on one country.
struct CountryImpact {
    std::string country;
    /// Page-load failure share: 1 - success/baseline, where success needs
    /// DNS *and* content reachability (§5.2's point: pages die with their
    /// offshore resolvers even when content would have been reachable).
    double pageLoadLoss = 0.0;
    double dnsFailureShare = 0.0;
    /// Days until this country recovers: repairs, or earlier via transit
    /// re-negotiation (manual, slow — Ghana's March 2024 experience).
    double effectiveOutageDays = 0.0;

    /// Exact (bitwise on doubles) equality — the differential harnesses
    /// compare swept vs per-scenario recompute reports with ==.
    [[nodiscard]] bool operator==(const CountryImpact&) const = default;
};

struct ImpactReport {
    OutageEvent event;
    std::vector<CountryImpact> countries; ///< countries with loss > 0
    /// Countries whose page-load loss exceeded the "impacted" threshold.
    [[nodiscard]] std::vector<std::string> impactedCountries() const;
    /// Longest country recovery — "time to resolve" as Radar would log it.
    [[nodiscard]] double resolutionDays() const;

    [[nodiscard]] bool operator==(const ImpactReport&) const = default;
};

struct ImpactConfig {
    double impactThreshold = 0.15;
    /// Mean days to re-negotiate emergency transit after a cut.
    double renegotiationMeanDays = 4.0;
    /// Mean days to shift onto (oversubscribed) pre-arranged backups.
    double degradedRecoveryMeanDays = 1.5;
    /// Page-load loss above which a country counts as hard-down (needs
    /// full re-negotiation rather than backup shuffling).
    double hardDownThreshold = 0.6;
    /// Share of a country's ASes knocked out by a power outage.
    double powerOutageAsShare = 0.7;
    /// Share of a country's links flapped by a routing incident.
    double routingIncidentLinkShare = 0.3;
    /// Top-site sample per eyeball AS when scoring page loads.
    int siteSample = 30;
    /// Storage policy of the route oracles the analyzer builds itself
    /// (baseline and per-event, when no cache is wired in; a wired-in
    /// cache builds with its own policy, which the Substrate keeps in
    /// agreement with this one). Both policies answer queries
    /// byte-identically; sharded is the continent-scale choice.
    route::StoragePolicy routeStorage = route::StoragePolicy::Dense;
    /// Sharded-build tuning, used when routeStorage == Sharded.
    route::ShardedOracleConfig shardedRouting = {};
};

/// Scores ground-truth events into per-country impact, combining the
/// routing, physical, DNS and content layers.
class ImpactAnalyzer {
public:
    /// `oracleCache` / `pool` are optional accelerators (not owned, must
    /// outlive the analyzer): the cache reuses degraded PathOracles across
    /// scenarios sharing a failure filter (it is seeded with the baseline
    /// oracle on construction), the pool parallelizes oracle builds.
    /// `metrics` (optional, not owned) records assessment counts and the
    /// `impact.assess_seconds` recompute-time histogram.
    ImpactAnalyzer(const topo::Topology& topology,
                   const phys::PhysicalLinkMap& linkMap,
                   const dns::ResolverEcosystem& resolvers,
                   const content::ContentCatalog& catalog,
                   ImpactConfig config = {},
                   route::OracleCache* oracleCache = nullptr,
                   exec::WorkerPool* pool = nullptr,
                   obs::MetricsRegistry* metrics = nullptr);

    /// Routing filter describing the event's physical/administrative
    /// damage (cable cuts -> failed subsea links; power/shutdown ->
    /// disabled ASes; routing incident -> flapped links).
    [[nodiscard]] route::LinkFilter filterFor(const OutageEvent& event,
                                              net::Rng& rng) const;

    /// Full impact assessment (computes a degraded route oracle).
    [[nodiscard]] ImpactReport assess(const OutageEvent& event,
                                      net::Rng& rng) const;

    /// Impact assessment against a caller-supplied degraded routing
    /// state. This is the scenario sweep's scoring path: the sweep
    /// derives the filter itself (ImpactAnalyzer::filterFor), obtains the
    /// oracle deduped / cached, then scores here. Byte-identical
    /// to assess() provided `rng` was advanced through filterFor exactly
    /// as assess() would (cable-cut filters draw nothing, so for cut
    /// events any fresh rng at the same state matches) and `degraded`
    /// equals the filter's recomputed oracle.
    [[nodiscard]] ImpactReport
    assessWithOracle(const OutageEvent& event,
                     const route::RouteOracle& degraded,
                     net::Rng& rng) const;

    /// The shared no-failure routing state this analyzer scores against.
    [[nodiscard]] const std::shared_ptr<const route::RouteOracle>&
    baselineOracle() const {
        return baselineOracle_;
    }

    /// Page-load success share for one country under a routing state.
    [[nodiscard]] double
    pageLoadSuccess(std::string_view country,
                    const route::RouteOracle& oracle) const;

    [[nodiscard]] const ImpactConfig& config() const { return config_; }

private:
    /// The scoring core shared by assess / assessWithOracle: per-country
    /// page-load loss, DNS failure and recovery sampling against
    /// `degraded`. Uninstrumented; callers own the timer/counter.
    [[nodiscard]] ImpactReport
    scoreImpact(const OutageEvent& event,
                const route::RouteOracle& degraded, net::Rng& rng) const;

    const topo::Topology* topo_;
    const phys::PhysicalLinkMap* linkMap_;
    const dns::ResolverEcosystem* resolvers_;
    const content::ContentCatalog* catalog_;
    ImpactConfig config_;
    route::OracleCache* oracleCache_;
    exec::WorkerPool* pool_;
    obs::MetricsRegistry* metrics_;
    std::shared_ptr<const route::RouteOracle> baselineOracle_;
    std::map<std::string, double, std::less<>> baselineSuccess_;
};

} // namespace aio::outage
