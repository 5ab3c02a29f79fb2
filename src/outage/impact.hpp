#pragma once

#include <memory>
#include <string_view>
#include <vector>

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

/// The routing half of an assessment: every African country whose
/// page-load loss under one routing state reaches the 2% floor, in
/// CountryTable::african() order. It depends only on the routing state,
/// never on the event, so a sweep computes it once per unique state and
/// scores each of that state's scenarios from it.
struct RoutingImpact {
    struct CountryLoss {
        std::size_t country = 0; ///< position in CountryTable::african()
        double pageLoadLoss = 0.0;
        double dnsFailureShare = 0.0;
    };
    std::vector<CountryLoss> countries;
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
    /// `impact.assess_seconds` histogram, one sample per score().
    /// `resolvers` and `catalog` are read only here: the per-country
    /// scoring tables copy what scoring needs of them.
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

    /// Full impact assessment: filterFor, the degraded oracle (cached, or
    /// built), then score(event, routingImpact(oracle), rng).
    [[nodiscard]] ImpactReport assess(const OutageEvent& event,
                                      net::Rng& rng) const;

    /// Page-load loss and DNS failure share of every African country that
    /// loses at least 2% of its page loads under `oracle`. One walk over a
    /// country's eyeballs answers both: the reachability of a client's
    /// resolver gates its page loads and counts toward the DNS share.
    [[nodiscard]] RoutingImpact
    routingImpact(const route::RouteOracle& oracle) const;

    /// The per-scenario rest of an assessment: the impact threshold, the
    /// coastal-gateway survivor test and the recovery draws for each
    /// country `impact` lists. This is the scenario sweep's scoring path:
    /// the sweep derives the filter itself (filterFor), obtains the oracle
    /// deduped / cached and its routingImpact once, then scores each of
    /// its scenarios here. Byte-identical to assess() provided `rng` was
    /// advanced through filterFor exactly as assess() would (cable-cut
    /// filters draw nothing) and `impact` is the routing impact of the
    /// filter's oracle. Non-African events ignore `impact`.
    [[nodiscard]] ImpactReport score(const OutageEvent& event,
                                     const RoutingImpact& impact,
                                     net::Rng& rng) const;

    /// The shared no-failure routing state this analyzer scores against.
    [[nodiscard]] const std::shared_ptr<const route::RouteOracle>&
    baselineOracle() const {
        return baselineOracle_;
    }

    [[nodiscard]] const ImpactConfig& config() const { return config_; }

private:
    /// One African country's scoring inputs, fixed at construction.
    struct CountryScoring {
        struct Eyeball {
            topo::AsIndex as = 0;
            double weight = 0.0; ///< trafficWeight
            topo::AsIndex resolver = 0;
        };
        struct Site {
            topo::AsIndex host = 0;
            double popularity = 0.0;
        };
        std::string_view country; ///< into net::CountryTable::world()
        std::vector<Eyeball> eyeballs; ///< ascending AS index
        std::vector<Site> sites; ///< the first siteSample top sites
        double sitePopularity = 0.0; ///< Σ popularity over `sites`
        double baselineSuccess = 0.0;
        /// Cables from the country's coastal gateway to Europe.
        std::vector<phys::CableId> gatewayCables;
    };

    struct CountryWalk {
        double success = 0.0; ///< page-load success share
        double dnsFailureShare = 0.0;
    };

    /// Popularity-weighted page-load success (DNS *and* content
    /// reachable) and DNS failure share of one country under `oracle`.
    [[nodiscard]] static CountryWalk walk(const CountryScoring& country,
                                          const route::RouteOracle& oracle);

    const topo::Topology* topo_;
    const phys::PhysicalLinkMap* linkMap_;
    ImpactConfig config_;
    route::OracleCache* oracleCache_;
    exec::WorkerPool* pool_;
    obs::MetricsRegistry* metrics_;
    std::shared_ptr<const route::RouteOracle> baselineOracle_;
    std::vector<CountryScoring> countries_; ///< CountryTable::african() order
};

} // namespace aio::outage
