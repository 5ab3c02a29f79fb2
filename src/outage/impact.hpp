#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "content/catalog.hpp"
#include "dns/resolver.hpp"
#include "exec/cancel.hpp"
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
    /// oracle on construction), the pool parallelizes oracle builds and
    /// routingImpacts' row solves.
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

    /// routingImpact for each routing state in `states`, bitwise equal to
    /// routingImpact of an oracle built for that filter, but computed
    /// destination-major and without building one. Per state, the pool's
    /// lanes solve only the query plan's destination rows (the resolvers
    /// and sampled site hosts of the countries routingImpact walks) with
    /// the route kernel under the state's compiled filter, and record one
    /// reachability byte per (client, destination) query; each country's
    /// walk then reads those bytes in routingImpact's order. A bounded
    /// number of states is in flight at once, so the query bytes held do
    /// not grow with states.size(). `cancel` (optional, not owned) is
    /// polled at the pool's chunk boundaries, or between rows without a
    /// pool. A non-empty `stateSeconds` (1:1 with `states`) receives each
    /// state's lane seconds — its row solves plus its walk — on the
    /// metrics registry's clock; it is left as given without a registry.
    [[nodiscard]] std::vector<RoutingImpact>
    routingImpacts(std::span<const route::LinkFilter* const> states,
                   const exec::CancelToken* cancel = nullptr,
                   std::span<double> stateSeconds = {}) const;

    /// Distinct destination rows routingImpacts solves per routing state.
    [[nodiscard]] std::size_t plannedDestinations() const {
        return plan_.destinations.size();
    }

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
        /// Query slot of the first eyeball's resolver (QueryPlan).
        std::size_t firstSlot = 0;
        /// Cables from the country's coastal gateway to Europe.
        std::vector<phys::CableId> gatewayCables;
    };

    /// Every routing question the walks of the countries routingImpact
    /// scores can ask, fixed at construction. A query slot is one
    /// (client, destination) pair: country c's eyeball i asks about its
    /// resolver in slot c.firstSlot + i * (1 + |c.sites|) and about site
    /// j in the j + 1 slots after that, so slots run in walk order.
    struct QueryPlan {
        struct Query {
            std::uint32_t client = 0;
            std::uint32_t slot = 0;
        };
        std::vector<topo::AsIndex> destinations; ///< distinct, ascending
        /// destinations[d]'s queries are queries[offsets[d], offsets[d+1]),
        /// in slot order.
        std::vector<std::uint32_t> offsets;
        std::vector<Query> queries;
        std::size_t slots = 0;
    };

    struct CountryWalk {
        double success = 0.0; ///< page-load success share
        double dnsFailureShare = 0.0;
    };

    /// Popularity-weighted page-load success (DNS *and* content
    /// reachable) and DNS failure share of one country, where
    /// `reachable(country, i, k)` answers whether eyeball i reaches its
    /// resolver (k = 0) or site k - 1.
    template <typename Reach>
    [[nodiscard]] static CountryWalk walk(const CountryScoring& country,
                                          const Reach& reachable);

    /// routingImpact over the walks `reachable` answers.
    template <typename Reach>
    [[nodiscard]] RoutingImpact impactOf(const Reach& reachable) const;

    void buildQueryPlan();

    const topo::Topology* topo_;
    const phys::PhysicalLinkMap* linkMap_;
    ImpactConfig config_;
    route::OracleCache* oracleCache_;
    exec::WorkerPool* pool_;
    obs::MetricsRegistry* metrics_;
    std::shared_ptr<const route::RouteOracle> baselineOracle_;
    std::vector<CountryScoring> countries_; ///< CountryTable::african() order
    QueryPlan plan_;
};

} // namespace aio::outage
