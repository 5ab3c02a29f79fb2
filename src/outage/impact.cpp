#include "outage/impact.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <unordered_set>

#include "exec/worker_pool.hpp"
#include "netbase/error.hpp"
#include "routing/route_kernel.hpp"

namespace aio::outage {

namespace {

/// Routing states whose query bytes routingImpacts holds at once.
constexpr std::size_t kStatesInFlight = 8;

/// Walk reachability answered by a route oracle, query by query.
auto oracleReach(const route::RouteOracle& oracle) {
    return [&oracle](const auto& country, std::size_t i, std::size_t k) {
        const auto& client = country.eyeballs[i];
        return oracle.reachable(client.as, k == 0
                                               ? client.resolver
                                               : country.sites[k - 1].host);
    };
}

/// Walk reachability answered by one routing state's query bytes.
auto slotReach(const std::uint8_t* bytes) {
    return [bytes](const auto& country, std::size_t i, std::size_t k) {
        return bytes[country.firstSlot + i * (1 + country.sites.size()) +
                     k] != 0;
    };
}

} // namespace

std::vector<std::string> ImpactReport::impactedCountries() const {
    std::vector<std::string> out;
    for (const CountryImpact& impact : countries) {
        if (impact.effectiveOutageDays > 0.0) {
            out.push_back(impact.country);
        }
    }
    return out;
}

double ImpactReport::resolutionDays() const {
    double worst = 0.0;
    for (const CountryImpact& impact : countries) {
        worst = std::max(worst, impact.effectiveOutageDays);
    }
    return worst;
}

ImpactAnalyzer::ImpactAnalyzer(const topo::Topology& topology,
                               const phys::PhysicalLinkMap& linkMap,
                               const dns::ResolverEcosystem& resolvers,
                               const content::ContentCatalog& catalog,
                               ImpactConfig config,
                               route::OracleCache* oracleCache,
                               exec::WorkerPool* pool,
                               obs::MetricsRegistry* metrics)
    : topo_(&topology), linkMap_(&linkMap), config_(config),
      oracleCache_(oracleCache), pool_(pool), metrics_(metrics),
      order_(topology) {
    if (oracleCache_) {
        // The baseline (no-failure) state is the cache's natural seed:
        // every analyzer sharing the cache then shares one baseline build.
        baselineOracle_ = oracleCache_->get(route::LinkFilter{});
    } else {
        baselineOracle_ =
            route::buildOracle(topology, config_.routeStorage,
                               route::LinkFilter{}, pool_,
                               config_.shardedRouting);
    }
    const auto african = net::CountryTable::world().african();
    countries_.reserve(african.size());
    std::unordered_map<std::string_view, std::size_t> byCountry;
    for (const auto* country : african) {
        byCountry.emplace(country->iso2, countries_.size());
        CountryScoring& scoring = countries_.emplace_back();
        scoring.country = country->iso2;
        scoring.gatewayCables = linkMap.registry().cablesToEurope(
            phys::PhysicalLinkMap::coastalGateway(country->iso2));
        const auto& sites = catalog.sitesFor(country->iso2);
        const int sample = std::min<int>(config_.siteSample,
                                         static_cast<int>(sites.size()));
        scoring.sites.reserve(static_cast<std::size_t>(std::max(0, sample)));
        for (int i = 0; i < sample; ++i) {
            const content::Website& site = sites[static_cast<std::size_t>(i)];
            scoring.sites.push_back({site.hostAs, site.popularity});
            scoring.sitePopularity += site.popularity;
        }
    }
    // One pass in AS-index order, so each country's eyeballs keep the
    // order every per-country sum has always run in.
    for (topo::AsIndex as = 0; as < topology.asCount(); ++as) {
        const auto resolver = resolvers.resolverOf(as);
        if (!resolver) {
            continue; // not an eyeball network
        }
        const topo::AsInfo& info = topology.as(as);
        if (const auto it = byCountry.find(info.countryCode);
            it != byCountry.end()) {
            countries_[it->second].eyeballs.push_back(
                {as, info.trafficWeight, resolver->resolverAs});
        }
    }
    // Baseline success comes from the no-failure state's reachability
    // pass over a plan of every country, so no baseline row is read here
    // (a sharded baseline stays empty); the plan then keeps only the
    // countries with positive success, the ones routingImpact walks.
    buildQueryPlan(true);
    {
        const route::kernel::CompiledFilter intact{route::LinkFilter{},
                                                   topology.asCount()};
        std::vector<std::uint8_t> bytes(plan_.slots);
        answerQueries({&intact, 1}, bytes.data(), nullptr, nullptr);
        for (CountryScoring& scoring : countries_) {
            scoring.baselineSuccess =
                walk(scoring, slotReach(bytes.data())).success;
        }
    }
    buildQueryPlan(false);
}

void ImpactAnalyzer::buildQueryPlan(bool everyCountry) {
    // Counting sort of every query slot by destination: count, offset,
    // then fill in slot order, so each destination's queries ascend.
    const std::size_t n = topo_->asCount();
    const auto planned = [&](const CountryScoring& country) {
        return everyCountry || country.baselineSuccess > 0.0;
    };
    plan_ = {};
    std::vector<std::uint32_t> start(n + 1, 0);
    std::size_t slots = 0;
    for (CountryScoring& country : countries_) {
        if (!planned(country)) {
            continue; // routingImpact never walks it
        }
        country.firstSlot = slots;
        slots += country.eyeballs.size() * (1 + country.sites.size());
        for (const CountryScoring::Eyeball& client : country.eyeballs) {
            ++start[client.resolver + 1];
            for (const CountryScoring::Site& site : country.sites) {
                ++start[site.host + 1];
            }
        }
    }
    AIO_EXPECTS(slots <= UINT32_MAX, "query plan outgrows 32-bit slots");
    for (std::size_t d = 0; d < n; ++d) {
        start[d + 1] += start[d];
    }
    plan_.slots = slots;
    plan_.queries.resize(slots);
    std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
    const auto add = [&](topo::AsIndex client, topo::AsIndex dst,
                         std::size_t slot) {
        plan_.queries[fill[dst]++] = {static_cast<std::uint32_t>(client),
                                      static_cast<std::uint32_t>(slot)};
    };
    for (const CountryScoring& country : countries_) {
        if (!planned(country)) {
            continue;
        }
        std::size_t slot = country.firstSlot;
        for (const CountryScoring::Eyeball& client : country.eyeballs) {
            add(client.as, client.resolver, slot++);
            for (const CountryScoring::Site& site : country.sites) {
                add(client.as, site.host, slot++);
            }
        }
    }
    for (topo::AsIndex d = 0; d < n; ++d) {
        if (start[d + 1] > start[d]) {
            plan_.destinations.push_back(d);
            plan_.offsets.push_back(start[d]);
        }
    }
    plan_.offsets.push_back(start[n]);
}

template <typename Reach>
ImpactAnalyzer::CountryWalk
ImpactAnalyzer::walk(const CountryScoring& country, const Reach& reachable) {
    double success = 0.0;
    double weight = 0.0;
    std::size_t resolved = 0;
    for (std::size_t i = 0; i < country.eyeballs.size(); ++i) {
        const CountryScoring::Eyeball& client = country.eyeballs[i];
        weight += client.weight;
        if (!reachable(country, i, 0)) {
            continue; // no DNS, no page — regardless of content locality
        }
        ++resolved;
        // Popularity-weighted content reachability over the site sample.
        double ok = 0.0;
        for (std::size_t j = 0; j < country.sites.size(); ++j) {
            if (reachable(country, i, j + 1)) {
                ok += country.sites[j].popularity;
            }
        }
        success += client.weight * (country.sitePopularity == 0.0
                                        ? 0.0
                                        : ok / country.sitePopularity);
    }
    const double eyeballs = static_cast<double>(country.eyeballs.size());
    return {weight == 0.0 ? 0.0 : success / weight,
            1.0 - (eyeballs == 0.0
                       ? 0.0
                       : static_cast<double>(resolved) / eyeballs)};
}

route::LinkFilter ImpactAnalyzer::filterFor(const OutageEvent& event,
                                            net::Rng& rng) const {
    route::LinkFilter filter;
    switch (event.type) {
    case OutageType::CableCut: {
        std::unordered_set<phys::CableId> cuts(event.cutCables.begin(),
                                               event.cutCables.end());
        for (const auto& [a, b] : linkMap_->failedLinks(cuts)) {
            filter.disableLink(a, b);
        }
        break;
    }
    case OutageType::PowerOutage:
        for (const std::string& country : event.countries) {
            for (const topo::AsIndex as : topo_->asesInCountry(country)) {
                if (rng.bernoulli(config_.powerOutageAsShare)) {
                    filter.disableAs(as);
                }
            }
        }
        break;
    case OutageType::GovernmentShutdown:
        for (const std::string& country : event.countries) {
            for (const topo::AsIndex as : topo_->asesInCountry(country)) {
                filter.disableAs(as);
            }
        }
        break;
    case OutageType::RoutingIncident:
        for (const std::string& country : event.countries) {
            for (const auto& link : topo_->links()) {
                const bool touches =
                    topo_->as(link.a).countryCode == country ||
                    topo_->as(link.b).countryCode == country;
                if (touches &&
                    rng.bernoulli(config_.routingIncidentLinkShare)) {
                    filter.disableLink(link.a, link.b);
                }
            }
        }
        break;
    }
    return filter;
}

ImpactReport ImpactAnalyzer::assess(const OutageEvent& event,
                                    net::Rng& rng) const {
    if (event.macroRegion != net::MacroRegion::Africa) {
        return score(event, RoutingImpact{}, rng);
    }
    const route::LinkFilter filter = filterFor(event, rng);
    // Reuse the cached scenario oracle when a cache is wired in; rebuild
    // under the configured storage policy (parallel if a pool is wired)
    // otherwise. The routing state depends only on the filter, so cached
    // and cold results are identical.
    const std::shared_ptr<const route::RouteOracle> degraded =
        oracleCache_ ? oracleCache_->get(filter)
                     : route::buildOracle(*topo_, config_.routeStorage,
                                          filter, pool_,
                                          config_.shardedRouting);
    return score(event, routingImpact(*degraded), rng);
}

template <typename Reach>
RoutingImpact ImpactAnalyzer::impactOf(const Reach& reachable) const {
    RoutingImpact impact;
    for (std::size_t i = 0; i < countries_.size(); ++i) {
        const CountryScoring& country = countries_[i];
        if (country.baselineSuccess <= 0.0) {
            continue;
        }
        const CountryWalk now = walk(country, reachable);
        const double loss = std::max(
            0.0, 1.0 - now.success / country.baselineSuccess);
        if (loss < 0.02) {
            continue;
        }
        impact.countries.push_back({i, loss, now.dnsFailureShare});
    }
    return impact;
}

RoutingImpact
ImpactAnalyzer::routingImpact(const route::RouteOracle& oracle) const {
    return impactOf(oracleReach(oracle));
}

void ImpactAnalyzer::answerQueries(
    std::span<const route::kernel::CompiledFilter> filters,
    std::uint8_t* bytes, const exec::CancelToken* cancel,
    std::atomic<std::uint64_t>* nanos) const {
    const std::size_t n = topo_->asCount();
    const std::size_t dests = plan_.destinations.size();
    const std::size_t blocks =
        (dests + route::kernel::kReachBlock - 1) / route::kernel::kReachBlock;
    const obs::Clock* clock = nanos != nullptr ? &metrics_->clock() : nullptr;
    std::vector<route::kernel::ReachScratch> lanes(
        pool_ != nullptr ? static_cast<std::size_t>(pool_->threadCount()) : 1);
    // Item s * blocks + b answers state s's destinations [b * kReachBlock,
    // (b + 1) * kReachBlock). Its queries own their slots, so lanes write
    // disjoint bytes.
    const auto answer = [&](std::size_t item, std::size_t lane) {
        if (cancel != nullptr) {
            cancel->checkpoint();
        }
        const std::uint64_t started = clock ? clock->nowNanos() : 0;
        const std::size_t s = item / blocks;
        const std::size_t first = item % blocks * route::kernel::kReachBlock;
        const std::size_t count =
            std::min(route::kernel::kReachBlock, dests - first);
        route::kernel::ReachScratch& reach = lanes[lane];
        reach.prepare(n);
        route::kernel::reachDestinations(
            *topo_, filters[s], order_,
            std::span{plan_.destinations}.subspan(first, count), reach);
        std::uint8_t* out = bytes + s * plan_.slots;
        for (std::size_t j = 0; j < count; ++j) {
            for (std::uint32_t q = plan_.offsets[first + j];
                 q < plan_.offsets[first + j + 1]; ++q) {
                const QueryPlan::Query query = plan_.queries[q];
                out[query.slot] = reach.reaches(query.client, j);
            }
        }
        if (clock != nullptr) {
            nanos[s].fetch_add(clock->nowNanos() - started,
                               std::memory_order_relaxed);
        }
    };
    const std::size_t items = filters.size() * blocks;
    if (pool_ != nullptr) {
        pool_->parallelFor(items, answer);
    } else {
        for (std::size_t item = 0; item < items; ++item) {
            answer(item, 0);
        }
    }
}

std::vector<RoutingImpact> ImpactAnalyzer::routingImpacts(
    std::span<const route::LinkFilter* const> states,
    const exec::CancelToken* cancel, std::span<double> stateSeconds) const {
    AIO_EXPECTS(stateSeconds.empty() || stateSeconds.size() == states.size(),
                "stateSeconds must be empty or 1:1 with states");
    std::vector<RoutingImpact> out(states.size());
    const bool timed = !stateSeconds.empty() && metrics_ != nullptr;
    std::vector<std::uint8_t> reach(
        std::min(kStatesInFlight, states.size()) * plan_.slots);

    for (std::size_t first = 0; first < states.size();
         first += kStatesInFlight) {
        const std::size_t count =
            std::min(kStatesInFlight, states.size() - first);
        std::vector<route::kernel::CompiledFilter> filters;
        filters.reserve(count);
        for (std::size_t s = 0; s < count; ++s) {
            filters.emplace_back(*states[first + s], topo_->asCount());
        }
        std::vector<std::atomic<std::uint64_t>> nanos(timed ? count : 0);
        answerQueries(filters, reach.data(), cancel,
                      timed ? nanos.data() : nullptr);
        for (std::size_t s = 0; s < count; ++s) {
            const std::uint64_t started =
                timed ? metrics_->clock().nowNanos() : 0;
            out[first + s] =
                impactOf(slotReach(reach.data() + s * plan_.slots));
            if (timed) {
                const std::uint64_t walked =
                    metrics_->clock().nowNanos() - started;
                stateSeconds[first + s] =
                    static_cast<double>(
                        nanos[s].load(std::memory_order_relaxed) + walked) *
                    1e-9;
            }
        }
    }
    return out;
}

ImpactReport ImpactAnalyzer::score(const OutageEvent& event,
                                   const RoutingImpact& impact,
                                   net::Rng& rng) const {
    const obs::ScopedTimer timer{metrics_, "impact.assess_seconds"};
    if (metrics_ != nullptr) {
        metrics_->counter("impact.assessments").add();
    }
    ImpactReport report;
    report.event = event;
    if (event.macroRegion != net::MacroRegion::Africa) {
        // Blast radius outside the modelled cable plant: score the named
        // countries as down for the ground-truth duration.
        for (const std::string& country : event.countries) {
            report.countries.push_back(CountryImpact{
                country, 1.0, 1.0, event.durationDays});
        }
        return report;
    }

    report.countries.reserve(impact.countries.size());
    for (const RoutingImpact::CountryLoss& country : impact.countries) {
        AIO_EXPECTS(country.country < countries_.size(),
                    "routing impact names no African country");
        const CountryScoring& scoring = countries_[country.country];
        CountryImpact& out = report.countries.emplace_back();
        out.country = std::string{scoring.country};
        out.pageLoadLoss = country.pageLoadLoss;
        out.dnsFailureShare = country.dnsFailureShare;
        const double loss = country.pageLoadLoss;
        if (loss >= config_.impactThreshold) {
            if (event.type == OutageType::CableCut) {
                // Recovery depends on surviving physical capacity at the
                // country's coastal gateway: with an intact alternative
                // cable, operators shuffle onto (oversubscribed) backups
                // or manually re-negotiate transit; with the whole shore
                // dark, only the repair ship ends the outage (§4.1/§5.1).
                bool survivorExists = false;
                for (const phys::CableId id : scoring.gatewayCables) {
                    survivorExists |= std::ranges::find(event.cutCables,
                                                        id) ==
                                      event.cutCables.end();
                }
                double recover = event.durationDays;
                if (survivorExists) {
                    recover = loss >= config_.hardDownThreshold
                                  ? rng.exponential(
                                        config_.renegotiationMeanDays)
                                  : rng.exponential(
                                        config_.degradedRecoveryMeanDays);
                }
                out.effectiveOutageDays =
                    std::min(event.durationDays, std::max(0.1, recover));
            } else {
                out.effectiveOutageDays = event.durationDays;
            }
        }
    }
    return report;
}

} // namespace aio::outage
