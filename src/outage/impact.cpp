#include "outage/impact.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "netbase/error.hpp"

namespace aio::outage {

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
      oracleCache_(oracleCache), pool_(pool), metrics_(metrics) {
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
    for (CountryScoring& scoring : countries_) {
        scoring.baselineSuccess = walk(scoring, *baselineOracle_).success;
    }
}

ImpactAnalyzer::CountryWalk
ImpactAnalyzer::walk(const CountryScoring& country,
                     const route::RouteOracle& oracle) {
    double success = 0.0;
    double weight = 0.0;
    std::size_t resolved = 0;
    for (const CountryScoring::Eyeball& client : country.eyeballs) {
        weight += client.weight;
        if (!oracle.reachable(client.as, client.resolver)) {
            continue; // no DNS, no page — regardless of content locality
        }
        ++resolved;
        // Popularity-weighted content reachability over the site sample.
        double ok = 0.0;
        for (const CountryScoring::Site& site : country.sites) {
            if (oracle.reachable(client.as, site.host)) {
                ok += site.popularity;
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

RoutingImpact
ImpactAnalyzer::routingImpact(const route::RouteOracle& oracle) const {
    RoutingImpact impact;
    for (std::size_t i = 0; i < countries_.size(); ++i) {
        const CountryScoring& country = countries_[i];
        if (country.baselineSuccess <= 0.0) {
            continue;
        }
        const CountryWalk now = walk(country, oracle);
        const double loss = std::max(
            0.0, 1.0 - now.success / country.baselineSuccess);
        if (loss < 0.02) {
            continue;
        }
        impact.countries.push_back({i, loss, now.dnsFailureShare});
    }
    return impact;
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
