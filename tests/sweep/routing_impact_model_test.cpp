// ImpactAnalyzer::routingImpact against an independent model. The sweep
// equivalence suites compare the sweep with assess(), and both score
// through routingImpact, so they cannot see it drift. This model
// recomputes every African country's page-load loss and DNS failure
// share from public APIs only: the topology's per-country AS lists, each
// eyeball's resolver, the country's top sites, the oracle's reachability
// and the DNS simulator's resolvable share. Doubles compare exactly. The
// destination-major routingImpacts, which the sweep scores cacheless
// batches with, is held to the same model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/whatif.hpp"
#include "dns/resolver.hpp"
#include "routing/route_oracle.hpp"
#include "sweep/scenario_sweep.hpp"
#include "topo/generator.hpp"

namespace aio::sweep {
namespace {

topo::GeneratorConfig tinyConfig(std::uint64_t seed) {
    auto config = topo::GeneratorConfig::defaults();
    config.seed = seed;
    for (auto& profile : config.africa) {
        profile.asPerMillionPeople *= 0.4;
        profile.minAsesPerCountry = 1;
        profile.ixpCount = std::max(1, profile.ixpCount / 2);
    }
    config.europe.accessPerCountry = 2;
    config.northAmerica.accessPerCountry = 2;
    config.southAmerica.accessPerCountry = 2;
    config.asiaPacific.accessPerCountry = 2;
    return config;
}

const topo::Topology& world() {
    static const topo::Topology topo =
        topo::TopologyGenerator{tinyConfig(42)}.generate();
    return topo;
}

/// Popularity-weighted share of a country's eyeball traffic whose page
/// loads succeed: the client reaches its resolver, then each of the
/// country's first `siteSample` top sites counts by popularity when its
/// host is reachable.
double modelSuccess(const core::Substrate& substrate,
                    std::string_view country,
                    const route::RouteOracle& oracle) {
    const topo::Topology& topo = substrate.topology();
    const auto& sites = substrate.catalog().sitesFor(country);
    const std::size_t sample =
        std::min(static_cast<std::size_t>(
                     std::max(0, substrate.impactConfig().siteSample)),
                 sites.size());
    double success = 0.0;
    double weight = 0.0;
    for (const topo::AsIndex client : topo.asesInCountry(country)) {
        const auto resolver = substrate.resolvers().resolverOf(client);
        if (!resolver) {
            continue;
        }
        const double w = topo.as(client).trafficWeight;
        weight += w;
        if (!oracle.reachable(client, resolver->resolverAs)) {
            continue;
        }
        double ok = 0.0;
        double total = 0.0;
        for (std::size_t i = 0; i < sample; ++i) {
            total += sites[i].popularity;
            if (oracle.reachable(client, sites[i].hostAs)) {
                ok += sites[i].popularity;
            }
        }
        success += w * (total == 0.0 ? 0.0 : ok / total);
    }
    return weight == 0.0 ? 0.0 : success / weight;
}

struct ModelLoss {
    std::string country;
    double pageLoadLoss = 0.0;
    double dnsFailureShare = 0.0;
};

/// Every African country whose baseline success is positive and whose
/// loss under `degraded` reaches 2%, in country-table order.
std::vector<ModelLoss> modelImpact(const core::Substrate& substrate,
                                   const route::RouteOracle& baseline,
                                   const route::RouteOracle& degraded) {
    const dns::ResolutionSimulator dns{substrate.resolvers()};
    std::vector<ModelLoss> out;
    for (const auto* country : net::CountryTable::world().african()) {
        const double base = modelSuccess(substrate, country->iso2, baseline);
        if (base <= 0.0) {
            continue;
        }
        const double loss = std::max(
            0.0,
            1.0 - modelSuccess(substrate, country->iso2, degraded) / base);
        if (loss < 0.02) {
            continue;
        }
        out.push_back({std::string{country->iso2}, loss,
                       1.0 - dns.resolvableShare(country->iso2, degraded)});
    }
    return out;
}

/// `got` equals the model's losses, country for country.
void expectMatches(const outage::RoutingImpact& got,
                   const std::vector<ModelLoss>& model) {
    EXPECT_EQ(got.countries.size(), model.size());
    const auto african = net::CountryTable::world().african();
    for (std::size_t i = 0;
         i < std::min(got.countries.size(), model.size()); ++i) {
        SCOPED_TRACE(model[i].country);
        const std::size_t country = got.countries[i].country;
        EXPECT_LT(country, african.size());
        if (country < african.size()) {
            EXPECT_EQ(african[country]->iso2, model[i].country);
        }
        EXPECT_EQ(got.countries[i].pageLoadLoss, model[i].pageLoadLoss);
        EXPECT_EQ(got.countries[i].dnsFailureShare,
                  model[i].dnsFailureShare);
    }
}

/// The analyzer's routing impact equals the model's, country for
/// country: over the oracle built for `filter` (`degraded`), and
/// destination-major over `filter` itself. Returns how many countries
/// the model lists.
std::size_t expectModel(const core::Substrate& substrate,
                        const route::RouteOracle& baseline,
                        const route::LinkFilter& filter,
                        const route::RouteOracle& degraded) {
    const std::vector<ModelLoss> model =
        modelImpact(substrate, baseline, degraded);
    {
        SCOPED_TRACE("routingImpact over the oracle");
        expectMatches(substrate.analyzer().routingImpact(degraded), model);
    }
    {
        SCOPED_TRACE("routingImpacts, destination-major");
        const route::LinkFilter* states[] = {&filter};
        const std::vector<outage::RoutingImpact> got =
            substrate.analyzer().routingImpacts(states);
        EXPECT_EQ(got.size(), 1u);
        if (!got.empty()) {
            expectMatches(got.front(), model);
        }
    }
    return model.size();
}

class RoutingImpactModel
    : public ::testing::TestWithParam<route::StoragePolicy> {
protected:
    RoutingImpactModel()
        : substrate_(world(), phys::CableRegistry::africanDefaults(),
                     dns::DnsConfig::defaults(),
                     content::ContentConfig::defaults(), options()) {}

    static core::Substrate::Options options() {
        core::Substrate::Options options;
        options.impact.routeStorage = GetParam();
        return options;
    }

    /// A fresh oracle for `filter` under the parameter's storage policy.
    [[nodiscard]] std::shared_ptr<const route::RouteOracle>
    oracleFor(const route::LinkFilter& filter) const {
        return route::buildOracle(world(), GetParam(), filter, nullptr,
                                  substrate_.impactConfig().shardedRouting);
    }

    /// The filter `event` derives, drawing from the stream assess() would.
    [[nodiscard]] route::LinkFilter
    filterFor(const outage::OutageEvent& event) const {
        net::Rng rng{substrate_.seed() + 7};
        return substrate_.analyzer().filterFor(event, rng);
    }

    [[nodiscard]] outage::OutageEvent
    cut(const std::vector<std::string>& cables) const {
        return core::WhatIfEngine{substrate_}.makeCutEvent(cables);
    }

    [[nodiscard]] const route::RouteOracle& baseline() const {
        return *substrate_.analyzer().baselineOracle();
    }

    core::Substrate substrate_;
};

TEST_P(RoutingImpactModel, BaselineStateListsNoCountry) {
    const route::LinkFilter none;
    EXPECT_EQ(expectModel(substrate_, baseline(), none, baseline()), 0u);
    EXPECT_EQ(expectModel(substrate_, baseline(), none, *oracleFor(none)),
              0u);
}

TEST_P(RoutingImpactModel, WestCorridorCut) {
    const route::LinkFilter filter =
        filterFor(cut({"WACS", "MainOne", "SAT-3", "ACE"}));
    EXPECT_GT(expectModel(substrate_, baseline(), filter, *oracleFor(filter)),
              0u);
}

TEST_P(RoutingImpactModel, EastCut) {
    const route::LinkFilter filter = filterFor(cut({"SEACOM", "EASSy"}));
    EXPECT_GT(expectModel(substrate_, baseline(), filter, *oracleFor(filter)),
              0u);
}

TEST_P(RoutingImpactModel, PowerOutageFilter) {
    outage::OutageEvent power;
    power.type = outage::OutageType::PowerOutage;
    power.durationDays = 3.0;
    power.countries = {"NG", "GH"};
    const route::LinkFilter filter = filterFor(power);
    EXPECT_GT(expectModel(substrate_, baseline(), filter, *oracleFor(filter)),
              0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, RoutingImpactModel,
                         ::testing::Values(route::StoragePolicy::Dense,
                                           route::StoragePolicy::Sharded),
                         [](const auto& info) {
                             return info.param == route::StoragePolicy::Dense
                                        ? std::string{"Dense"}
                                        : std::string{"Sharded"};
                         });

} // namespace
} // namespace aio::sweep
