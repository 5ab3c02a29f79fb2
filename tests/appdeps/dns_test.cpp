#include "dns/resolver.hpp"

#include <gtest/gtest.h>

#include "resolution_simulator.hpp"
#include "routing/path_oracle.hpp"
#include "topo/generator.hpp"

namespace aio::dns {
namespace {

struct World {
    topo::Topology topo;
    route::PathOracle oracle;
    ResolverEcosystem ecosystem;

    World()
        : topo(topo::TopologyGenerator{topo::GeneratorConfig::defaults()}
                   .generate()),
          oracle(topo), ecosystem(topo, DnsConfig::defaults(), 31) {}
};

World& world() {
    static World w;
    return w;
}

TEST(ResolverEcosystem, OnlyAfricanEyeballsGetAssignments) {
    auto& w = world();
    for (topo::AsIndex i = 0; i < w.topo.asCount(); ++i) {
        const auto& info = w.topo.as(i);
        const bool eyeball = info.type == topo::AsType::MobileOperator ||
                             info.type == topo::AsType::AccessIsp;
        const bool expected = eyeball && net::isAfrican(info.region);
        EXPECT_EQ(w.ecosystem.resolverOf(i).has_value(), expected)
            << "AS" << info.asn;
    }
}

TEST(ResolverEcosystem, AssignmentsMatchTheirClassSemantics) {
    auto& w = world();
    for (topo::AsIndex i = 0; i < w.topo.asCount(); ++i) {
        const auto assignment = w.ecosystem.resolverOf(i);
        if (!assignment) continue;
        const auto& client = w.topo.as(i);
        const auto& resolver = w.topo.as(assignment->resolverAs);
        switch (assignment->cls) {
        case ResolverClass::LocalInCountry:
            EXPECT_EQ(resolver.countryCode, client.countryCode);
            break;
        case ResolverClass::OtherAfricanCountry:
            EXPECT_TRUE(net::isAfrican(resolver.region));
            EXPECT_NE(resolver.countryCode, client.countryCode);
            break;
        case ResolverClass::CloudInAfrica:
            EXPECT_EQ(resolver.type, topo::AsType::CloudProvider);
            EXPECT_TRUE(net::isAfrican(resolver.region));
            break;
        case ResolverClass::CloudOffshore:
            EXPECT_EQ(resolver.type, topo::AsType::CloudProvider);
            EXPECT_FALSE(net::isAfrican(resolver.region));
            break;
        case ResolverClass::IspOffshore:
            EXPECT_EQ(resolver.region, net::Region::Europe);
            break;
        }
    }
}

TEST(ResolverEcosystem, AfricanCloudResolversAreInSouthAfrica) {
    auto& w = world();
    for (topo::AsIndex i = 0; i < w.topo.asCount(); ++i) {
        const auto assignment = w.ecosystem.resolverOf(i);
        if (assignment && assignment->cls == ResolverClass::CloudInAfrica) {
            EXPECT_EQ(w.topo.as(assignment->resolverAs).countryCode, "ZA");
        }
    }
}

TEST(ResolverEcosystem, OffshoreRelianceIsHeavyOutsideSouthernAfrica) {
    auto& w = world();
    const auto shares = [&](net::Region r) {
        double offshore = 0.0;
        for (const auto& [cls, share] : w.ecosystem.classShares(r)) {
            if (!isAfricanResolverClass(cls)) {
                offshore += share;
            }
        }
        return offshore;
    };
    EXPECT_GT(shares(net::Region::WesternAfrica), 0.35);
    EXPECT_GT(shares(net::Region::CentralAfrica), 0.35);
    EXPECT_LT(shares(net::Region::SouthernAfrica),
              shares(net::Region::WesternAfrica));
}

TEST(ResolverEcosystem, ClassSharesSumToOne) {
    auto& w = world();
    for (const net::Region region : net::africanRegions()) {
        double total = 0.0;
        for (const auto& [cls, share] : w.ecosystem.classShares(region)) {
            total += share;
        }
        EXPECT_NEAR(total, 1.0, 1e-9) << net::regionName(region);
    }
}

TEST(ResolutionSimulator, EveryoneResolvesOnHealthyNetwork) {
    auto& w = world();
    const ResolutionSimulator sim{w.ecosystem};
    for (const auto* country : net::CountryTable::world().african()) {
        const double share = sim.resolvableShare(country->iso2, w.oracle);
        if (w.topo.asesInCountry(country->iso2).empty()) continue;
        EXPECT_NEAR(share, 1.0, 1e-9) << country->iso2;
    }
}

TEST(ResolutionSimulator, OffshoreResolversFailWhenClientIsolated) {
    auto& w = world();
    const ResolutionSimulator sim{w.ecosystem};
    // Find a client with an offshore resolver and cut all its providers.
    for (topo::AsIndex i = 0; i < w.topo.asCount(); ++i) {
        const auto assignment = w.ecosystem.resolverOf(i);
        if (!assignment || isAfricanResolverClass(assignment->cls)) {
            continue;
        }
        route::LinkFilter filter;
        for (const auto provider : w.topo.providersOf(i)) {
            filter.disableLink(i, provider);
        }
        for (const auto peer : w.topo.peersOf(i)) {
            filter.disableLink(i, peer);
        }
        const route::PathOracle cut{w.topo, filter};
        EXPECT_FALSE(sim.resolve(i, cut).resolved);
        // Local resolution would have survived (same AS).
        return;
    }
    FAIL() << "no offshore-resolver client found";
}

TEST(ResolutionSimulator, RttReflectsResolverDistance) {
    auto& w = world();
    const ResolutionSimulator sim{w.ecosystem};
    std::vector<double> localRtt;
    std::vector<double> offshoreRtt;
    for (topo::AsIndex i = 0; i < w.topo.asCount(); ++i) {
        const auto assignment = w.ecosystem.resolverOf(i);
        if (!assignment) continue;
        const auto outcome = sim.resolve(i, w.oracle);
        if (!outcome.resolved) continue;
        if (assignment->cls == ResolverClass::LocalInCountry) {
            localRtt.push_back(outcome.rttMs);
        } else if (assignment->cls == ResolverClass::CloudOffshore) {
            offshoreRtt.push_back(outcome.rttMs);
        }
    }
    ASSERT_GT(localRtt.size(), 10U);
    ASSERT_GT(offshoreRtt.size(), 10U);
    double localSum = 0, offshoreSum = 0;
    for (double v : localRtt) localSum += v;
    for (double v : offshoreRtt) offshoreSum += v;
    EXPECT_GT(offshoreSum / offshoreRtt.size(),
              localSum / localRtt.size());
}

} // namespace
} // namespace aio::dns
