// Parameterized property sweep: the routing invariants must hold for ANY
// generator seed, not just the default world.

#include <gtest/gtest.h>

#include <algorithm>

#include "routing/path_oracle.hpp"
#include "topo/generator.hpp"
#include "valley_free.hpp"

namespace aio::route {
namespace {

class RoutingInvariants : public ::testing::TestWithParam<std::uint64_t> {
protected:
    static topo::Topology makeTopology(std::uint64_t seed) {
        auto cfg = topo::GeneratorConfig::defaults();
        cfg.seed = seed;
        return topo::TopologyGenerator{cfg}.generate();
    }
};

TEST_P(RoutingInvariants, ValleyFreeLoopFreeAndAnchored) {
    const topo::Topology topo = makeTopology(GetParam());
    const PathOracle oracle{topo};
    net::Rng rng{GetParam() ^ 0xabcdef};
    for (int i = 0; i < 600; ++i) {
        const topo::AsIndex src = rng.uniformInt(topo.asCount());
        const topo::AsIndex dst = rng.uniformInt(topo.asCount());
        const auto path = oracle.path(src, dst);
        if (path.empty()) {
            continue;
        }
        ASSERT_EQ(path.front(), src);
        ASSERT_EQ(path.back(), dst);
        ASSERT_TRUE(isValleyFree(topo, path))
            << "seed " << GetParam() << " src AS" << topo.as(src).asn
            << " dst AS" << topo.as(dst).asn;
        auto sorted = path;
        std::ranges::sort(sorted);
        ASSERT_EQ(std::ranges::adjacent_find(sorted), sorted.end());
    }
}

TEST_P(RoutingInvariants, CustomerConeNeverWorseThanProviderRoute) {
    const topo::Topology topo = makeTopology(GetParam());
    const PathOracle oracle{topo};
    net::Rng rng{GetParam() ^ 0x123456};
    for (int i = 0; i < 300; ++i) {
        const topo::AsIndex src = rng.uniformInt(topo.asCount());
        for (const topo::AsIndex customer : topo.customersOf(src)) {
            // A direct customer is always reachable via the customer
            // route, i.e. class Customer with path length 1.
            ASSERT_EQ(oracle.routeClass(src, customer),
                      RouteClass::Customer);
            ASSERT_EQ(oracle.pathLength(src, customer), 1);
        }
    }
}

TEST_P(RoutingInvariants, EveryAfricanEyeballReachesEurope) {
    const topo::Topology topo = makeTopology(GetParam());
    const PathOracle oracle{topo};
    // The structural dependence: all eyeballs can reach the EU core.
    std::optional<topo::AsIndex> euTier1;
    for (topo::AsIndex i = 0; i < topo.asCount(); ++i) {
        if (topo.as(i).type == topo::AsType::Tier1 &&
            topo.as(i).region == net::Region::Europe) {
            euTier1 = i;
            break;
        }
    }
    ASSERT_TRUE(euTier1.has_value());
    for (const topo::AsIndex as : topo.africanAses()) {
        ASSERT_TRUE(oracle.reachable(as, *euTier1))
            << "seed " << GetParam() << " AS" << topo.as(as).asn;
    }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, RoutingInvariants,
                         ::testing::Values(1, 7, 42, 1337, 20250704));

} // namespace
} // namespace aio::route
