#include "routing/path_oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "netbase/error.hpp"
#include "topo/generator.hpp"
#include "valley_free.hpp"

namespace aio::route {
namespace {

using topo::AsIndex;
using topo::AsInfo;
using topo::AsType;
using topo::LinkKind;

AsInfo makeAs(topo::Asn asn, AsType type, std::string country,
              net::Region region) {
    static int serial = 0;
    AsInfo info;
    info.asn = asn;
    info.type = type;
    info.countryCode = std::move(country);
    info.region = region;
    info.prefixes = {net::Prefix{net::Ipv4Address{
                                     static_cast<std::uint32_t>(
                                         (41U << 24) + (serial++ << 12))},
                                 20}};
    return info;
}

/// Classic Gao-Rexford teaching topology:
///
///           T (tier1)
///          /  \
///         P1   P2        P1 -- P2 are peers
///        /       \
///       C1        C2     C1 -- C2 are peers
///
/// plus S, a customer of C1 only.
class PolicyFixture : public ::testing::Test {
protected:
    void SetUp() override {
        t_ = topo_.addAs(makeAs(10, AsType::Tier1, "DE", net::Region::Europe));
        p1_ = topo_.addAs(
            makeAs(20, AsType::Tier2, "DE", net::Region::Europe));
        p2_ = topo_.addAs(
            makeAs(30, AsType::Tier2, "FR", net::Region::Europe));
        c1_ = topo_.addAs(makeAs(40, AsType::AccessIsp, "RW",
                                 net::Region::EasternAfrica));
        c2_ = topo_.addAs(makeAs(50, AsType::AccessIsp, "KE",
                                 net::Region::EasternAfrica));
        s_ = topo_.addAs(makeAs(60, AsType::Enterprise, "RW",
                                net::Region::EasternAfrica));
        topo_.addLink(p1_, t_, LinkKind::CustomerToProvider);
        topo_.addLink(p2_, t_, LinkKind::CustomerToProvider);
        topo_.addLink(c1_, p1_, LinkKind::CustomerToProvider);
        topo_.addLink(c2_, p2_, LinkKind::CustomerToProvider);
        topo_.addLink(p1_, p2_, LinkKind::PeerToPeer);
        topo_.addLink(c1_, c2_, LinkKind::PeerToPeer);
        topo_.addLink(s_, c1_, LinkKind::CustomerToProvider);
        topo_.finalize();
    }

    topo::Topology topo_;
    AsIndex t_ = 0, p1_ = 0, p2_ = 0, c1_ = 0, c2_ = 0, s_ = 0;
};

TEST_F(PolicyFixture, SelfRouteIsTrivial) {
    const PathOracle oracle{topo_};
    EXPECT_EQ(oracle.path(c1_, c1_), std::vector<AsIndex>{c1_});
    EXPECT_EQ(oracle.pathLength(c1_, c1_), 0);
    EXPECT_EQ(oracle.routeClass(c1_, c1_), RouteClass::Self);
}

TEST_F(PolicyFixture, PrefersPeerRouteOverProviderRoute) {
    const PathOracle oracle{topo_};
    // c1 -> c2 must use the direct peering, not climb via p1.
    EXPECT_EQ(oracle.path(c1_, c2_), (std::vector<AsIndex>{c1_, c2_}));
    EXPECT_EQ(oracle.routeClass(c1_, c2_), RouteClass::Peer);
}

TEST_F(PolicyFixture, CustomerRoutePreferredEvenIfLonger) {
    const PathOracle oracle{topo_};
    // p1 -> s: customer route via c1 (class Customer).
    EXPECT_EQ(oracle.path(p1_, s_), (std::vector<AsIndex>{p1_, c1_, s_}));
    EXPECT_EQ(oracle.routeClass(p1_, s_), RouteClass::Customer);
}

TEST_F(PolicyFixture, NoValleyThroughPeerChain) {
    const PathOracle oracle{topo_};
    // s -> c2: s climbs to c1, then uses the c1--c2 peering:
    // up, peer, done — valley-free.
    const auto path = oracle.path(s_, c2_);
    EXPECT_EQ(path, (std::vector<AsIndex>{s_, c1_, c2_}));
    EXPECT_TRUE(isValleyFree(topo_, path));
}

TEST_F(PolicyFixture, ProviderRouteWhenNothingBetter) {
    const PathOracle oracle{topo_};
    // c1 -> p2: no customer/peer route; goes up through p1.
    EXPECT_EQ(oracle.routeClass(c1_, p2_), RouteClass::Provider);
    const auto path = oracle.path(c1_, p2_);
    EXPECT_EQ(path.front(), c1_);
    EXPECT_EQ(path.back(), p2_);
    EXPECT_TRUE(isValleyFree(topo_, path));
}

TEST_F(PolicyFixture, PeerRouteOnlyExportedToCustomers) {
    const PathOracle oracle{topo_};
    // p1 hears c2's routes via the p1--p2 peering; its customer c1 can use
    // them, so c1 -> c2 via the direct peer link is still preferred, but
    // s -> c2 must NOT go s -> c1 -> p1 -> p2 -> c2 (that would export a
    // peer-learned route to a peer). s's route is via c1's peering.
    const auto path = oracle.path(s_, c2_);
    EXPECT_TRUE(isValleyFree(topo_, path));
    EXPECT_EQ(path.size(), 3U);
}

TEST_F(PolicyFixture, LinkFailureForcesReroute) {
    LinkFilter filter;
    filter.disableLink(c1_, c2_);
    const PathOracle oracle{topo_, filter};
    // Without the peering, c1 -> c2 climbs: c1 p1 p2 c2 (peer at top).
    const auto path = oracle.path(c1_, c2_);
    EXPECT_EQ(path, (std::vector<AsIndex>{c1_, p1_, p2_, c2_}));
    EXPECT_TRUE(isValleyFree(topo_, path));
}

TEST_F(PolicyFixture, AsFailureDisconnectsSingleHomedStub) {
    LinkFilter filter;
    filter.disableAs(c1_);
    const PathOracle oracle{topo_, filter};
    EXPECT_FALSE(oracle.reachable(s_, c2_));
    EXPECT_FALSE(oracle.reachable(t_, s_));
    EXPECT_TRUE(oracle.path(s_, c2_).empty());
    EXPECT_EQ(oracle.pathLength(s_, c2_), -1);
}

TEST_F(PolicyFixture, SymmetricReachabilityOnThisGraph) {
    const PathOracle oracle{topo_};
    for (AsIndex i = 0; i < topo_.asCount(); ++i) {
        for (AsIndex j = 0; j < topo_.asCount(); ++j) {
            EXPECT_TRUE(oracle.reachable(i, j));
        }
    }
}

TEST(LinkFilterTest, TracksDisabledElements) {
    LinkFilter filter;
    EXPECT_TRUE(filter.empty());
    filter.disableLink(3, 7);
    EXPECT_FALSE(filter.linkAllowed(7, 3)); // unordered
    EXPECT_TRUE(filter.linkAllowed(3, 8));
    filter.disableAs(5);
    EXPECT_FALSE(filter.asAllowed(5));
    EXPECT_TRUE(filter.asAllowed(4));
    EXPECT_EQ(filter.disabledLinkCount(), 1U);
}

// ---- property tests over the full generated topology ----

class GeneratedFixture : public ::testing::Test {
protected:
    static const topo::Topology& topology() {
        static const topo::Topology topo =
            topo::TopologyGenerator{topo::GeneratorConfig::defaults()}
                .generate();
        return topo;
    }
    static const PathOracle& oracle() {
        static const PathOracle o{topology()};
        return o;
    }
};

TEST_F(GeneratedFixture, SampledPathsAreValleyFree) {
    const auto& topo = topology();
    net::Rng rng{7};
    for (int i = 0; i < 3000; ++i) {
        const AsIndex src = rng.uniformInt(topo.asCount());
        const AsIndex dst = rng.uniformInt(topo.asCount());
        const auto path = oracle().path(src, dst);
        if (path.empty()) continue;
        EXPECT_TRUE(isValleyFree(topo, path))
            << "src=AS" << topo.as(src).asn << " dst=AS" << topo.as(dst).asn;
    }
}

TEST_F(GeneratedFixture, PathsEndAtEndpointsAndAreLoopFree) {
    const auto& topo = topology();
    net::Rng rng{11};
    for (int i = 0; i < 2000; ++i) {
        const AsIndex src = rng.uniformInt(topo.asCount());
        const AsIndex dst = rng.uniformInt(topo.asCount());
        const auto path = oracle().path(src, dst);
        if (path.empty()) continue;
        EXPECT_EQ(path.front(), src);
        EXPECT_EQ(path.back(), dst);
        auto sorted = path;
        std::ranges::sort(sorted);
        EXPECT_EQ(std::ranges::adjacent_find(sorted), sorted.end())
            << "loop in path";
    }
}

TEST_F(GeneratedFixture, EverythingReachesTier1) {
    const auto& topo = topology();
    // Find a Tier-1.
    std::optional<AsIndex> tier1;
    for (AsIndex i = 0; i < topo.asCount(); ++i) {
        if (topo.as(i).type == AsType::Tier1) {
            tier1 = i;
            break;
        }
    }
    ASSERT_TRUE(tier1.has_value());
    for (AsIndex i = 0; i < topo.asCount(); ++i) {
        EXPECT_TRUE(oracle().reachable(i, *tier1))
            << "AS" << topo.as(i).asn;
        EXPECT_TRUE(oracle().reachable(*tier1, i))
            << "AS" << topo.as(i).asn;
    }
}

TEST_F(GeneratedFixture, PathLengthsArePlausible) {
    const auto& topo = topology();
    net::Rng rng{13};
    for (int i = 0; i < 500; ++i) {
        const AsIndex src = rng.uniformInt(topo.asCount());
        const AsIndex dst = rng.uniformInt(topo.asCount());
        const int len = oracle().pathLength(src, dst);
        if (len < 0) continue;
        EXPECT_LE(len, 12) << "suspiciously long AS path";
    }
}

TEST_F(GeneratedFixture, RecomputationUnderFilterNeverCreatesValleys) {
    const auto& topo = topology();
    net::Rng rng{17};
    LinkFilter filter;
    // Disable 5% of links.
    for (const auto& link : topo.links()) {
        if (rng.bernoulli(0.05)) {
            filter.disableLink(link.a, link.b);
        }
    }
    const PathOracle damaged{topo, filter};
    for (int i = 0; i < 800; ++i) {
        const AsIndex src = rng.uniformInt(topo.asCount());
        const AsIndex dst = rng.uniformInt(topo.asCount());
        const auto path = damaged.path(src, dst);
        if (path.empty()) continue;
        EXPECT_TRUE(isValleyFree(topo, path));
        // The damaged path never uses a disabled link.
        for (std::size_t k = 0; k + 1 < path.size(); ++k) {
            EXPECT_TRUE(filter.linkAllowed(path[k], path[k + 1]));
        }
    }
}

} // namespace
} // namespace aio::route
