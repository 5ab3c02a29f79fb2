#include "topo/as_graph.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "netbase/error.hpp"

namespace aio::topo {
namespace {

/// Copies an adjacency view so comparisons print both sides on failure.
std::vector<AsIndex> asVector(std::span<const std::uint32_t> neighbors) {
    return {neighbors.begin(), neighbors.end()};
}

AsInfo makeAs(Asn asn, std::string country, net::Region region,
              std::vector<net::Prefix> prefixes) {
    AsInfo info;
    info.asn = asn;
    info.countryCode = std::move(country);
    info.region = region;
    info.prefixes = std::move(prefixes);
    return info;
}

class SmallTopology : public ::testing::Test {
protected:
    void SetUp() override {
        a_ = topo_.addAs(makeAs(100, "RW", net::Region::EasternAfrica,
                                {net::Prefix::parse("41.0.0.0/16")}));
        b_ = topo_.addAs(makeAs(200, "KE", net::Region::EasternAfrica,
                                {net::Prefix::parse("41.1.0.0/16")}));
        c_ = topo_.addAs(makeAs(300, "DE", net::Region::Europe,
                                {net::Prefix::parse("62.0.0.0/16")}));
        Ixp ixp;
        ixp.name = "KE-IX";
        ixp.countryCode = "KE";
        ixp.region = net::Region::EasternAfrica;
        ixp.lanPrefix = net::Prefix::parse("196.60.0.0/24");
        ix_ = topo_.addIxp(std::move(ixp));
        topo_.addIxpMember(ix_, a_);
        topo_.addIxpMember(ix_, b_);
        topo_.addLink(a_, c_, LinkKind::CustomerToProvider);
        topo_.addLink(b_, c_, LinkKind::CustomerToProvider);
        topo_.addLink(a_, b_, LinkKind::PeerToPeer, ix_);
        topo_.finalize();
    }

    Topology topo_;
    AsIndex a_ = 0, b_ = 0, c_ = 0;
    IxpIndex ix_ = 0;
};

TEST_F(SmallTopology, AdjacencyRolesAreDirectional) {
    EXPECT_EQ(asVector(topo_.providersOf(a_)), std::vector<AsIndex>{c_});
    EXPECT_EQ(asVector(topo_.customersOf(c_)),
              (std::vector<AsIndex>{a_, b_}));
    EXPECT_EQ(asVector(topo_.peersOf(a_)), std::vector<AsIndex>{b_});
    EXPECT_TRUE(topo_.providersOf(c_).empty());
}

TEST_F(SmallTopology, AsnLookup) {
    EXPECT_EQ(topo_.indexOfAsn(100), a_);
    EXPECT_EQ(topo_.indexOfAsn(300), c_);
    EXPECT_FALSE(topo_.indexOfAsn(999).has_value());
}

TEST_F(SmallTopology, OriginLookupUsesLongestPrefix) {
    EXPECT_EQ(topo_.originOf(net::Ipv4Address::parse("41.0.5.5")), a_);
    EXPECT_EQ(topo_.originOf(net::Ipv4Address::parse("41.1.0.1")), b_);
    EXPECT_EQ(topo_.originOf(net::Ipv4Address::parse("62.0.0.1")), c_);
    EXPECT_FALSE(
        topo_.originOf(net::Ipv4Address::parse("8.8.8.8")).has_value());
}

TEST_F(SmallTopology, IxpLanLookup) {
    EXPECT_EQ(topo_.ixpOfLanAddress(net::Ipv4Address::parse("196.60.0.7")),
              ix_);
    EXPECT_FALSE(
        topo_.ixpOfLanAddress(net::Ipv4Address::parse("196.61.0.7"))
            .has_value());
}

TEST_F(SmallTopology, IxpMembershipIsRecorded) {
    EXPECT_EQ(topo_.ixp(ix_).members.size(), 2U);
    EXPECT_EQ(topo_.ixpsOf(a_), std::vector<IxpIndex>{ix_});
    EXPECT_TRUE(topo_.ixpsOf(c_).empty());
}

TEST_F(SmallTopology, IxpBetweenReportsFabric) {
    EXPECT_EQ(topo_.ixpBetween(a_, b_), ix_);
    EXPECT_EQ(topo_.ixpBetween(b_, a_), ix_);
    EXPECT_FALSE(topo_.ixpBetween(a_, c_).has_value());
}

TEST_F(SmallTopology, CountryAndRegionFilters) {
    EXPECT_EQ(topo_.asesInCountry("RW"), std::vector<AsIndex>{a_});
    EXPECT_EQ(topo_.asesInRegion(net::Region::EasternAfrica).size(), 2U);
    EXPECT_EQ(topo_.africanAses().size(), 2U);
    EXPECT_EQ(topo_.africanIxps().size(), 1U);
}

TEST_F(SmallTopology, RouterAddressIsInsideAsSpaceAndDeterministic) {
    const auto addr1 = topo_.routerAddress(a_, 7);
    const auto addr2 = topo_.routerAddress(a_, 7);
    EXPECT_EQ(addr1, addr2);
    EXPECT_EQ(topo_.originOf(addr1), a_);
    // Different salts should (almost always) give different interfaces.
    EXPECT_NE(topo_.routerAddress(a_, 1).value(),
              topo_.routerAddress(a_, 2).value());
}

TEST(TopologyConstruction, RejectsInvalidInput) {
    Topology topo;
    const auto a = topo.addAs(makeAs(1, "RW", net::Region::EasternAfrica,
                                     {net::Prefix::parse("41.0.0.0/16")}));
    const auto b = topo.addAs(makeAs(2, "KE", net::Region::EasternAfrica,
                                     {net::Prefix::parse("41.1.0.0/16")}));
    EXPECT_THROW(topo.addAs(AsInfo{}), net::PreconditionError); // ASN 0
    EXPECT_THROW(topo.addLink(a, a, LinkKind::PeerToPeer),
                 net::PreconditionError);
    EXPECT_THROW(topo.addLink(a, 99, LinkKind::PeerToPeer),
                 net::PreconditionError);
    topo.addLink(a, b, LinkKind::PeerToPeer);
    EXPECT_THROW(topo.addLink(b, a, LinkKind::CustomerToProvider),
                 net::PreconditionError); // duplicate adjacency
    EXPECT_THROW((void)topo.providersOf(a),
                 net::PreconditionError); // pre-finalize query
    topo.finalize();
    EXPECT_THROW(topo.finalize(), net::PreconditionError);
    EXPECT_THROW(topo.addAs(makeAs(3, "RW", net::Region::EasternAfrica, {})),
                 net::PreconditionError); // frozen
}

TEST(TopologyConstruction, DuplicateAsnRejectedAtFinalize) {
    Topology topo;
    topo.addAs(makeAs(5, "RW", net::Region::EasternAfrica,
                      {net::Prefix::parse("41.0.0.0/16")}));
    topo.addAs(makeAs(5, "KE", net::Region::EasternAfrica,
                      {net::Prefix::parse("41.1.0.0/16")}));
    EXPECT_THROW(topo.finalize(), net::PreconditionError);
}

TEST(TopologyConstruction, NeighborsSortedByAsn) {
    Topology topo;
    const auto a = topo.addAs(makeAs(50, "RW", net::Region::EasternAfrica,
                                     {net::Prefix::parse("41.0.0.0/16")}));
    const auto hi = topo.addAs(makeAs(900, "KE", net::Region::EasternAfrica,
                                      {net::Prefix::parse("41.1.0.0/16")}));
    const auto lo = topo.addAs(makeAs(100, "TZ", net::Region::EasternAfrica,
                                      {net::Prefix::parse("41.2.0.0/16")}));
    topo.addLink(a, hi, LinkKind::CustomerToProvider);
    topo.addLink(a, lo, LinkKind::CustomerToProvider);
    topo.finalize();
    EXPECT_EQ(asVector(topo.providersOf(a)), (std::vector<AsIndex>{lo, hi}));
}

} // namespace
} // namespace aio::topo
