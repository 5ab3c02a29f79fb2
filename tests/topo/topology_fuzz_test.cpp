// Fuzz corpus for the one adjacency the routing layers read. Random and
// mutated edge lists go through Topology::addLink, which must refuse
// every malformed edge (an out-of-range endpoint, a self link, a pair
// already linked in either orientation or of either kind) with
// net::PreconditionError and add nothing. Every accepted list must
// finalize() into rows the route kernel and the sharded oracle's slot
// encoding can trust: ASN-sorted, duplicate-free, mirrored segments that
// hold two entries per link. CI runs this suite under ASan/UBSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <numeric>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "netbase/error.hpp"
#include "netbase/rng.hpp"
#include "topo/as_graph.hpp"
#include "topo/generator.hpp"

namespace aio::topo {
namespace {

bool contains(std::span<const std::uint32_t> segment, AsIndex as) {
    return std::ranges::find(segment, as) != segment.end();
}

/// The finalized rows hold exactly topo.links(), sorted and mirrored.
void expectSoundRows(const Topology& topo) {
    const std::size_t n = topo.asCount();
    const auto byAsn = [&](std::uint32_t lhs, std::uint32_t rhs) {
        return topo.as(lhs).asn < topo.as(rhs).asn;
    };
    std::size_t entries = 0;
    for (AsIndex a = 0; a < n; ++a) {
        const auto providers = topo.providersOf(a);
        const auto customers = topo.customersOf(a);
        const auto peers = topo.peersOf(a);
        std::vector<std::uint32_t> row;
        for (const auto segment : {providers, customers, peers}) {
            // Strictly ascending ASNs: sorted and duplicate-free.
            EXPECT_TRUE(std::ranges::adjacent_find(
                            segment, std::not_fn(byAsn)) == segment.end())
                << "AS " << a;
            row.insert(row.end(), segment.begin(), segment.end());
        }
        entries += row.size();
        // The whole row is the three segments back to back.
        const auto whole = topo.rowUnchecked(a);
        EXPECT_TRUE(std::ranges::equal(whole, row)) << "AS " << a;

        std::ranges::sort(row);
        EXPECT_TRUE(std::ranges::adjacent_find(row) == row.end())
            << "AS " << a << " lists a neighbour in two segments";
        for (const std::uint32_t b : row) {
            ASSERT_LT(b, n) << "AS " << a;
            EXPECT_NE(b, a);
        }
        // Mirrored: b is a's provider iff a is b's customer; peering is
        // symmetric.
        for (const std::uint32_t b : providers) {
            EXPECT_TRUE(contains(topo.customersOf(b), a)) << a << "->" << b;
        }
        for (const std::uint32_t b : customers) {
            EXPECT_TRUE(contains(topo.providersOf(b), a)) << a << "->" << b;
        }
        for (const std::uint32_t b : peers) {
            EXPECT_TRUE(contains(topo.peersOf(b), a)) << a << "--" << b;
        }
    }
    EXPECT_EQ(entries, 2 * topo.links().size());
    for (const AsLink& link : topo.links()) {
        EXPECT_TRUE(link.kind == LinkKind::CustomerToProvider
                        ? contains(topo.providersOf(link.a), link.b)
                        : contains(topo.peersOf(link.a), link.b))
            << link.a << "," << link.b;
    }
}

/// `n` ASes whose ASNs are a shuffled range, so ASN order and index
/// order differ.
Topology withAses(std::size_t n, net::Rng& rng) {
    std::vector<Asn> asns(n);
    std::iota(asns.begin(), asns.end(), Asn{64512});
    rng.shuffle(asns);
    Topology topo;
    for (const Asn asn : asns) {
        AsInfo info;
        info.asn = asn;
        topo.addAs(std::move(info));
    }
    return topo;
}

/// Feeds `edges` through addLink, checking each verdict against an
/// independent model of which edges are malformed; returns the accepted
/// ones and leaves `topo` finalized.
std::vector<AsLink> feed(Topology& topo, std::span<const AsLink> edges) {
    const std::size_t n = topo.asCount();
    std::set<std::pair<AsIndex, AsIndex>> linked;
    std::vector<AsLink> accepted;
    for (const AsLink& edge : edges) {
        const std::pair<AsIndex, AsIndex> pair = std::minmax(edge.a, edge.b);
        const bool malformed = edge.a >= n || edge.b >= n ||
                               edge.a == edge.b || linked.contains(pair);
        const bool wasLinked = topo.hasLink(edge.a, edge.b);
        const std::size_t before = topo.links().size();
        if (malformed) {
            EXPECT_THROW(topo.addLink(edge.a, edge.b, edge.kind),
                         net::PreconditionError)
                << edge.a << "," << edge.b;
            EXPECT_EQ(topo.links().size(), before);
            EXPECT_EQ(topo.hasLink(edge.a, edge.b), wasLinked);
            continue;
        }
        EXPECT_NO_THROW(topo.addLink(edge.a, edge.b, edge.kind))
            << edge.a << "," << edge.b;
        linked.insert(pair);
        accepted.push_back(edge);
    }
    topo.finalize();
    return accepted;
}

LinkKind otherKind(LinkKind kind) {
    return kind == LinkKind::PeerToPeer ? LinkKind::CustomerToProvider
                                        : LinkKind::PeerToPeer;
}

TEST(TopologyFuzz, RandomAndMutatedEdgeListsNeverCorrupt) {
    net::Rng rng{0xC5Au};
    for (int iter = 0; iter < 300; ++iter) {
        const std::size_t n = 1 + rng.uniformInt(40);
        const std::size_t m = rng.uniformInt(120);
        std::vector<AsLink> edges;
        for (std::size_t e = 0; e < m; ++e) {
            // ~10% deliberately out-of-range endpoints.
            const std::size_t hi = rng.bernoulli(0.1) ? n + 4 : n;
            AsLink edge;
            edge.a = rng.uniformInt(hi);
            edge.b = rng.uniformInt(hi);
            edge.kind = rng.bernoulli(0.5) ? LinkKind::PeerToPeer
                                           : LinkKind::CustomerToProvider;
            edges.push_back(edge);
        }
        Topology random = withAses(n, rng);
        const std::vector<AsLink> accepted = feed(random, edges);
        ASSERT_EQ(random.links().size(), accepted.size());
        expectSoundRows(random);

        // Mutation pass: the accepted list again, with a corrupted copy
        // of some edges spliced in at random positions.
        std::vector<AsLink> mutated = accepted;
        for (const AsLink& edge : accepted) {
            if (!rng.bernoulli(0.3)) {
                continue;
            }
            AsLink mutant = edge;
            switch (rng.uniformInt(5)) {
            case 0: std::swap(mutant.a, mutant.b); break;
            case 1: mutant.kind = otherKind(mutant.kind); break;
            case 2:
                std::swap(mutant.a, mutant.b);
                mutant.kind = otherKind(mutant.kind);
                break;
            case 3: mutant.b = n + rng.uniformInt(4); break;
            default: mutant.b = mutant.a; break;
            }
            const auto at =
                static_cast<std::ptrdiff_t>(rng.uniformInt(mutated.size() + 1));
            mutated.insert(mutated.begin() + at, mutant);
        }
        Topology remixed = withAses(n, rng);
        // Each accepted pair is linked again, by whichever of the edge or
        // its well-formed mutant comes first.
        (void)feed(remixed, mutated);
        ASSERT_EQ(remixed.links().size(), accepted.size());
        expectSoundRows(remixed);
    }
}

TEST(TopologyFuzz, GeneratedRowsAreSortedAndMirrored) {
    auto config = GeneratorConfig::defaults();
    config.seed = 43;
    for (auto& profile : config.africa) {
        profile.asPerMillionPeople *= 0.4;
        profile.minAsesPerCountry = 1;
        profile.ixpCount = std::max(1, profile.ixpCount / 2);
    }
    const Topology topo = TopologyGenerator{config}.generate();
    ASSERT_FALSE(topo.links().empty());
    expectSoundRows(topo);
}

} // namespace
} // namespace aio::topo
