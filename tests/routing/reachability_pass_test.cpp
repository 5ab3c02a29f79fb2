// The reachability pass against the route kernel it stands in for: for
// every AS and every destination, kernel::reachDestinations sets the AS's
// bit exactly when kernel::solveDestination routes it (klass != None).
// Checked on generated worlds and on hand-built random graphs whose
// customer->provider edges form cycles, under filters that disable links,
// ASes (destinations among them) and entries past the last AS, for
// destination sets of 1, 63, 64, 65, 256 and 257 answered kReachBlock at
// a time. CI runs this suite under ASan/UBSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "netbase/error.hpp"
#include "netbase/rng.hpp"
#include "routing/route_kernel.hpp"
#include "topo/generator.hpp"

namespace aio::route {
namespace {

constexpr auto kNone = static_cast<std::uint8_t>(RouteClass::None);

/// Asserts the pass equals the kernel for every AS towards every one of
/// `dsts`, which are answered kReachBlock at a time. Returns how many
/// (AS, destination) routes the kernel found.
std::size_t expectKernelReach(const topo::Topology& topo,
                              const LinkFilter& filter,
                              const kernel::CustomerFirstOrder& order,
                              std::span<const topo::AsIndex> dsts,
                              const std::string& label) {
    const std::size_t n = topo.asCount();
    const kernel::CompiledFilter compiled{filter, n};
    kernel::DestScratch dest;
    dest.prepare(n);
    std::vector<std::int32_t> next(n);
    std::vector<std::uint8_t> klass(n);
    kernel::ReachScratch reach;
    reach.prepare(n);
    std::size_t mismatches = 0;
    std::size_t routed = 0;
    for (std::size_t first = 0; first < dsts.size();
         first += kernel::kReachBlock) {
        const auto block = dsts.subspan(
            first, std::min(kernel::kReachBlock, dsts.size() - first));
        kernel::reachDestinations(topo, compiled, order, block, reach);
        for (std::size_t j = 0; j < block.size(); ++j) {
            std::ranges::fill(klass, kNone);
            kernel::solveDestination(topo, compiled, block[j], next.data(),
                                     klass.data(), dest);
            for (topo::AsIndex as = 0; as < n; ++as) {
                const bool want = klass[as] != kNone;
                routed += want;
                if (reach.reaches(as, j) != want && ++mismatches <= 5) {
                    ADD_FAILURE() << label << ": AS " << as << " towards "
                                  << block[j] << ", kernel routes it: "
                                  << want;
                }
            }
        }
    }
    EXPECT_EQ(mismatches, 0U) << label;
    return routed;
}

/// Links and ASes no topology adjacency can name.
void addOutOfRange(LinkFilter& filter, std::size_t n) {
    filter.disableLink(0, n);
    filter.disableLink(n + 7, 3);
    filter.disableLink(n + 1, n + 2);
    filter.disableAs(n);
    filter.disableAs(n + 1000);
}

/// The filters every topology is checked under: none; every third link
/// cut with the first destinations and a few other ASes disabled; a
/// random fifth of the links and a twentieth of the ASes; each of the
/// last two with out-of-range entries too.
std::vector<std::pair<std::string, LinkFilter>>
filtersFor(const topo::Topology& topo, std::span<const topo::AsIndex> dsts,
           net::Rng& rng) {
    const std::size_t n = topo.asCount();
    std::vector<std::pair<std::string, LinkFilter>> filters;
    filters.emplace_back("no filter", LinkFilter{});

    LinkFilter every3rd;
    for (std::size_t i = 0; i < topo.links().size(); i += 3) {
        every3rd.disableLink(topo.links()[i].a, topo.links()[i].b);
    }
    for (std::size_t j = 0; j < std::min<std::size_t>(3, dsts.size()); ++j) {
        every3rd.disableAs(dsts[j]);
    }
    for (topo::AsIndex as = 5; as < n; as += n / 7 + 1) {
        every3rd.disableAs(as);
    }
    addOutOfRange(every3rd, n);
    filters.emplace_back("every third link, disabled ASes",
                         std::move(every3rd));

    LinkFilter random;
    for (const topo::AsLink& link : topo.links()) {
        if (rng.bernoulli(0.2)) {
            random.disableLink(link.a, link.b);
        }
    }
    for (topo::AsIndex as = 0; as < n; ++as) {
        if (rng.bernoulli(0.05)) {
            random.disableAs(as);
        }
    }
    addOutOfRange(random, n);
    filters.emplace_back("random links and ASes", std::move(random));
    return filters;
}

/// Every destination-set size the suite checks, each a prefix of one
/// shuffled list of the topology's ASes.
void expectAllBlockSizes(const topo::Topology& topo,
                         const kernel::CustomerFirstOrder& order,
                         net::Rng& rng, const std::string& label) {
    std::vector<topo::AsIndex> all(topo.asCount());
    std::iota(all.begin(), all.end(), topo::AsIndex{0});
    rng.shuffle(all);
    for (const auto& [name, filter] : filtersFor(topo, all, rng)) {
        std::size_t routed = 0;
        for (const std::size_t size : {1, 63, 64, 65, 256, 257}) {
            ASSERT_LE(size, all.size()) << label;
            routed += expectKernelReach(
                topo, filter, order, std::span{all}.first(size),
                label + ", " + name + ", " + std::to_string(size) +
                    " destinations");
        }
        EXPECT_GT(routed, 0U) << label << ", " << name
                              << ": the kernel routed nothing at all";
    }
}

/// `n` ASes with shuffled ASNs and about `edgesPerAs` random edges each,
/// customer->provider in random directions, so the relationships form
/// cycles (0 -> 1 -> 2 -> 0 among them), and peerings.
topo::Topology cyclicGraph(std::size_t n, std::size_t edgesPerAs,
                           net::Rng& rng) {
    std::vector<topo::Asn> asns(n);
    std::iota(asns.begin(), asns.end(), topo::Asn{64512});
    rng.shuffle(asns);
    topo::Topology topo;
    for (const topo::Asn asn : asns) {
        topo::AsInfo info;
        info.asn = asn;
        topo.addAs(std::move(info));
    }
    topo.addLink(0, 1, topo::LinkKind::CustomerToProvider);
    topo.addLink(1, 2, topo::LinkKind::CustomerToProvider);
    topo.addLink(2, 0, topo::LinkKind::CustomerToProvider);
    for (std::size_t e = 0; e < n * edgesPerAs; ++e) {
        const auto a = static_cast<topo::AsIndex>(rng.uniformInt(n));
        const auto b = static_cast<topo::AsIndex>(rng.uniformInt(n));
        if (a == b || topo.hasLink(a, b)) {
            continue;
        }
        topo.addLink(a, b,
                     rng.bernoulli(0.7) ? topo::LinkKind::CustomerToProvider
                                        : topo::LinkKind::PeerToPeer);
    }
    topo.finalize();
    return topo;
}

TEST(ReachabilityPass, MatchesTheKernelOnGeneratedWorlds) {
    for (const std::uint64_t seed : {29ULL, 101ULL}) {
        auto config = topo::GeneratorConfig::defaults();
        config.seed = seed;
        const topo::Topology topo = topo::TopologyGenerator{config}.generate();
        const kernel::CustomerFirstOrder order{topo};
        EXPECT_TRUE(order.complete) << "generated worlds have no c2p cycle";
        net::Rng rng{seed};
        expectAllBlockSizes(topo, order, rng,
                            "generated seed " + std::to_string(seed));
    }
}

TEST(ReachabilityPass, MatchesTheKernelOnCyclicHandBuiltGraphs) {
    net::Rng rng{4242};
    for (const std::size_t edgesPerAs : {1, 3}) {
        const topo::Topology topo = cyclicGraph(300, edgesPerAs, rng);
        const kernel::CustomerFirstOrder order{topo};
        EXPECT_FALSE(order.complete) << "the graph has a c2p cycle";
        expectAllBlockSizes(topo, order, rng,
                            "cyclic, " + std::to_string(edgesPerAs) +
                                " edges per AS");
    }
}

TEST(ReachabilityPass, OrderPutsEveryAsAfterItsCustomers) {
    auto config = topo::GeneratorConfig::defaults();
    config.seed = 29;
    const topo::Topology topo = topo::TopologyGenerator{config}.generate();
    const kernel::CustomerFirstOrder order{topo};
    ASSERT_EQ(order.ases.size(), topo.asCount());
    std::vector<std::size_t> position(topo.asCount(), topo.asCount());
    for (std::size_t i = 0; i < order.ases.size(); ++i) {
        ASSERT_LT(order.ases[i], topo.asCount());
        ASSERT_EQ(position[order.ases[i]], topo.asCount()) << "listed twice";
        position[order.ases[i]] = i;
    }
    for (topo::AsIndex as = 0; as < topo.asCount(); ++as) {
        for (const std::uint32_t customer : topo.customersOf(as)) {
            EXPECT_LT(position[customer], position[as]);
        }
    }

    // On a cycle every AS is still listed once.
    net::Rng rng{7};
    const topo::Topology cyclic = cyclicGraph(50, 2, rng);
    const kernel::CustomerFirstOrder partial{cyclic};
    EXPECT_FALSE(partial.complete);
    std::vector<std::uint32_t> sorted = partial.ases;
    std::ranges::sort(sorted);
    std::vector<std::uint32_t> every(cyclic.asCount());
    std::iota(every.begin(), every.end(), 0U);
    EXPECT_EQ(sorted, every);
}

TEST(ReachabilityPass, RefusesOversizedBlocksAndUnknownDestinations) {
    auto config = topo::GeneratorConfig::defaults();
    config.seed = 29;
    const topo::Topology topo = topo::TopologyGenerator{config}.generate();
    const std::size_t n = topo.asCount();
    const kernel::CustomerFirstOrder order{topo};
    const kernel::CompiledFilter compiled{LinkFilter{}, n};
    kernel::ReachScratch reach;
    reach.prepare(n);
    std::vector<topo::AsIndex> dsts(kernel::kReachBlock + 1);
    std::iota(dsts.begin(), dsts.end(), topo::AsIndex{0});
    EXPECT_THROW(kernel::reachDestinations(topo, compiled, order, dsts, reach),
                 net::PreconditionError);
    const std::vector<topo::AsIndex> unknown = {0, n};
    EXPECT_THROW(
        kernel::reachDestinations(topo, compiled, order, unknown, reach),
        net::PreconditionError);
    kernel::ReachScratch unprepared;
    EXPECT_THROW(kernel::reachDestinations(topo, compiled, order,
                                           std::span{dsts}.first(1),
                                           unprepared),
                 net::PreconditionError);
}

} // namespace
} // namespace aio::route
