// The kernel's compiled filter and the sharded oracle's accounting of
// what it compiles and allocates: filter entries naming ASes outside the
// topology must change no route under either storage policy (and, under
// the sanitizers, must never index the per-AS flag array), and the
// single-row solve scratch must show in memoryBytes() exactly when an
// oracle has solved a row itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "exec/worker_pool.hpp"
#include "routing/path_oracle.hpp"
#include "routing/route_kernel.hpp"
#include "routing/sharded_oracle.hpp"
#include "topo/generator.hpp"

namespace aio::route {
namespace {

topo::Topology defaultWorld() {
    auto config = topo::GeneratorConfig::defaults();
    config.seed = 29;
    return topo::TopologyGenerator{config}.generate();
}

/// Every third link of the topology, cut.
LinkFilter inRangeCuts(const topo::Topology& topo) {
    LinkFilter filter;
    for (std::size_t i = 0; i < topo.links().size(); i += 3) {
        filter.disableLink(topo.links()[i].a, topo.links()[i].b);
    }
    return filter;
}

/// Links and ASes no topology adjacency can name: one endpoint past the
/// last AS, both endpoints past it, and ASes at and far past asCount.
void addOutOfRange(LinkFilter& filter, std::size_t n) {
    filter.disableLink(0, n);
    filter.disableLink(n + 7, 3);
    filter.disableLink(n + 1, n + 2);
    filter.disableLink(n - 1, std::size_t{1} << 31);
}

void expectSameRoutes(const RouteOracle& want, const RouteOracle& got,
                      const std::string& label) {
    EXPECT_EQ(routeMatrixDigest(want), routeMatrixDigest(got)) << label;
}

TEST(CompiledFilter, OutOfRangeEntriesChangeNoRoute) {
    const topo::Topology topo = defaultWorld();
    const std::size_t n = topo.asCount();
    exec::WorkerPool pool{2};
    const auto denseBase = std::make_shared<const PathOracle>(topo);
    const auto shardedBase = std::make_shared<const ShardedOracle>(topo);

    // Link cuts plus out-of-range links; then the same with out-of-range
    // ASes too (which forces every derived row dirty, and must still
    // change nothing).
    const LinkFilter clean = inRangeCuts(topo);
    LinkFilter links = clean;
    addOutOfRange(links, n);
    LinkFilter ases = links;
    ases.disableAs(n);
    ases.disableAs(n + 1000);

    const PathOracle want{topo, clean};
    for (const LinkFilter* noisy : {&links, &ases}) {
        const std::string label =
            noisy == &links ? "out-of-range links" : "+ out-of-range ASes";
        expectSameRoutes(want, PathOracle{topo, *noisy}, label + " dense");
        expectSameRoutes(want, PathOracle{topo, *noisy, pool},
                         label + " dense pool");
        expectSameRoutes(want, *denseBase->deriveFiltered(*noisy, &pool),
                         label + " dense derived");
        expectSameRoutes(want, ShardedOracle{topo, *noisy},
                         label + " sharded");
        expectSameRoutes(want, *shardedBase->deriveFiltered(*noisy),
                         label + " sharded derived");
    }

    // A filter holding nothing but out-of-range entries routes like no
    // filter at all.
    LinkFilter onlyNoise;
    addOutOfRange(onlyNoise, n);
    onlyNoise.disableAs(n + 3);
    expectSameRoutes(*denseBase, PathOracle{topo, onlyNoise},
                     "only out-of-range entries");
    expectSameRoutes(*denseBase, ShardedOracle{topo, onlyNoise},
                     "only out-of-range entries, sharded");
}

TEST(CompiledFilter, AnswersLikeTheFilterItCompiles) {
    const topo::Topology topo = defaultWorld();
    const std::size_t n = topo.asCount();
    LinkFilter filter = inRangeCuts(topo);
    filter.disableAs(5);
    filter.disableAs(n - 1);
    addOutOfRange(filter, n);
    const kernel::CompiledFilter compiled{filter, n};
    ASSERT_EQ(compiled.asCount(), n);
    for (topo::AsIndex as = 0; as < n; ++as) {
        EXPECT_EQ(compiled.asAllowed(as), filter.asAllowed(as)) << as;
    }
    for (const topo::AsLink& link : topo.links()) {
        EXPECT_EQ(compiled.linkAllowed(link.a, link.b),
                  filter.linkAllowed(link.a, link.b));
        EXPECT_EQ(compiled.linkAllowed(link.b, link.a),
                  filter.linkAllowed(link.a, link.b));
    }
}

TEST(ShardedOracleMemory, SolveScratchIsCountedOnlyOnceARowIsSolved) {
    const topo::Topology topo = defaultWorld();
    const std::size_t n = topo.asCount();
    const std::size_t scratchBytes =
        kernel::DestScratch::bytesFor(n) +
        n * (sizeof(std::int32_t) + sizeof(std::uint8_t));

    // One cut that some destinations route across (dirty) and the rest
    // do not (clean), per the dense oracle's exact dirty set.
    const PathOracle dense{topo};
    LinkFilter cut;
    std::vector<topo::AsIndex> dirty;
    for (const topo::AsLink& link : topo.links()) {
        LinkFilter one;
        one.disableLink(link.a, link.b);
        dirty = dense.dirtyDestinations(one);
        if (!dirty.empty() && dirty.size() < n) {
            cut = one;
            break;
        }
    }
    ASSERT_FALSE(cut.empty());
    topo::AsIndex cleanDst = 0;
    while (std::ranges::binary_search(dirty, cleanDst)) {
        ++cleanDst;
    }

    const auto base = std::make_shared<const ShardedOracle>(topo);
    const std::size_t baseFixed = base->memoryBytes();
    const auto derived = base->deriveFiltered(cut);
    const std::size_t fixed = derived->memoryBytes();

    // Clean rows delegate to the baseline: the derived oracle solves
    // nothing, so it holds no scratch and no shard — while the baseline,
    // which solved the row, now counts its scratch and one shard.
    for (topo::AsIndex src = 0; src < n; ++src) {
        (void)derived->nextHopOf(src, cleanDst);
    }
    EXPECT_EQ(derived->resolvedDirtyDestinations(), 0U);
    EXPECT_EQ(derived->memoryBytes(), fixed);
    const std::size_t shardBytes = n * base->rowBytes(); // one shard
    EXPECT_EQ(base->memoryBytes(), baseFixed + scratchBytes + shardBytes);

    // A dirty row re-solves locally: scratch and its shard appear.
    (void)derived->nextHopOf(0, dirty.front());
    EXPECT_EQ(derived->resolvedDirtyDestinations(), 1U);
    EXPECT_EQ(derived->memoryBytes(), fixed + scratchBytes + shardBytes);
}

} // namespace
} // namespace aio::route
