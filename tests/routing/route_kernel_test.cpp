// The kernel's compiled filter and the sharded oracle's accounting of
// what it compiles, allocates and solves: filter entries naming ASes
// outside the topology must change no route under either storage policy
// (and, under the sanitizers, must never index the per-AS flag array);
// a never-queried sharded oracle holds no adjacency of its own; the
// single-row solve scratch must show in memoryBytes() exactly once the
// oracle has solved its first row; and solvedRows() must count each row
// once, however often eviction drops its bytes.

#include <gtest/gtest.h>

#include <string>

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

    // Link cuts plus out-of-range links; then the same with out-of-range
    // ASes too (which must still change nothing).
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
        expectSameRoutes(want, ShardedOracle{topo, *noisy},
                         label + " sharded");
    }

    // A filter holding nothing but out-of-range entries routes like no
    // filter at all.
    LinkFilter onlyNoise;
    addOutOfRange(onlyNoise, n);
    onlyNoise.disableAs(n + 3);
    const PathOracle intact{topo};
    expectSameRoutes(intact, PathOracle{topo, onlyNoise},
                     "only out-of-range entries");
    expectSameRoutes(intact, ShardedOracle{topo, onlyNoise},
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

    // Until its first row the oracle holds only its fixed overhead: the
    // compiled filter, 5 bytes per AS (wide rank, row state) and 4 per
    // wide source. No copy of the adjacency is held.
    const ShardedOracle oracle{topo, inRangeCuts(topo)};
    ASSERT_GE(oracle.config().shardDestinations, n) << "one shard";
    const std::size_t fixed = oracle.memoryBytes();
    const kernel::CompiledFilter compiled{inRangeCuts(topo), n};
    EXPECT_EQ(fixed, compiled.memoryBytes() + 5 * n +
                         4 * oracle.wideSourceCount());
    EXPECT_EQ(oracle.solvedRows(), 0U);
    EXPECT_EQ(oracle.residentShardCount(), 0U);

    // The first row brings in exactly the scratch and its shard.
    const std::size_t shardBytes = n * oracle.rowBytes();
    (void)oracle.nextHopOf(0, 1);
    EXPECT_EQ(oracle.solvedRows(), 1U);
    EXPECT_EQ(oracle.memoryBytes(), fixed + scratchBytes + shardBytes);

    // Every other row lands in that shard and reuses that scratch.
    for (topo::AsIndex dst = 0; dst < n; ++dst) {
        (void)oracle.routeClass(0, dst);
    }
    EXPECT_EQ(oracle.solvedRows(), n);
    EXPECT_EQ(oracle.memoryBytes(), fixed + scratchBytes + shardBytes);
}

TEST(ShardedOracleMemory, SolvedRowsCountEachRowOnce) {
    const topo::Topology topo = defaultWorld();
    const std::size_t n = topo.asCount();
    EXPECT_EQ(PathOracle(topo, inRangeCuts(topo)).solvedRows(), n);

    // Eight-row shards under a budget of four shards plus the scratch:
    // two full passes evict and re-solve rows, and still count each row
    // once.
    ShardedOracleConfig config;
    config.shardDestinations = 8;
    const ShardedOracle probe{topo, inRangeCuts(topo), config};
    config.residentByteBudget =
        probe.memoryBytes() + kernel::DestScratch::bytesFor(n) +
        n * (sizeof(std::int32_t) + sizeof(std::uint8_t)) +
        4 * 8 * probe.rowBytes();
    const ShardedOracle squeezed{topo, inRangeCuts(topo), config};
    for (int pass = 0; pass < 2; ++pass) {
        for (topo::AsIndex dst = 0; dst < n; ++dst) {
            (void)squeezed.nextHopOf(0, dst);
        }
    }
    EXPECT_GT(squeezed.shardEvictions(), 0U);
    EXPECT_EQ(squeezed.solvedRows(), n);
}

} // namespace
} // namespace aio::route
