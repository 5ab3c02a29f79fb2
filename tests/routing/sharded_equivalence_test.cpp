// Differential harness for the destination-sharded compressed routing
// substrate: across a seed x topology-size x failure-filter grid, the
// ShardedOracle's full next-hop/class matrices — streamed through the
// query surface as CRCs, every byte, not spot checks — must equal the
// dense PathOracle reference. Covers cold (lazily solved) and warm reads,
// forced shard eviction, forced wide-row fallback, and the typed capacity
// errors both policies throw instead of bad_alloc.

#include <gtest/gtest.h>

#include <vector>

#include "exec/worker_pool.hpp"
#include "netbase/error.hpp"
#include "netbase/rng.hpp"
#include "routing/oracle_cache.hpp"
#include "routing/path_oracle.hpp"
#include "routing/sharded_oracle.hpp"
#include "topo/generator.hpp"

namespace aio::route {
namespace {

topo::GeneratorConfig sizedConfig(std::uint64_t seed, bool small) {
    auto config = topo::GeneratorConfig::defaults();
    config.seed = seed;
    if (small) {
        for (auto& profile : config.africa) {
            profile.asPerMillionPeople *= 0.4;
            profile.minAsesPerCountry = 1;
            profile.ixpCount = std::max(1, profile.ixpCount / 2);
        }
        config.europe.accessPerCountry = 2;
        config.northAmerica.accessPerCountry = 2;
        config.southAmerica.accessPerCountry = 2;
        config.asiaPacific.accessPerCountry = 2;
    }
    return config;
}

/// The failure grid: intact, random link cuts, mixed link + AS outage.
std::vector<LinkFilter> failureGrid(const topo::Topology& topo,
                                    std::uint64_t seed) {
    std::vector<LinkFilter> grid;
    grid.emplace_back();

    net::Rng rng{seed * 1000003 + 17};
    LinkFilter cuts;
    for (const auto& link : topo.links()) {
        if (rng.bernoulli(0.05)) {
            cuts.disableLink(link.a, link.b);
        }
    }
    grid.push_back(std::move(cuts));

    LinkFilter mixed;
    for (const auto& link : topo.links()) {
        if (rng.bernoulli(0.02)) {
            mixed.disableLink(link.a, link.b);
        }
    }
    for (int i = 0; i < 12; ++i) {
        mixed.disableAs(rng.uniformInt(topo.asCount()));
    }
    grid.push_back(std::move(mixed));
    return grid;
}

void expectDigestEqual(const RouteMatrixDigest& want,
                       const RouteOracle& candidate,
                       const std::string& label) {
    const RouteMatrixDigest got = routeMatrixDigest(candidate);
    EXPECT_EQ(want.nextHop, got.nextHop)
        << "next-hop matrix mismatch: " << label;
    EXPECT_EQ(want.routeClass, got.routeClass)
        << "route-class matrix mismatch: " << label;
}

void runGridPoint(std::uint64_t seed, bool small) {
    const topo::Topology topo =
        topo::TopologyGenerator{sizedConfig(seed, small)}.generate();

    int filterIdx = 0;
    for (const LinkFilter& filter : failureGrid(topo, seed)) {
        const std::string label =
            "seed=" + std::to_string(seed) + (small ? " small" : " default") +
            " filter=" + std::to_string(filterIdx++);
        const PathOracle dense{topo, filter};
        const RouteMatrixDigest want = routeMatrixDigest(dense);

        // Cold: the digest pass itself materializes rows lazily.
        const ShardedOracle cold{topo, filter};
        expectDigestEqual(want, cold, label + " lazy");
        // Warm: a second full pass over the now-resident rows.
        expectDigestEqual(want, cold, label + " warm");
    }
}

TEST(ShardedEquivalence, SmallTopologyGrid) {
    for (const std::uint64_t seed : {3ULL, 11ULL}) {
        runGridPoint(seed, /*small=*/true);
    }
}

TEST(ShardedEquivalence, DefaultTopologyGrid) {
    runGridPoint(20250704, /*small=*/false);
}

TEST(ShardedEquivalence, EvictionIsInvisibleToQueries) {
    const topo::Topology topo =
        topo::TopologyGenerator{sizedConfig(5, true)}.generate();
    const auto filters = failureGrid(topo, 5);
    const PathOracle dense{topo, filters[1]};
    const RouteMatrixDigest want = routeMatrixDigest(dense);

    // Tiny shards + a budget that fits only a handful of them: the full
    // digest pass must thrash the LRU and still read identical bytes.
    ShardedOracleConfig config;
    config.shardDestinations = 8;
    const ShardedOracle probe{topo, filters[1], config};
    config.residentByteBudget =
        probe.memoryBytes() + 4 * probe.config().shardDestinations *
                                  probe.rowBytes();
    const ShardedOracle squeezed{topo, filters[1], config};
    expectDigestEqual(want, squeezed, "evicting pass 1");
    expectDigestEqual(want, squeezed, "evicting pass 2");
    EXPECT_GT(squeezed.shardEvictions(), 0U)
        << "budget was meant to force eviction";
    EXPECT_LT(squeezed.residentShardCount(), squeezed.shardCount());
}

TEST(ShardedEquivalence, WideRowFallbackKeepsBytes) {
    const topo::Topology topo =
        topo::TopologyGenerator{sizedConfig(7, true)}.generate();
    const auto filters = failureGrid(topo, 7);
    const PathOracle dense{topo, filters[1]};
    const RouteMatrixDigest want = routeMatrixDigest(dense);

    // Force hub fallback at absurdly low degree: many sources store
    // int32 wide columns instead of uint16 slots. Same bytes out.
    ShardedOracleConfig config;
    config.narrowSlotLimit = 4;
    const ShardedOracle wide{topo, filters[1], config};
    EXPECT_GT(wide.wideSourceCount(), 0U)
        << "narrowSlotLimit=4 was meant to widen hub sources";
    expectDigestEqual(want, wide, "wide fallback");

    // And the all-wide extreme: every source takes the fallback path.
    config.narrowSlotLimit = 0;
    const ShardedOracle allWide{topo, filters[1], config};
    EXPECT_EQ(allWide.wideSourceCount(), topo.asCount());
    expectDigestEqual(want, allWide, "all-wide");
}

TEST(ShardedEquivalence, CacheColdAndWarmShardedLookups) {
    const topo::Topology topo =
        topo::TopologyGenerator{sizedConfig(17, true)}.generate();
    OracleCacheConfig cacheConfig;
    cacheConfig.policy = StoragePolicy::Sharded;
    OracleCache cache{topo, 8, nullptr, nullptr, cacheConfig};

    for (const LinkFilter& filter : failureGrid(topo, 17)) {
        const PathOracle dense{topo, filter};
        const RouteMatrixDigest want = routeMatrixDigest(dense);
        const auto cold = cache.get(filter);
        EXPECT_EQ(cold->storagePolicy(), StoragePolicy::Sharded);
        expectDigestEqual(want, *cold, "cache cold");
        const auto warm = cache.get(filter);
        EXPECT_EQ(cold.get(), warm.get());
        expectDigestEqual(want, *warm, "cache warm");
    }
}

TEST(ShardedEquivalence, DenseCeilingThrowsTypedCapacityError) {
    const topo::Topology topo =
        topo::TopologyGenerator{sizedConfig(3, true)}.generate();
    // 5 bytes per AS pair: a one-kilobyte ceiling cannot hold any real
    // topology, and the failure must be the typed pre-allocation error.
    EXPECT_THROW((PathOracle{topo, LinkFilter{}, std::size_t{1024}}),
                 net::CapacityError);
    exec::WorkerPool pool{2};
    EXPECT_THROW((PathOracle{topo, LinkFilter{}, pool, std::size_t{1024}}),
                 net::CapacityError);
}

TEST(ShardedEquivalence, ShardedBudgetBelowOneShardThrows) {
    const topo::Topology topo =
        topo::TopologyGenerator{sizedConfig(3, true)}.generate();
    ShardedOracleConfig config;
    config.residentByteBudget = 1024; // below fixed overhead + one shard
    EXPECT_THROW((ShardedOracle{topo, LinkFilter{}, config}),
                 net::CapacityError);
}

TEST(ShardedEquivalence, WalkAndPathAgreeWithDense) {
    // The shared walk/path/pathLength surface over both storages.
    const topo::Topology topo =
        topo::TopologyGenerator{sizedConfig(19, true)}.generate();
    const auto filters = failureGrid(topo, 19);
    const PathOracle dense{topo, filters[1]};
    const ShardedOracle sharded{topo, filters[1]};
    const std::size_t n = topo.asCount();
    for (topo::AsIndex src = 0; src < n; src += 7) {
        for (topo::AsIndex dst = 0; dst < n; dst += 11) {
            EXPECT_EQ(dense.pathLength(src, dst),
                      sharded.pathLength(src, dst));
            EXPECT_EQ(dense.path(src, dst), sharded.path(src, dst));
        }
    }
}

} // namespace
} // namespace aio::route
