#include "service/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "routing/oracle_cache.hpp"
#include "service_test_util.hpp"
#include "sweep/scenario_sweep.hpp"

// The snapshot's resident-byte meter, which the admission ladder's memory
// rung reads: every live oracle counts once, whether the cache holds it
// or only the analyzer does.
namespace aio::service {
namespace {

using testutil::tinySnapshot;

TEST(ServiceSnapshot, ResidentBytesCountEachLiveOracleOnce) {
    const auto snapshot = tinySnapshot(41);
    const core::Substrate& substrate = snapshot->substrate();
    const route::RouteOracle& baseline =
        *substrate.analyzer().baselineOracle();
    route::OracleCache& cache = snapshot->cache();

    // The analyzer fetched its baseline through the cache, so a fresh
    // snapshot holds exactly one oracle.
    ASSERT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(snapshot->residentBytes(), baseline.memoryBytes());

    // One swept cut caches one more oracle: [cut, baseline] in LRU order.
    const auto cut = testutil::cableCuts({"WACS"});
    (void)sweep::ScenarioSweepEngine{substrate}.run(cut);
    ASSERT_EQ(cache.stats().entries, 2u);

    // Metering is no lookup: it counts no hit or miss...
    const route::OracleCacheStats before = cache.stats();
    const std::uint64_t resident = snapshot->residentBytes();
    EXPECT_EQ(cache.stats().hits, before.hits);
    EXPECT_EQ(cache.stats().misses, before.misses);

    // ...and leaves the LRU order alone: shrinking to one entry evicts
    // the baseline at the tail, and the cut's oracle survives.
    cache.setByteBudget(1);
    ASSERT_EQ(cache.stats().entries, 1u);
    net::Rng rng = substrate.assessStream();
    const route::LinkFilter filter = substrate.analyzer().filterFor(
        cut.front().makeEvent(substrate.registry()).valueOrRaise(), rng);
    const auto entry = cache.peek(filter);
    ASSERT_NE(entry, nullptr);

    // The cut added exactly its entry's bytes; once evicted, the baseline
    // (still held by the analyzer) counts beside the cache instead.
    EXPECT_EQ(resident, baseline.memoryBytes() + entry->memoryBytes());
    EXPECT_EQ(snapshot->residentBytes(),
              baseline.memoryBytes() + entry->memoryBytes());
}

} // namespace
} // namespace aio::service
