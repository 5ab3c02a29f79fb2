// The one-scenario continental what-if at full scale, as a Release CI
// gate (AIO_LARGE_SMOKE=1; skipped otherwise). A 49 404-AS continent,
// routed under the sharded policy with the tuning of the 50k
// BM_ShardedSweepScenarios row (8-destination shards, a 2 GiB resident
// budget), sweeps the four-cable west-corridor cut on a 4-lane pool. A
// cacheless plain sweep scores the state destination-major and builds no
// scenario oracle, so the process stays under a peak-RSS ceiling that a
// second 2 GiB oracle beside the baseline would cross, and a cancel()
// mid-sweep raises net::CancelledError within one pool chunk or so.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/cancel.hpp"
#include "exec/worker_pool.hpp"
#include "netbase/error.hpp"
#include "sweep/scenario_sweep.hpp"
#include "topo/generator.hpp"

namespace aio::sweep {
namespace {

/// Linux VmHWM (peak resident set), in bytes; 0 when unavailable.
std::size_t peakRssBytes() {
    std::ifstream status{"/proc/self/status"};
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields{line.substr(6)};
            std::size_t kib = 0;
            fields >> kib;
            return kib * 1024;
        }
    }
    return 0;
}

TEST(ContinentWhatIf, FiftyKWestCorridorCutUnderRssCeilingAndCancels) {
    if (std::getenv("AIO_LARGE_SMOKE") == nullptr) {
        GTEST_SKIP() << "set AIO_LARGE_SMOKE=1 to run the 50k what-if";
    }
    using Clock = std::chrono::steady_clock;
    const topo::Topology topo =
        topo::TopologyGenerator{
            topo::GeneratorConfig::continental(50000, 20250704)}
            .generate();
    exec::WorkerPool pool{4};
    core::Substrate::Options options;
    options.pool = &pool;
    options.impact.routeStorage = route::StoragePolicy::Sharded;
    options.impact.shardedRouting.shardDestinations = 8;
    options.impact.shardedRouting.residentByteBudget = std::size_t{2} << 30;
    const core::Substrate substrate{
        topo, phys::CableRegistry::africanDefaults(),
        dns::DnsConfig::defaults(), content::ContentConfig::defaults(),
        options};

    std::vector<core::ScenarioSpec> specs(1);
    specs[0].name = "west-corridor";
    specs[0].cutCables = {"WACS", "MainOne", "SAT-3", "ACE"};
    const Clock::time_point sweepStart = Clock::now();
    const SweepResult result = ScenarioSweepEngine{substrate}.run(specs);
    const double sweepSeconds =
        std::chrono::duration<double>(Clock::now() - sweepStart).count();
    ASSERT_TRUE(result.scenarios[0].outcome.hasValue());
    EXPECT_FALSE(result.scenarios[0].outcome.value().impactedCountries()
                     .empty());
    EXPECT_EQ(result.stats.dirtyDestinations,
              substrate.analyzer().plannedDestinations());

    // The analyzer's sharded baseline fills up to its 2 GiB budget; a
    // scenario oracle filling a second one took the process to 4.23 GB.
    const std::size_t ceiling = std::size_t{3} << 30;
    const std::size_t peak = peakRssBytes();
    if (peak > 0) {
        EXPECT_LT(peak, ceiling) << "50k what-if peak RSS over its ceiling";
    }

    // One pool chunk here is ~500 rows per lane, a few tenths of a
    // second; cancellation is polled between chunks.
    exec::CancelToken token;
    const ScenarioSweepEngine cancellable{substrate,
                                          SweepOptions{.cancel = &token}};
    Clock::time_point firedAt;
    std::thread canceller{[&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
        firedAt = Clock::now();
        token.cancel();
    }};
    EXPECT_THROW((void)cancellable.run(specs), net::CancelledError);
    const Clock::time_point raisedAt = Clock::now();
    canceller.join();
    const double cancelSeconds =
        std::chrono::duration<double>(raisedAt - firedAt).count();
    EXPECT_LT(cancelSeconds, 2.0) << "cancel() took too long to surface";
    std::cout << "50k what-if: sweep " << sweepSeconds << " s, peak RSS "
              << static_cast<double>(peak) / (1 << 30) << " GiB, cancel "
              << cancelSeconds << " s\n";
}

} // namespace
} // namespace aio::sweep
