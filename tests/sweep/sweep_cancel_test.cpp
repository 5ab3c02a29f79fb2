// Cancellation/deadline propagation through the batched sweep: a fired
// token makes run() raise net::CancelledError (never a half-filled
// SweepResult), a quiet token leaves every outcome byte-identical to an
// untokened run, and cancellation mid-flight still drains the pool so
// the engine stays usable. This is the path the observatory service
// routes request deadlines through.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/cancel.hpp"
#include "exec/worker_pool.hpp"
#include "netbase/error.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "sweep/scenario_sweep.hpp"
#include "topo/generator.hpp"

namespace aio::sweep {
namespace {

topo::GeneratorConfig tinyConfig(std::uint64_t seed) {
    auto config = topo::GeneratorConfig::defaults();
    config.seed = seed;
    for (auto& profile : config.africa) {
        profile.asPerMillionPeople *= 0.4;
        profile.minAsesPerCountry = 1;
        profile.ixpCount = std::max(1, profile.ixpCount / 2);
    }
    config.europe.accessPerCountry = 2;
    config.northAmerica.accessPerCountry = 2;
    config.southAmerica.accessPerCountry = 2;
    config.asiaPacific.accessPerCountry = 2;
    return config;
}

std::vector<core::ScenarioSpec> smallBatch() {
    std::vector<core::ScenarioSpec> specs;
    for (const char* cable : {"WACS", "SEACOM", "ACE", "EASSy"}) {
        core::ScenarioSpec spec;
        spec.name = std::string{"cut-"} + cable;
        spec.cutCables = {cable};
        spec.repairDays = {14.0};
        specs.push_back(std::move(spec));
    }
    return specs;
}

/// Advances one nanosecond on every read, so a deadline counts the
/// token's polls.
class SteppingClock final : public obs::Clock {
public:
    [[nodiscard]] std::uint64_t nowNanos() const override {
        return reads_.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    [[nodiscard]] std::uint64_t reads() const {
        return reads_.load(std::memory_order_relaxed);
    }

private:
    mutable std::atomic<std::uint64_t> reads_{0};
};

TEST(SweepCancel, PreCancelledTokenRaisesBeforeAnyWork) {
    const topo::Topology topo =
        topo::TopologyGenerator{tinyConfig(5)}.generate();
    const core::Substrate substrate{
        topo, phys::CableRegistry::africanDefaults(),
        dns::DnsConfig::defaults(), content::ContentConfig::defaults()};
    exec::CancelToken token;
    token.cancel();
    const ScenarioSweepEngine engine{substrate,
                                     SweepOptions{.cancel = &token}};
    EXPECT_THROW((void)engine.run(smallBatch()), net::CancelledError);
}

TEST(SweepCancel, ExpiredDeadlineRaisesTypedError) {
    const topo::Topology topo =
        topo::TopologyGenerator{tinyConfig(5)}.generate();
    const core::Substrate substrate{
        topo, phys::CableRegistry::africanDefaults(),
        dns::DnsConfig::defaults(), content::ContentConfig::defaults()};
    obs::ManualClock clock;
    const exec::CancelToken deadline{&clock, clock.nowNanos() + 1000};
    clock.advance(2000); // already past due when the batch starts
    const ScenarioSweepEngine engine{substrate,
                                     SweepOptions{.cancel = &deadline}};
    EXPECT_THROW((void)engine.run(smallBatch()), net::CancelledError);
}

TEST(SweepCancel, QuietTokenLeavesOutcomesIdentical) {
    const topo::Topology topo =
        topo::TopologyGenerator{tinyConfig(7)}.generate();
    const auto specs = smallBatch();
    for (const int threads : {0, 4}) {
        exec::WorkerPool pool{std::max(threads, 1)};
        core::Substrate::Options options;
        if (threads > 0) {
            options.pool = &pool;
        }
        const core::Substrate substrate{
            topo, phys::CableRegistry::africanDefaults(),
            dns::DnsConfig::defaults(),
            content::ContentConfig::defaults(), options};

        const ScenarioSweepEngine plain{substrate};
        const SweepResult expected = plain.run(specs);

        obs::ManualClock clock;
        exec::CancelToken token{&clock, clock.nowNanos() + 1};
        const ScenarioSweepEngine tokened{
            substrate, SweepOptions{.cancel = &token}};
        const SweepResult got = tokened.run(specs);

        ASSERT_EQ(got.scenarios.size(), expected.scenarios.size());
        for (std::size_t i = 0; i < expected.scenarios.size(); ++i) {
            ASSERT_TRUE(got.scenarios[i].outcome.hasValue());
            EXPECT_TRUE(got.scenarios[i].outcome.value() ==
                        expected.scenarios[i].outcome.value())
                << "threads=" << threads << " scenario " << i;
        }

        // The token fires between batches: the next run is refused, the
        // engine and its pool stay usable afterwards.
        token.cancel();
        EXPECT_THROW((void)tokened.run(specs), net::CancelledError);
        const SweepResult after = plain.run(specs);
        ASSERT_EQ(after.scenarios.size(), expected.scenarios.size());
        EXPECT_TRUE(after.scenarios[0].outcome.value() ==
                    expected.scenarios[0].outcome.value());
    }
}

TEST(SweepCancel, DeadlineInsideTheDestinationLoopRaisesTypedError) {
    // A one-state batch without a pool polls its token once per phase
    // boundary and once per destination row. A quiet run counts the
    // polls; a deadline half the rows before the end then falls inside
    // the row loop, whatever the split of the few phase polls between
    // before and after it.
    const topo::Topology topo =
        topo::TopologyGenerator{tinyConfig(5)}.generate();
    obs::ManualClock metricsClock;
    obs::MetricsRegistry metrics{&metricsClock};
    core::Substrate::Options options;
    options.metrics = &metrics;
    const core::Substrate substrate{
        topo, phys::CableRegistry::africanDefaults(),
        dns::DnsConfig::defaults(), content::ContentConfig::defaults(),
        options};
    std::vector<core::ScenarioSpec> specs(1);
    specs[0].name = "west-corridor";
    specs[0].cutCables = {"WACS", "MainOne", "SAT-3", "ACE"};
    const std::uint64_t rows = substrate.analyzer().plannedDestinations();

    SteppingClock quietClock;
    const exec::CancelToken quiet{&quietClock, exec::kNoDeadlineNanos - 1};
    const SweepResult expected =
        ScenarioSweepEngine{substrate, SweepOptions{.cancel = &quiet}}.run(
            specs);
    ASSERT_TRUE(expected.scenarios[0].outcome.hasValue());
    const std::uint64_t total = quietClock.reads();
    ASSERT_GE(total, rows);
    ASSERT_LE(total - rows, rows / 2) << "phase polls should be a handful";
    EXPECT_EQ(metrics.histogram("sweep.build_seconds").snapshot().count, 0U)
        << "a cacheless plain sweep builds no oracle";
    const auto scored =
        metrics.histogram("sweep.scenario_seconds").snapshot().count;

    SteppingClock clock;
    const std::uint64_t deadlineRead = total - rows / 2;
    const exec::CancelToken deadline{&clock, deadlineRead};
    const ScenarioSweepEngine engine{substrate,
                                     SweepOptions{.cancel = &deadline}};
    EXPECT_THROW((void)engine.run(specs), net::CancelledError);
    EXPECT_EQ(clock.reads(), deadlineRead)
        << "the expiring poll raised; nothing polled after it";
    EXPECT_EQ(metrics.histogram("sweep.scenario_seconds").snapshot().count,
              scored)
        << "no scenario scored after the deadline";
}

} // namespace
} // namespace aio::sweep
