#include "storm.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "netbase/error.hpp"

// The seeded overload storm: a fixed seed must reproduce the service's
// decision stream bit-for-bit (same admissions, sheds, cancellations,
// epochs, degradation flags — the report digest folds all of it), and
// the storm must actually exercise every rung of the degradation ladder
// it claims to cover.
namespace aio::service {
namespace {

StormConfig stressConfig() {
    StormConfig config;
    config.seed = 9001;
    config.steps = 120;
    config.tenants = 4;
    config.snapshotPool = 3;
    // Tight service: small queue, early shed, byte watermark the
    // pressure spikes can cross.
    config.service.admission.queueCapacity = 8;
    config.service.admission.shedQueueDepth = 5;
    config.service.admission.shedResidentBytes = 64ULL << 20;
    // Tight deadlines relative to the queue depth and slow-step stalls,
    // so deadline cancellations actually occur.
    config.requestDeadlineNanos = 6'000'000;
    config.faults.slowHandlerProb = 0.15;
    config.faults.topologySwapProb = 0.2;
    config.faults.invalidSwapProb = 0.3;
    config.faults.tenantFloodProb = 0.12;
    config.faults.floodBurst = 12;
    config.faults.allocPressureProb = 0.1;
    config.faults.allocPressureBytes = 256ULL << 20;
    return config;
}

std::uint64_t totalRejected(const StormReport& report) {
    return std::accumulate(
        report.rejectedByReason.begin(), report.rejectedByReason.end(),
        std::uint64_t{0},
        [](std::uint64_t sum, const auto& entry) {
            return sum + entry.second;
        });
}

TEST(StormDeterminism, SameSeedReproducesTheExactDecisionStream) {
    const StormConfig config = stressConfig();
    const StormReport first = runStorm(config);
    const StormReport second = runStorm(config);
    EXPECT_EQ(first, second);
    EXPECT_NE(first.decisionDigest, 0u);
}

TEST(StormDeterminism, DifferentSeedsDivergeInTheDigest) {
    StormConfig config = stressConfig();
    const StormReport base = runStorm(config);
    config.seed = 9002;
    const StormReport other = runStorm(config);
    EXPECT_NE(base.decisionDigest, other.decisionDigest);
}

TEST(StormDeterminism, StormExercisesTheWholeDegradationLadder) {
    const StormReport report = runStorm(stressConfig());

    // Conservation: every submitted request resolved exactly once.
    EXPECT_EQ(report.submitted,
              report.admitted + totalRejected(report));
    EXPECT_EQ(report.admitted,
              report.completed + report.cancelled + report.failed);
    EXPECT_GT(report.submitted, 120u); // floods outnumber the steps

    // The storm hit every rung it was configured to hit.
    EXPECT_GT(report.swaps, 0u);
    EXPECT_GT(report.failedSwaps, 0u);
    EXPECT_GT(report.degradedResponses, 0u); // stale-epoch serving
    EXPECT_GT(report.cancelled, 0u);         // slow steps blew deadlines
    EXPECT_GT(report.floodBursts, 0u);
    EXPECT_GT(report.pressureSpikes, 0u);
    EXPECT_GT(report.rejectedByReason.count("queue_full") +
                  report.rejectedByReason.count("overloaded"),
              0u); // floods drove the queue into the shed watermarks
    EXPECT_EQ(report.failed, 0u); // nothing crashed, everything typed

    // Retired epochs were reclaimed, not leaked: with step-mode pins
    // released per request, at most the current epoch stays live.
    EXPECT_EQ(report.epochsReclaimed, report.swaps);
}

TEST(StormDeterminism, ValidateRejectsBadStormKnobs) {
    const auto rejects = [](auto mutate) {
        StormConfig config;
        mutate(config);
        EXPECT_THROW(config.validate(), net::PreconditionError);
    };
    rejects([](auto& c) { c.steps = 0; });
    rejects([](auto& c) { c.tenants = 0; });
    rejects([](auto& c) { c.snapshotPool = 0; });
    rejects([](auto& c) { c.executePerStep = 0; });
    rejects([](auto& c) { c.queryProb = 1.5; });
    rejects([](auto& c) { c.sweepScenarios = 0; });
    rejects([](auto& c) { c.stepNanos = 0; });
    rejects([](auto& c) { c.faults.slowHandlerProb = -0.1; });
    EXPECT_NO_THROW(StormConfig{}.validate());
}

// The storm's per-step fault classes: every bad knob is refused by
// validate() and by runStorm() before the first step is drawn.
TEST(ServiceFaultInjector, ValidatesConfigAtConstruction) {
    const auto rejects = [](auto mutate) {
        StormConfig config;
        mutate(config.faults);
        EXPECT_THROW(config.validate(), net::PreconditionError);
        EXPECT_THROW((void)runStorm(config), net::PreconditionError);
    };
    using Faults = StormConfig::Faults;
    rejects([](Faults& f) { f.slowHandlerProb = -0.1; });
    rejects([](Faults& f) { f.topologySwapProb = 1.5; });
    rejects([](Faults& f) { f.invalidSwapProb = 2.0; });
    rejects([](Faults& f) { f.tenantFloodProb = -1.0; });
    rejects([](Faults& f) { f.allocPressureProb = 1.01; });
    rejects([](Faults& f) { f.slowFactor = 0.5; });
    rejects([](Faults& f) { f.floodBurst = 0; });
    EXPECT_NO_THROW(StormConfig{}.validate());
}

} // namespace
} // namespace aio::service
