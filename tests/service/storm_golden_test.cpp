#include "service/storm.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

// Recorded storm decision digests. The determinism suite checks that a
// storm replays itself, which a change moving every run in lockstep would
// still pass; these digests pin the absolute decision stream (admissions,
// sheds, cancellations, epochs, degradation flags). They were recorded
// from the reference service under the determinism suite's stress
// config, copied here so the recorded values own their inputs.
namespace aio::service {
namespace {

StormConfig stressConfig() {
    StormConfig config;
    config.steps = 120;
    config.tenants = 4;
    config.snapshotPool = 3;
    config.service.admission.queueCapacity = 8;
    config.service.admission.shedQueueDepth = 5;
    config.service.admission.shedResidentBytes = 64ULL << 20;
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

TEST(StormGolden, DecisionDigestsMatchTheRecordedValues) {
    const std::pair<std::uint64_t, std::uint64_t> golden[] = {
        {9001, 0x7ce3b75670ea96dcULL},
        {9002, 0x2bfc71b32d0e8446ULL},
        {4242, 0xcc56045a74217418ULL}};
    for (const auto& [seed, digest] : golden) {
        StormConfig config = stressConfig();
        config.seed = seed;
        const std::uint64_t got = runStorm(config).decisionDigest;
        EXPECT_EQ(got, digest) << "seed " << seed << ": 0x" << std::hex
                               << got;
    }
}

} // namespace
} // namespace aio::service
