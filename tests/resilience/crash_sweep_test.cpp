#include "resilience/supervisor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "netbase/error.hpp"
#include "persist/record.hpp"
#include "routing/path_oracle.hpp"
#include "topo/generator.hpp"
#include "../persist/scan_records.hpp"

// The acceptance harness for crash-safe campaigns: a deterministic
// crash-injection sweep over every record boundary of a faulted,
// retrying, reassigning campaign journal. At every cut the resumed run
// must reproduce the uninterrupted CampaignResult exactly — same IXP
// sets, same counters, same degradation report.
namespace aio::resilience {
namespace {

struct World {
    topo::Topology topo;
    route::PathOracle oracle;
    measure::TracerouteEngine engine;
    measure::IxpDetector detector;

    World()
        : topo(topo::TopologyGenerator{topo::GeneratorConfig::defaults()}
                   .generate()),
          oracle(topo), engine(topo, oracle),
          detector(topo, measure::IxpKnowledgeBase::full(topo)) {}
};

World& world() {
    static World w;
    return w;
}

core::ProbeFleet sweepFleet() {
    auto& w = world();
    core::ProbeFleet fleet;
    int serial = 0;
    for (const char* iso2 : {"RW", "KE", "NG", "ZA"}) {
        const auto ases = w.topo.asesInCountry(iso2);
        for (int i = 0; i < 2 && i < static_cast<int>(ases.size()); ++i) {
            core::Probe probe;
            probe.id = "c-" + std::string{iso2} + std::to_string(++serial);
            probe.hostAs = ases[static_cast<std::size_t>(i)];
            probe.countryCode = iso2;
            probe.availability = 0.85;
            probe.monthlyBudgetUsd = 50.0;
            probe.pricing.kind = core::PricingModel::Kind::FlatPerMb;
            probe.pricing.perMbUsd = 0.01;
            fleet.add(probe);
        }
    }
    return fleet;
}

core::Observatory makeObservatory(core::ProbeFleet fleet) {
    auto& w = world();
    return core::Observatory{w.topo, w.engine, w.detector,
                             std::move(fleet)};
}

/// Everything one sweep seed needs: a faulted plan with a guaranteed
/// dead probe (so reassignment fires), a bounded task list, the
/// uninterrupted baseline result and its complete journal bytes.
/// Members are built in place and the case is pinned (the supervisor
/// holds a pointer into `obs`).
struct SweepCase {
    core::Observatory obs;
    CampaignSupervisor supervisor;
    FaultPlan plan;
    std::vector<core::CampaignTask> tasks;
    core::CampaignResult baseline;
    std::vector<std::byte> journal;
    std::vector<std::size_t> boundaries;

    SweepCase(const SweepCase&) = delete;
    SweepCase& operator=(const SweepCase&) = delete;

    explicit SweepCase(std::uint64_t seed)
        : obs(makeObservatory(sweepFleet())),
          supervisor(obs, sweepConfig()),
          plan(makePlan(obs, seed)),
          tasks(makeTasks(obs, seed)) {
        FaultInjector injector{obs.fleet(), plan, 1.0};
        net::Rng rng{seed + 2};
        persist::MemorySink sink;
        baseline = supervisor.runJournaled(tasks, injector, rng, sink);
        journal.assign(sink.bytes().begin(), sink.bytes().end());
        boundaries = persist::scanRecords(journal).boundaries;
    }

    static SupervisorConfig sweepConfig() {
        SupervisorConfig config;
        config.checkpointInterval = 5; // dense checkpoints for the sweep
        return config;
    }

    static FaultPlan makePlan(const core::Observatory& obs,
                              std::uint64_t seed) {
        FaultPlanConfig planCfg;
        planCfg.intensity = 1.5;
        net::Rng planRng{seed};
        auto plan = FaultPlan::generate(obs.fleet(), planCfg, planRng);
        // Probe 0 dies at campaign start: its tasks must reassign to the
        // same-country sibling, so the sweep always covers that path.
        plan.addWindow(0, {FaultClass::PermanentFailure, 0.0, kNeverEnds});
        // Probe 1 loses power for the first hour: its early tasks time
        // out and retry, so the sweep always covers the retry path too.
        plan.addWindow(1, {FaultClass::PowerLoss, 0.0, 1.0});
        return plan;
    }

    static std::vector<core::CampaignTask>
    makeTasks(const core::Observatory& obs, std::uint64_t seed) {
        net::Rng taskRng{seed + 1};
        auto tasks = obs.ixpDiscoveryTasks(taskRng);
        if (tasks.size() > 48) {
            tasks.resize(48); // bound the quadratic sweep
        }
        return tasks;
    }

    [[nodiscard]] core::CampaignResult
    resumeFrom(std::span<const std::byte> bytes,
               persist::ByteSink* continuation = nullptr) const {
        // A resume is a process restart: fresh injector, and an Rng whose
        // seed deliberately disagrees with the original — the journal
        // alone must carry the stream state.
        FaultInjector injector{obs.fleet(), plan, 1.0};
        net::Rng rng{0xDEAD};
        return supervisor.resumeFromJournal(bytes, tasks, injector, rng,
                                            continuation);
    }
};

class CrashSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrashSweep, EveryRecordBoundaryResumesByteIdentical) {
    const SweepCase c{GetParam()};
    // The sweep is only meaningful over a campaign that actually
    // exercised the degraded paths.
    ASSERT_GT(c.baseline.degradation.retries, 0);
    ASSERT_GT(c.baseline.degradation.reassigned, 0);
    ASSERT_GT(c.boundaries.size(), 10U);

    for (const std::size_t cut : c.boundaries) {
        const auto resumed =
            c.resumeFrom(std::span{c.journal}.first(cut));
        ASSERT_TRUE(resumed == c.baseline) << "clean cut at " << cut;
    }
}

TEST_P(CrashSweep, TornTailsMidRecordResumeByteIdentical) {
    const SweepCase c{GetParam()};
    // Cut strictly inside each record (boundary + 1 is always mid-record:
    // the frame header alone is 12 bytes): the torn tail is truncated and
    // the half-written settlement re-executes identically.
    for (std::size_t i = 0; i + 1 < c.boundaries.size(); ++i) {
        const std::size_t cut = c.boundaries[i] + 1;
        const auto resumed =
            c.resumeFrom(std::span{c.journal}.first(cut));
        ASSERT_TRUE(resumed == c.baseline) << "torn cut at " << cut;
    }
    // And the torn-from-byte-one case: not even the header survived.
    const auto fromOne = c.resumeFrom(std::span{c.journal}.first(1));
    // With no header the resume cannot recover the recorded Rng stream,
    // so equality is not guaranteed — but it must not throw, and it must
    // run the full plan.
    EXPECT_EQ(fromOne.degradation.tasksPlanned,
              static_cast<int>(c.tasks.size()));
}

TEST_P(CrashSweep, CrashingSinkLeavesExactlyTheJournalPrefix) {
    const SweepCase c{GetParam()};
    // Re-run the campaign through a sink that dies after N bytes, for a
    // few N across the journal: the surviving bytes must be the exact
    // prefix of the uninterrupted journal (records are appended in one
    // sink call, so a crash tears at most one record), and resuming from
    // them must land on the baseline.
    const std::size_t last = c.boundaries.size() - 1;
    for (const std::size_t budget :
         {c.boundaries[1], c.boundaries[last / 2] + 7,
          c.boundaries[last] - 3}) {
        persist::MemorySink inner;
        persist::CrashingSink dying{inner, budget};
        FaultInjector injector{c.obs.fleet(), c.plan, 1.0};
        net::Rng rng{GetParam() + 2}; // the original campaign seed
        EXPECT_THROW((void)c.supervisor.runJournaled(c.tasks, injector,
                                                     rng, dying),
                     persist::SinkFailure);
        ASSERT_EQ(inner.size(), budget);
        const auto expect = std::span{c.journal}.first(budget);
        EXPECT_TRUE(std::ranges::equal(inner.bytes(), expect));

        const auto resumed = c.resumeFrom(inner.bytes());
        EXPECT_TRUE(resumed == c.baseline) << "sink died at " << budget;
    }
}

TEST_P(CrashSweep, CrashBetweenWriteAndFlushResumesFromDurableBytes) {
    const SweepCase c{GetParam()};
    // Exact-boundary budgets hit CrashingSink's write/flush seam: the
    // last record's append lands in the OS-cache model, then the flush
    // throws — written but never durable. What a real crash leaves is
    // the *flushed* prefix, one record short of what the process wrote,
    // and resume must reach the baseline from exactly that.
    const std::size_t last = c.boundaries.size() - 1;
    for (const std::size_t idx : {std::size_t{1}, last / 2, last}) {
        const std::size_t budget = c.boundaries[idx];
        persist::BufferingSink buffered;
        persist::CrashingSink dying{buffered, budget};
        FaultInjector injector{c.obs.fleet(), c.plan, 1.0};
        net::Rng rng{GetParam() + 2}; // the original campaign seed
        EXPECT_THROW((void)c.supervisor.runJournaled(c.tasks, injector,
                                                     rng, dying),
                     persist::SinkFailure);

        // The unflushed tail is exactly the last written record.
        EXPECT_EQ(buffered.pendingBytes(),
                  c.boundaries[idx] - c.boundaries[idx - 1]);
        const auto durable = buffered.durable();
        ASSERT_EQ(durable.size(), c.boundaries[idx - 1]);
        EXPECT_TRUE(std::ranges::equal(
            durable, std::span{c.journal}.first(durable.size())));

        const auto resumed = c.resumeFrom(durable);
        EXPECT_TRUE(resumed == c.baseline)
            << "flush crash at record " << idx;
    }
}

TEST_P(CrashSweep, DoubleCrashResumesThroughContinuationJournal) {
    const SweepCase c{GetParam()};
    const std::size_t firstCut = c.boundaries[c.boundaries.size() / 3];
    const auto firstJournal = std::span{c.journal}.first(firstCut);

    // Dry run to learn the continuation journal's record layout: record
    // 0 is the header, record 1 the anchor checkpoint.
    persist::MemorySink whole;
    (void)c.resumeFrom(firstJournal, &whole);
    const auto contBoundaries =
        persist::scanRecords(whole.bytes()).boundaries;
    ASSERT_GT(contBoundaries.size(), 3U);

    // Crash 1: resume from a mid-campaign prefix, journaling the
    // remainder into a sink that dies a few records past the anchor.
    const std::size_t contBudget = contBoundaries[3] + 7;
    persist::MemorySink inner;
    persist::CrashingSink dying{inner, contBudget};
    EXPECT_THROW((void)c.resumeFrom(firstJournal, &dying),
                 persist::SinkFailure);
    ASSERT_EQ(inner.size(), contBudget);

    // Crash 2: resume again, now from the continuation journal — its
    // header re-anchors the cursor at the first crash's restore point.
    const auto resumed = c.resumeFrom(inner.bytes());
    EXPECT_TRUE(resumed == c.baseline);
}

TEST_P(CrashSweep, ContinuationThatLostItsAnchorCheckpointIsRefused) {
    const SweepCase c{GetParam()};
    const std::size_t firstCut = c.boundaries[c.boundaries.size() / 3];
    const auto firstJournal = std::span{c.journal}.first(firstCut);

    persist::MemorySink whole;
    (void)c.resumeFrom(firstJournal, &whole);
    const auto contBoundaries =
        persist::scanRecords(whole.bytes()).boundaries;

    // The continuation sink dies inside the anchor checkpoint record:
    // what survives is a header whose Rng state is mid-campaign, with no
    // checkpoint to rebuild the queue from. Replaying it "fresh" would
    // silently produce a wrong result, so resume must refuse it...
    const std::size_t contBudget = contBoundaries[0] + 20;
    persist::MemorySink inner;
    persist::CrashingSink dying{inner, contBudget};
    EXPECT_THROW((void)c.resumeFrom(firstJournal, &dying),
                 persist::SinkFailure);
    EXPECT_THROW((void)c.resumeFrom(inner.bytes()),
                 net::PreconditionError);

    // ...and recovery falls back to the previous journal in the chain,
    // which still resumes to the exact baseline.
    const auto recovered = c.resumeFrom(firstJournal);
    EXPECT_TRUE(recovered == c.baseline);
}

TEST_P(CrashSweep, ContinuationOfACompleteResumeIsAlsoReplayable) {
    const SweepCase c{GetParam()};
    const std::size_t cut = c.boundaries[c.boundaries.size() / 2];

    // Resume with a healthy continuation sink: the continuation journal
    // must itself resume to the same result (idempotent re-resume).
    persist::MemorySink continuation;
    const auto once =
        c.resumeFrom(std::span{c.journal}.first(cut), &continuation);
    EXPECT_TRUE(once == c.baseline);
    const auto again = c.resumeFrom(continuation.bytes());
    EXPECT_TRUE(again == c.baseline);
}

TEST_P(CrashSweep, MidStreamBitFlipRefusesToResume) {
    const SweepCase c{GetParam()};
    std::vector<std::byte> damaged = c.journal;
    // Flip a bit inside the third record's payload: resume must refuse
    // rather than continue from silently wrong state.
    const std::size_t at = c.boundaries[2] + 13;
    damaged[at] ^= std::byte{0x04};
    EXPECT_THROW((void)c.resumeFrom(damaged), net::CorruptionError);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashSweep,
                         ::testing::Values(101, 202, 303));

} // namespace
} // namespace aio::resilience
