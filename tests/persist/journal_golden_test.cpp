#include <gtest/gtest.h>

#include <cstdint>
#include <ios>

#include "persist/bytes.hpp"
#include "persist/journal.hpp"

// Recorded bytes of a campaign journal: a header, outcome records of
// every kind and two full checkpoints, pinned as a size plus an fnv1a64
// digest. Any change to the journal codec, the record framing or the
// checksum fails here even when replay would still round-trip.
namespace aio::persist {
namespace {

CampaignCheckpoint checkpointAt(std::uint64_t outcomesApplied) {
    CampaignCheckpoint cp;
    cp.outcomesApplied = outcomesApplied;
    cp.nextSeq = outcomesApplied + 40;
    cp.rngState = {0x9E3779B97F4A7C15ULL, 2, 3, outcomesApplied};
    cp.result.ixpsDetected = {2, 11, 30};
    cp.result.asesObserved = {1, 2, 3, 99, 1000 + outcomesApplied};
    cp.result.tracesLaunched = 17 + outcomesApplied;
    cp.result.tracesCompleted = 15;
    cp.result.degradation.tasksPlanned = 40;
    cp.result.degradation.attempts = 21;
    cp.result.degradation.retries = 4;
    cp.result.degradation.reassigned = 2;
    cp.result.degradation.abandoned = 1;
    cp.result.degradation.completed = 15;
    cp.result.degradation.transientTimeouts = 5;
    cp.result.degradation.completionRatio = 0.375;
    cp.result.degradation.lossByFaultClass = {{"power loss", 1},
                                              {"transit", 3}};
    cp.assignments = {{0, 100}, {1, 101}, {2, 102}, {7, 4242}};
    cp.pending = {{1.5, 9, 3, 1, 0}, {2.25, 10, 7, 0, 1}};
    cp.meters = {{1.2, 0.0, false}, {3.4, 0.5, true}, {0.1, 7.25, false}};
    return cp;
}

TEST(DurableBytesGolden, CampaignJournal) {
    MemorySink sink;
    CampaignJournal journal{sink};
    CampaignHeader header;
    header.planDigest = 0x1122334455667788ULL;
    header.configDigest = 0x99AABBCCDDEEFF00ULL;
    header.initialRngState = {1, 2, 3, 4};
    header.taskCount = 40;
    header.probeCount = 8;
    header.checkpointInterval = 3;
    journal.writeHeader(header);
    for (std::uint64_t i = 0; i < 6; ++i) {
        TaskOutcomeRecord outcome;
        outcome.taskIdx = i * 5;
        outcome.kind = static_cast<TaskOutcomeKind>(i % 4);
        outcome.faultClass =
            outcome.kind == TaskOutcomeKind::Completed
                ? kNoFaultClass
                : static_cast<std::uint8_t>(i);
        outcome.clockHour = 0.25 * static_cast<double>(i) + 1.0 / 3.0;
        journal.appendOutcome(outcome);
        if ((i + 1) % 3 == 0) {
            journal.appendCheckpoint(checkpointAt(i + 1));
        }
    }

    const auto bytes = sink.bytes();
    EXPECT_EQ(bytes.size(), 1161U);
    EXPECT_EQ(fnv1a64(bytes), 0x39779f343a4e191cULL)
        << std::hex << "0x" << fnv1a64(bytes);
}

} // namespace
} // namespace aio::persist
