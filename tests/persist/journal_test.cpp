#include "persist/journal.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "netbase/error.hpp"
#include "scan_records.hpp"

namespace aio::persist {
namespace {

CampaignHeader sampleHeader() {
    CampaignHeader header;
    header.planDigest = 0x1122334455667788ULL;
    header.configDigest = 0x99AABBCCDDEEFF00ULL;
    header.initialRngState = {1, 2, 3, 4};
    header.taskCount = 40;
    header.probeCount = 8;
    header.checkpointInterval = 4;
    return header;
}

TaskOutcomeRecord sampleOutcome(std::uint64_t taskIdx,
                                TaskOutcomeKind kind) {
    TaskOutcomeRecord outcome;
    outcome.taskIdx = taskIdx;
    outcome.kind = kind;
    outcome.faultClass = kind == TaskOutcomeKind::Completed
                             ? kNoFaultClass
                             : std::uint8_t{1};
    outcome.clockHour = 0.25 * static_cast<double>(taskIdx);
    return outcome;
}

CampaignCheckpoint sampleCheckpoint(std::uint64_t outcomesApplied) {
    CampaignCheckpoint cp;
    cp.outcomesApplied = outcomesApplied;
    cp.nextSeq = outcomesApplied + 40;
    cp.rngState = {5, 6, 7, 8};
    cp.result.ixpsDetected = {2, 11, 30};
    cp.result.asesObserved = {1, 2, 3, 99};
    cp.result.tracesLaunched = 17;
    cp.result.tracesCompleted = 15;
    cp.result.degradation.tasksPlanned = 40;
    cp.result.degradation.attempts = 21;
    cp.result.degradation.retries = 4;
    cp.result.degradation.reassigned = 2;
    cp.result.degradation.abandoned = 1;
    cp.result.degradation.completed = 15;
    cp.result.degradation.transientTimeouts = 5;
    cp.result.degradation.completionRatio = 0.375;
    cp.result.degradation.lossByFaultClass = {{"power loss", 1}};
    cp.assignments = {{0, 100}, {1, 101}, {2, 102}};
    cp.pending = {{1.5, 9, 3, 1, 0}, {2.25, 10, 7, 0, 1}};
    cp.meters = {{1.2, 0.0, false}, {3.4, 0.5, true}};
    return cp;
}

TEST(JournalReplay, HeaderOnlyRoundTrips) {
    MemorySink sink;
    CampaignJournal journal{sink};
    const CampaignHeader header = sampleHeader();
    journal.writeHeader(header);

    const auto replay = CampaignJournal::replay(sink.bytes());
    ASSERT_TRUE(replay.header.has_value());
    EXPECT_EQ(*replay.header, header);
    EXPECT_FALSE(replay.checkpoint.has_value());
    EXPECT_EQ(replay.outcomeRecords, 0U);
    EXPECT_FALSE(replay.tornTail);
}

TEST(JournalReplay, EmptyBytesMeanNothingDurablyStarted) {
    const auto replay = CampaignJournal::replay({});
    EXPECT_FALSE(replay.header.has_value());
    EXPECT_FALSE(replay.checkpoint.has_value());
    EXPECT_FALSE(replay.tornTail);
}

TEST(JournalReplay, CheckpointContentsRoundTripExactly) {
    MemorySink sink;
    CampaignJournal journal{sink};
    journal.writeHeader(sampleHeader());
    for (std::uint64_t i = 0; i < 4; ++i) {
        journal.appendOutcome(sampleOutcome(
            i, i % 2 == 0 ? TaskOutcomeKind::Completed
                          : TaskOutcomeKind::Retried));
    }
    const CampaignCheckpoint cp = sampleCheckpoint(4);
    journal.appendCheckpoint(cp);
    journal.appendOutcome(sampleOutcome(9, TaskOutcomeKind::Abandoned));

    const auto replay = CampaignJournal::replay(sink.bytes());
    ASSERT_TRUE(replay.checkpoint.has_value());
    EXPECT_EQ(*replay.checkpoint, cp);
    EXPECT_EQ(replay.outcomeRecords, 5U);
    EXPECT_FALSE(replay.tornTail);
}

TEST(JournalReplay, LastIntactCheckpointWins) {
    MemorySink sink;
    CampaignJournal journal{sink};
    journal.writeHeader(sampleHeader());
    for (std::uint64_t i = 0; i < 3; ++i) {
        journal.appendOutcome(sampleOutcome(i, TaskOutcomeKind::Completed));
    }
    journal.appendCheckpoint(sampleCheckpoint(3));
    for (std::uint64_t i = 3; i < 6; ++i) {
        journal.appendOutcome(sampleOutcome(i, TaskOutcomeKind::Completed));
    }
    const CampaignCheckpoint second = sampleCheckpoint(6);
    journal.appendCheckpoint(second);

    const auto replay = CampaignJournal::replay(sink.bytes());
    ASSERT_TRUE(replay.checkpoint.has_value());
    EXPECT_EQ(replay.checkpoint->outcomesApplied, 6U);
    EXPECT_EQ(*replay.checkpoint, second);
}

TEST(JournalReplay, TornTailDropsThePartialCheckpoint) {
    MemorySink sink;
    CampaignJournal journal{sink};
    journal.writeHeader(sampleHeader());
    journal.appendOutcome(sampleOutcome(0, TaskOutcomeKind::Completed));
    journal.appendOutcome(sampleOutcome(1, TaskOutcomeKind::Completed));
    const std::size_t beforeCheckpoint = sink.size();
    journal.appendCheckpoint(sampleCheckpoint(2));

    // Cut 7 bytes into the checkpoint record: power died mid-append.
    const auto torn = sink.bytes().first(beforeCheckpoint + 7);
    const auto replay = CampaignJournal::replay(torn);
    ASSERT_TRUE(replay.header.has_value());
    EXPECT_FALSE(replay.checkpoint.has_value());
    EXPECT_EQ(replay.outcomeRecords, 2U);
    EXPECT_TRUE(replay.tornTail);
}

TEST(JournalReplay, MissingHeaderIsCorruption) {
    MemorySink sink;
    CampaignJournal journal{sink};
    journal.writeHeader(sampleHeader());
    journal.appendOutcome(sampleOutcome(0, TaskOutcomeKind::Completed));
    // Strip the header record: the journal now opens with an outcome.
    const ScanResult scan = scanRecords(sink.bytes());
    const auto headless = sink.bytes().subspan(scan.boundaries[0]);
    EXPECT_THROW((void)CampaignJournal::replay(headless),
                 net::CorruptionError);
}

TEST(JournalReplay, DuplicateHeaderIsCorruption) {
    MemorySink sink;
    CampaignJournal journal{sink};
    journal.writeHeader(sampleHeader());
    const ScanResult scan = scanRecords(sink.bytes());
    std::vector<std::byte> doubled{sink.bytes().begin(),
                                   sink.bytes().end()};
    doubled.insert(doubled.end(), sink.bytes().begin(),
                   sink.bytes().begin() + static_cast<std::ptrdiff_t>(
                                              scan.boundaries[0]));
    EXPECT_THROW((void)CampaignJournal::replay(doubled),
                 net::CorruptionError);
}

TEST(JournalReplay, CheckpointContradictingOutcomeCountIsCorruption) {
    MemorySink sink;
    CampaignJournal journal{sink};
    journal.writeHeader(sampleHeader());
    journal.appendOutcome(sampleOutcome(0, TaskOutcomeKind::Completed));
    journal.appendOutcome(sampleOutcome(1, TaskOutcomeKind::Completed));
    journal.appendCheckpoint(sampleCheckpoint(5)); // only 2 journaled
    EXPECT_THROW((void)CampaignJournal::replay(sink.bytes()),
                 net::CorruptionError);
}

TEST(JournalReplay, DuplicatedOutcomeRecordSurfacesAtNextCheckpoint) {
    MemorySink sink;
    CampaignJournal journal{sink};
    journal.writeHeader(sampleHeader());
    journal.appendOutcome(sampleOutcome(0, TaskOutcomeKind::Completed));
    journal.appendOutcome(sampleOutcome(1, TaskOutcomeKind::Completed));
    journal.appendCheckpoint(sampleCheckpoint(2));

    // Splice a copy of the first outcome record in before the checkpoint.
    const ScanResult scan = scanRecords(sink.bytes());
    const auto bytes = sink.bytes();
    std::vector<std::byte> spliced;
    spliced.insert(spliced.end(), bytes.begin(),
                   bytes.begin() +
                       static_cast<std::ptrdiff_t>(scan.boundaries[1]));
    spliced.insert(spliced.end(),
                   bytes.begin() +
                       static_cast<std::ptrdiff_t>(scan.boundaries[0]),
                   bytes.begin() +
                       static_cast<std::ptrdiff_t>(scan.boundaries[1]));
    spliced.insert(spliced.end(),
                   bytes.begin() +
                       static_cast<std::ptrdiff_t>(scan.boundaries[1]),
                   bytes.end());
    EXPECT_THROW((void)CampaignJournal::replay(spliced),
                 net::CorruptionError);
}

TEST(JournalReplay, ContinuationJournalCursorAccountsForResumePoint) {
    // A continuation journal starts with resumedAtOutcome = 7 and
    // re-anchors with an immediate checkpoint at cursor 7; later
    // checkpoints count 7 + journaled outcomes.
    MemorySink sink;
    CampaignJournal journal{sink};
    CampaignHeader header = sampleHeader();
    header.resumedAtOutcome = 7;
    journal.writeHeader(header);
    journal.appendCheckpoint(sampleCheckpoint(7));
    journal.appendOutcome(sampleOutcome(12, TaskOutcomeKind::Completed));
    journal.appendCheckpoint(sampleCheckpoint(8));

    const auto replay = CampaignJournal::replay(sink.bytes());
    ASSERT_TRUE(replay.checkpoint.has_value());
    EXPECT_EQ(replay.checkpoint->outcomesApplied, 8U);
    EXPECT_EQ(replay.outcomeRecords, 1U);
}

// --- durability: the journal must flush, not just append ---------------

TEST(JournalDurability, EveryAppendIsFlushedBeforeReturning) {
    // The WAL contract is only honest once bytes leave the buffering
    // layer: on a sink modelling an OS page cache, everything the journal
    // wrote must be durable the moment the append call returns. (The
    // original journal never flushed — this test is the regression lock.)
    BufferingSink sink;
    CampaignJournal journal{sink};

    journal.writeHeader(sampleHeader());
    EXPECT_EQ(sink.pendingBytes(), 0U) << "header left in the buffer";

    journal.appendOutcome(sampleOutcome(0, TaskOutcomeKind::Completed));
    EXPECT_EQ(sink.pendingBytes(), 0U) << "outcome left in the buffer";

    journal.appendCheckpoint(sampleCheckpoint(1));
    EXPECT_EQ(sink.pendingBytes(), 0U) << "checkpoint left in the buffer";

    // What a crash right now would leave behind replays completely.
    const auto replay = CampaignJournal::replay(sink.durable());
    ASSERT_TRUE(replay.header.has_value());
    ASSERT_TRUE(replay.checkpoint.has_value());
    EXPECT_EQ(replay.outcomeRecords, 1U);
    EXPECT_FALSE(replay.tornTail);
}

TEST(JournalDurability, CrashBetweenWriteAndFlushLosesOnlyThatRecord) {
    // Learn the record layout from an uninterrupted twin journal.
    MemorySink whole;
    {
        CampaignJournal journal{whole};
        journal.writeHeader(sampleHeader());
        journal.appendOutcome(sampleOutcome(0, TaskOutcomeKind::Completed));
        journal.appendCheckpoint(sampleCheckpoint(1));
    }
    const auto boundaries = scanRecords(whole.bytes()).boundaries;
    ASSERT_EQ(boundaries.size(), 3U);

    // Budget = exactly header + outcome: the outcome append lands in the
    // buffer, the flush right after it throws — the written-but-unflushed
    // record is the one the crash eats, nothing else.
    BufferingSink buffered;
    CrashingSink dying{buffered, boundaries[1]};
    CampaignJournal journal{dying};
    journal.writeHeader(sampleHeader());
    EXPECT_THROW(
        journal.appendOutcome(sampleOutcome(0, TaskOutcomeKind::Completed)),
        SinkFailure);

    EXPECT_EQ(buffered.pendingBytes(), boundaries[1] - boundaries[0])
        << "the outcome record reached the buffer but not durability";
    const auto replay = CampaignJournal::replay(buffered.durable());
    ASSERT_TRUE(replay.header.has_value());
    EXPECT_EQ(replay.outcomeRecords, 0U)
        << "an unflushed record must not survive the crash";
    EXPECT_FALSE(replay.checkpoint.has_value());
}

TEST(JournalReplay, UnknownRecordTypeIsCorruption) {
    MemorySink sink;
    CampaignJournal journal{sink};
    journal.writeHeader(sampleHeader());
    RecordWriter raw{sink};
    const std::byte rogue[] = {std::byte{0x7F}, std::byte{0x00}};
    (void)raw.append(rogue);
    EXPECT_THROW((void)CampaignJournal::replay(sink.bytes()),
                 net::CorruptionError);
}

} // namespace
} // namespace aio::persist
