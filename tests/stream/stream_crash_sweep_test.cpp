#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "netbase/error.hpp"
#include "persist/record.hpp"
#include "stream/consumer.hpp"
#include "stream/event_log.hpp"
#include "stream_world.hpp"
#include "../persist/scan_records.hpp"

// The acceptance harness for crash-resumable stream consumption,
// mirroring tests/resilience/crash_sweep_test.cpp: kill the consumer at
// every event count, crash its checkpoint sink at and around every
// record boundary, chain continuation journals through double crashes —
// every resumed run must converge to the uninterrupted Outcome exactly.
namespace aio::stream {
namespace {

using testing::emittedEvents;
using testing::world;

/// Everything one sweep seed needs: a bounded event log (four countries,
/// dense checkpoints), the uninterrupted baseline Outcome and its
/// complete checkpoint journal.
struct SweepCase {
    static constexpr double kWindowDays = 6.0;

    StreamConfig stream;
    std::vector<MeasurementEvent> events;
    std::vector<std::byte> log;
    StreamConsumer::Outcome baseline;
    std::vector<std::byte> journal;
    std::vector<std::size_t> boundaries;

    SweepCase(const SweepCase&) = delete;
    SweepCase& operator=(const SweepCase&) = delete;

    explicit SweepCase(std::uint64_t seed) {
        stream.checkpointEveryEvents = 8; // dense for the sweep
        for (MeasurementEvent& event : emittedEvents(kWindowDays, seed)) {
            for (const std::string_view keep : {"KE", "NG", "ZA", "EG"}) {
                if (event.country == keep) {
                    events.push_back(std::move(event));
                    break;
                }
            }
        }
        persist::MemorySink logSink;
        EventLogHeader header;
        header.configDigest =
            streamConfigDigest(world().radar, stream, kWindowDays);
        header.samplesPerDay = world().radar.samplesPerDay;
        header.windowDays = kWindowDays;
        EventLogWriter writer{logSink, header};
        for (const MeasurementEvent& event : events) {
            writer.append(event);
        }
        log.assign(logSink.bytes().begin(), logSink.bytes().end());

        persist::MemorySink journalSink;
        baseline = consumer().run(log, journalSink);
        journal.assign(journalSink.bytes().begin(),
                       journalSink.bytes().end());
        boundaries = persist::scanRecords(journal).boundaries;
    }

    [[nodiscard]] StreamConsumer consumer() const {
        return StreamConsumer{world().radar, stream};
    }
};

class StreamCrashSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamCrashSweep, KillAtEveryEventCountResumesByteIdentical) {
    const SweepCase c{GetParam()};
    ASSERT_TRUE(c.baseline.completed);
    ASSERT_FALSE(c.baseline.detections.empty());
    ASSERT_GT(c.boundaries.size(),
              c.events.size() / c.stream.checkpointEveryEvents);

    for (std::uint64_t kill = 0; kill < c.events.size(); ++kill) {
        persist::MemorySink first;
        const auto killed =
            c.consumer().run(c.log, first, {}, kill);
        ASSERT_FALSE(killed.completed) << "killed after " << kill;
        ASSERT_EQ(killed.eventsProcessed, kill);

        persist::MemorySink second;
        const auto resumed =
            c.consumer().run(c.log, second, first.bytes());
        ASSERT_TRUE(resumed == c.baseline) << "killed after " << kill;
    }
}

TEST_P(StreamCrashSweep, KillingAtTheEventCountCompletesNormally) {
    const SweepCase c{GetParam()};
    persist::MemorySink sink;
    const auto outcome =
        c.consumer().run(c.log, sink, {}, c.events.size());
    EXPECT_TRUE(outcome == c.baseline);
}

TEST_P(StreamCrashSweep, DoubleCrashChainsContinuationJournals) {
    const SweepCase c{GetParam()};
    const std::uint64_t firstKill = c.events.size() / 3;
    const std::uint64_t secondKill = c.events.size() / 4;

    persist::MemorySink first;
    (void)c.consumer().run(c.log, first, {}, firstKill);
    persist::MemorySink second;
    const auto partial =
        c.consumer().run(c.log, second, first.bytes(), secondKill);
    ASSERT_FALSE(partial.completed);

    // The second journal is a continuation (its header re-anchors the
    // offset at the first crash's checkpoint) and must alone carry the
    // run to the baseline.
    persist::MemorySink third;
    const auto resumed = c.consumer().run(c.log, third, second.bytes());
    EXPECT_TRUE(resumed == c.baseline);
}

TEST_P(StreamCrashSweep, ResumeOfACompleteJournalIsIdempotent) {
    const SweepCase c{GetParam()};
    persist::MemorySink sink;
    const auto again = c.consumer().run(c.log, sink, c.journal);
    EXPECT_TRUE(again == c.baseline);
}

TEST_P(StreamCrashSweep, TornJournalTailFallsBackToLastIntactCheckpoint) {
    const SweepCase c{GetParam()};
    // Cut strictly inside each record (the 12-byte frame header makes
    // boundary + 1 always mid-record): the torn tail truncates and the
    // previous checkpoint carries the resume.
    for (std::size_t i = 0; i + 1 < c.boundaries.size(); ++i) {
        const std::size_t cut = c.boundaries[i] + 1;
        persist::MemorySink sink;
        const auto resumed = c.consumer().run(
            c.log, sink, std::span{c.journal}.first(cut));
        ASSERT_TRUE(resumed == c.baseline) << "torn cut at " << cut;
    }
    // Not even the header survived: a fresh start, same destination.
    persist::MemorySink sink;
    const auto fromOne =
        c.consumer().run(c.log, sink, std::span{c.journal}.first(1));
    EXPECT_TRUE(fromOne == c.baseline);
}

TEST_P(StreamCrashSweep, EveryCleanJournalPrefixResumesByteIdentical) {
    const SweepCase c{GetParam()};
    for (const std::size_t cut : c.boundaries) {
        persist::MemorySink sink;
        const auto resumed = c.consumer().run(
            c.log, sink, std::span{c.journal}.first(cut));
        ASSERT_TRUE(resumed == c.baseline) << "clean cut at " << cut;
    }
}

TEST_P(StreamCrashSweep, CrashingSinkLeavesAResumableJournalPrefix) {
    const SweepCase c{GetParam()};
    // The journalling sink dies mid-record at a few depths: the consumer
    // run throws, the surviving bytes are the exact journal prefix, and
    // resuming from the torn prefix reaches the baseline.
    const std::size_t last = c.boundaries.size() - 1;
    for (const std::size_t budget :
         {c.boundaries[0] + 7, c.boundaries[last / 2] + 7,
          c.boundaries[last] - 3}) {
        persist::MemorySink inner;
        persist::CrashingSink dying{inner, budget};
        EXPECT_THROW((void)c.consumer().run(c.log, dying),
                     persist::SinkFailure);
        ASSERT_EQ(inner.size(), budget);
        EXPECT_TRUE(std::ranges::equal(
            inner.bytes(), std::span{c.journal}.first(budget)));

        persist::MemorySink sink;
        const auto resumed = c.consumer().run(c.log, sink, inner.bytes());
        EXPECT_TRUE(resumed == c.baseline) << "sink died at " << budget;
    }
}

TEST_P(StreamCrashSweep, CrashBetweenWriteAndFlushResumesFromDurable) {
    const SweepCase c{GetParam()};
    // Exact-boundary budgets hit the write/flush seam: the last record
    // lands in the OS-cache model, the flush throws, and what a real
    // crash leaves durable is one record short of what was written.
    const std::size_t last = c.boundaries.size() - 1;
    for (const std::size_t idx : {std::size_t{1}, last / 2, last}) {
        persist::BufferingSink buffered;
        persist::CrashingSink dying{buffered, c.boundaries[idx]};
        EXPECT_THROW((void)c.consumer().run(c.log, dying),
                     persist::SinkFailure);
        const auto durable = buffered.durable();
        ASSERT_EQ(durable.size(),
                  idx == 0 ? 0 : c.boundaries[idx - 1]);

        persist::MemorySink sink;
        const auto resumed = c.consumer().run(c.log, sink, durable);
        EXPECT_TRUE(resumed == c.baseline)
            << "flush crash at record " << idx;
    }
}

TEST_P(StreamCrashSweep, MidJournalBitFlipRefusesToResume) {
    const SweepCase c{GetParam()};
    std::vector<std::byte> damaged = c.journal;
    const std::size_t at = c.boundaries[1] + 13;
    damaged[at] ^= std::byte{0x04};
    persist::MemorySink sink;
    EXPECT_THROW((void)c.consumer().run(c.log, sink, damaged),
                 net::CorruptionError);
}

TEST_P(StreamCrashSweep, ContinuationWithoutItsAnchorIsRefused) {
    const SweepCase c{GetParam()};
    // Hand-craft the pathological survivor: a continuation header
    // (resumedAtEvent > 0) whose anchor checkpoint never made it to the
    // sink. Replaying it "fresh" would silently skip the prefix, so the
    // consumer must refuse it as corrupt.
    persist::MemorySink sink;
    persist::RecordWriter writer{sink};
    persist::ByteWriter header;
    header.u8(1); // journal header record
    header.u32(1);
    header.u64(streamConfigDigest(world().radar, c.stream,
                                  SweepCase::kWindowDays));
    header.u64(16); // resumed mid-log...
    (void)writer.append(header.bytes());
    // ...but no checkpoint follows.
    persist::MemorySink out;
    EXPECT_THROW((void)c.consumer().run(c.log, out, sink.bytes()),
                 net::CorruptionError);
}

TEST_P(StreamCrashSweep, JournalFromAForeignConfigIsRefused) {
    const SweepCase c{GetParam()};
    persist::MemorySink sink;
    persist::RecordWriter writer{sink};
    persist::ByteWriter header;
    header.u8(1);
    header.u32(1);
    header.u64(streamConfigDigest(world().radar, c.stream,
                                  SweepCase::kWindowDays) +
               1); // written by a consumer with different knobs
    header.u64(0);
    (void)writer.append(header.bytes());
    persist::MemorySink out;
    EXPECT_THROW((void)c.consumer().run(c.log, out, sink.bytes()),
                 net::PreconditionError);
}

TEST_P(StreamCrashSweep, LogFromAForeignConfigIsRefused) {
    const SweepCase c{GetParam()};
    StreamConfig other = c.stream;
    other.watermarkDays = 2.0; // changes sealing => changes results
    StreamConsumer consumer{world().radar, other};
    persist::MemorySink sink;
    EXPECT_THROW((void)consumer.run(c.log, sink), net::PreconditionError);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamCrashSweep,
                         ::testing::Values(101, 202, 303));

} // namespace
} // namespace aio::stream
