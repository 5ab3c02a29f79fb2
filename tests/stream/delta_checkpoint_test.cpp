#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "netbase/error.hpp"
#include "persist/bytes.hpp"
#include "persist/record.hpp"
#include "resilience/fault.hpp"
#include "stream/consumer.hpp"
#include "stream/event_log.hpp"
#include "stream/ingestor.hpp"
#include "stream/online_radar.hpp"
#include "stream_world.hpp"
#include "../persist/scan_records.hpp"

// Delta checkpoints. A fresh journal holds deltas from the empty
// detector; a continuation holds an anchor key, then deltas. Resume
// rebuilds the last key plus every later delta, so each checkpoint must
// rebuild exactly the state of a detector that ingested the same event
// prefix. Journals holding only keys must still resume, and a delta
// that does not fit the state before it must fail typed.
namespace aio::stream {
namespace {

using testing::emittedEvents;
using testing::world;

constexpr double kWindowDays = 10.0;
constexpr std::uint64_t kSeed = 41;

constexpr std::uint8_t kHeaderRecord = 1;
constexpr std::uint8_t kKeyRecord = 2;
constexpr std::uint8_t kDeltaRecord = 3;

/// A faulted window on the shared test world (drops with redelivery,
/// duplicates, reordering and churn inside the watermark) captured into
/// an event log, with the uninterrupted run's Outcome and journal.
struct FaultedWindow {
    std::vector<std::byte> log;
    std::vector<MeasurementEvent> events; ///< in log order
    StreamConsumer::Outcome baseline;
    std::vector<std::byte> journal;
};

StreamConsumer consumer() {
    return StreamConsumer{world().radar, StreamConfig{}};
}

std::uint64_t digest() {
    return streamConfigDigest(world().radar, StreamConfig{}, kWindowDays);
}

const FaultedWindow& faulted() {
    static const FaultedWindow window = [] {
        resilience::StreamFaultConfig faults;
        faults.dropProb = 0.1;
        faults.duplicateProb = 0.15;
        faults.reorderProb = 0.3;
        faults.maxSkewDays = 0.5;
        faults.churnBurstProb = 0.4;
        faults.churnReconnects = 3;
        net::Rng faultRng{kSeed * 7919 + 1};
        const resilience::StreamFaultInjector injector{
            faults, GroundTruthSource::probeIds(), kWindowDays, faultRng};
        const auto delivered =
            simulateDelivery(emittedEvents(kWindowDays, kSeed), injector,
                             world().radar.samplesPerDay, faultRng);

        persist::MemorySink logSink;
        EventLogHeader header;
        header.configDigest = digest();
        header.samplesPerDay = world().radar.samplesPerDay;
        header.windowDays = kWindowDays;
        EventLogWriter writer{logSink, header};
        StreamIngestor ingestor{StreamConfig{}};
        ingestor.capture(delivered, writer);

        FaultedWindow out;
        out.log.assign(logSink.bytes().begin(), logSink.bytes().end());
        out.events = readEventLog(out.log).events;
        persist::MemorySink journal;
        out.baseline = consumer().run(out.log, journal);
        out.journal.assign(journal.bytes().begin(), journal.bytes().end());
        return out;
    }();
    return window;
}

struct Checkpoint {
    std::uint8_t type = 0;
    std::uint64_t eventIndex = 0;
    std::size_t end = 0; ///< journal offset just past the record
};

std::vector<Checkpoint> checkpointsOf(std::span<const std::byte> journal) {
    const persist::ScanResult scan = persist::scanRecords(journal);
    std::vector<Checkpoint> out;
    for (std::size_t i = 0; i < scan.payloads.size(); ++i) {
        persist::ByteReader reader{scan.payloads[i]};
        const std::uint8_t type = reader.u8();
        if (type != kHeaderRecord) {
            out.push_back({type, reader.u64(), scan.boundaries[i]});
        }
    }
    return out;
}

/// Resumes from `prior` and stops before the first event: the
/// continuation's anchor, its first checkpoint, then holds exactly the
/// state the consumer rebuilt from `prior`.
std::pair<std::uint64_t, std::vector<std::byte>>
rebuiltState(std::span<const std::byte> prior) {
    persist::MemorySink continuation;
    (void)consumer().run(faulted().log, continuation, prior, 0);
    const auto records = checkpointsOf(continuation.bytes());
    EXPECT_FALSE(records.empty());
    EXPECT_EQ(records.front().type, kKeyRecord);
    const auto anchor =
        persist::scanRecords(continuation.bytes()).payloads.at(1);
    persist::ByteReader reader{anchor};
    (void)reader.u8();
    const std::uint64_t eventIndex = reader.u64();
    const auto state = anchor.subspan(anchor.size() - reader.remaining());
    return {eventIndex, {state.begin(), state.end()}};
}

/// Cuts `journal` after each of its checkpoints and checks that resume
/// rebuilds the state of a detector fed exactly that event prefix, then
/// runs on to the uninterrupted Outcome. The second check covers the
/// derived state encodeState() leaves out: the sorted sealed sample
/// prices every later alert.
void expectEveryCutRebuildsItsPrefix(std::span<const std::byte> journal) {
    const auto& events = faulted().events;
    OnlineRadarDetector prefix{world().radar, StreamConfig{}, kWindowDays};
    std::size_t fed = 0;
    for (const Checkpoint& checkpoint : checkpointsOf(journal)) {
        ASSERT_GE(checkpoint.eventIndex, fed);
        for (; fed < checkpoint.eventIndex; ++fed) {
            prefix.ingest(events[fed]);
        }
        const auto [eventIndex, state] =
            rebuiltState(journal.first(checkpoint.end));
        ASSERT_EQ(eventIndex, checkpoint.eventIndex);
        ASSERT_EQ(state, prefix.encodeState())
            << "cut after the checkpoint at event " << eventIndex;
        persist::MemorySink continuation;
        const auto resumed = consumer().run(
            faulted().log, continuation, journal.first(checkpoint.end));
        ASSERT_TRUE(resumed == faulted().baseline)
            << "cut after the checkpoint at event " << eventIndex;
    }
}

TEST(DeltaCheckpoint, EveryCheckpointOfAFreshJournalRebuildsItsPrefix) {
    const auto checkpoints = checkpointsOf(faulted().journal);
    ASSERT_GT(checkpoints.size(), 10U);
    for (const Checkpoint& checkpoint : checkpoints) {
        EXPECT_EQ(checkpoint.type, kDeltaRecord);
    }
    EXPECT_EQ(checkpoints.back().eventIndex, faulted().events.size());
    expectEveryCutRebuildsItsPrefix(faulted().journal);
}

TEST(DeltaCheckpoint, EveryCheckpointOfADoubleCrashChainRebuildsItsPrefix) {
    const std::uint64_t events = faulted().events.size();
    persist::MemorySink first;
    (void)consumer().run(faulted().log, first, {}, events / 3);
    persist::MemorySink second;
    (void)consumer().run(faulted().log, second, first.bytes(), events / 4);
    persist::MemorySink third;
    const auto resumed =
        consumer().run(faulted().log, third, second.bytes());
    ASSERT_TRUE(resumed == faulted().baseline);

    for (const persist::MemorySink* journal : {&second, &third}) {
        const auto checkpoints = checkpointsOf(journal->bytes());
        ASSERT_GT(checkpoints.size(), 1U);
        EXPECT_EQ(checkpoints.front().type, kKeyRecord);
        for (std::size_t i = 1; i < checkpoints.size(); ++i) {
            EXPECT_EQ(checkpoints[i].type, kDeltaRecord);
        }
    }
    expectEveryCutRebuildsItsPrefix(first.bytes());
    expectEveryCutRebuildsItsPrefix(second.bytes());
    expectEveryCutRebuildsItsPrefix(third.bytes());
}

persist::ByteWriter headerPayload(std::uint64_t resumedAtEvent) {
    persist::ByteWriter header;
    header.u8(kHeaderRecord);
    header.u32(1); // journal format version
    header.u64(digest());
    header.u64(resumedAtEvent);
    return header;
}

TEST(DeltaCheckpoint, KeyOnlyJournalsStillResume) {
    // The layout earlier versions wrote: the full state every 64 events
    // and once more at the end.
    persist::MemorySink sink;
    persist::RecordWriter writer{sink};
    (void)writer.append(headerPayload(0).bytes());
    OnlineRadarDetector detector{world().radar, StreamConfig{},
                                 kWindowDays};
    const auto appendKey = [&](std::uint64_t eventIndex) {
        persist::ByteWriter payload;
        payload.u8(kKeyRecord);
        payload.u64(eventIndex);
        payload.raw(detector.encodeState());
        (void)writer.append(payload.bytes());
    };
    const auto& events = faulted().events;
    for (std::size_t i = 0; i < events.size(); ++i) {
        detector.ingest(events[i]);
        if ((i + 1) % StreamConfig{}.checkpointEveryEvents == 0) {
            appendKey(i + 1);
        }
    }
    appendKey(events.size());

    const auto boundaries = persist::scanRecords(sink.bytes()).boundaries;
    ASSERT_GT(boundaries.size(), 10U);
    for (const std::size_t cut : boundaries) {
        persist::MemorySink out;
        const auto resumed =
            consumer().run(faulted().log, out, sink.bytes().first(cut));
        ASSERT_TRUE(resumed == faulted().baseline) << "clean cut at " << cut;
    }
}

/// The payload of the fresh journal's first delta record.
std::vector<std::byte> firstDelta() {
    const auto scan = persist::scanRecords(faulted().journal);
    const auto payload = scan.payloads.at(1);
    EXPECT_EQ(static_cast<std::uint8_t>(payload[0]), kDeltaRecord);
    return {payload.begin(), payload.end()};
}

/// One hand-written delta record touching one lane ("KE", nothing
/// sealed, no run, no alerts) that first wrote `slots`.
std::vector<std::byte>
laneDelta(std::uint64_t eventIndex, std::uint64_t sealedThrough,
          std::initializer_list<std::uint32_t> slots) {
    persist::ByteWriter out;
    out.u8(kDeltaRecord);
    out.u64(eventIndex);
    out.u32(1); // lanes
    out.str("KE");
    out.boolean(true); // any
    out.u32(0);        // maxSlot
    out.u64(sealedThrough);
    out.u64(0);        // runStart
    out.i32(0);        // runLen
    out.boolean(false); // alertOpen
    out.u64(slots.size()); // events
    out.u64(0);        // duplicateSlots
    out.u64(0);        // lateDropped
    out.u64(0);        // sealedGaps
    out.u32(static_cast<std::uint32_t>(slots.size()));
    for (const std::uint32_t slot : slots) {
        out.u32(slot);
        out.f64(1.0);
    }
    out.u32(0); // alerts
    return {out.bytes().begin(), out.bytes().end()};
}

std::vector<std::byte>
journalOf(std::uint64_t resumedAtEvent,
          std::initializer_list<std::vector<std::byte>> records) {
    persist::MemorySink sink;
    persist::RecordWriter writer{sink};
    (void)writer.append(headerPayload(resumedAtEvent).bytes());
    for (const auto& record : records) {
        (void)writer.append(record);
    }
    return {sink.bytes().begin(), sink.bytes().end()};
}

/// Resuming from `journal` fails with a net::CorruptionError whose
/// message names `what`.
void expectRefused(const std::vector<std::byte>& journal,
                   const std::string& what) {
    persist::MemorySink out;
    try {
        (void)consumer().run(faulted().log, out, journal);
        ADD_FAILURE() << "resumed from a journal that should be refused ("
                      << what << ")";
    } catch (const net::CorruptionError& error) {
        EXPECT_NE(std::string{error.what()}.find(what), std::string::npos)
            << error.what();
    }
}

TEST(DeltaCheckpoint, DeltaBeforeAContinuationsAnchorIsRefused) {
    const auto delta = firstDelta();
    persist::ByteReader reader{delta};
    (void)reader.u8();
    const std::uint64_t eventIndex = reader.u64();
    expectRefused(journalOf(eventIndex, {delta}),
                  "delta before its anchor");
}

TEST(DeltaCheckpoint, DeltaRewritingAPresentSlotIsRefused) {
    const auto delta = firstDelta();
    expectRefused(journalOf(0, {delta, delta}), "rewrites present slot");
    expectRefused(journalOf(0, {laneDelta(1, 0, {3}), laneDelta(2, 0, {3})}),
                  "rewrites present slot 3");
}

TEST(DeltaCheckpoint, SlotPastTheWindowIsRefused) {
    const auto slots = static_cast<std::uint32_t>(
        kWindowDays * world().radar.samplesPerDay);
    expectRefused(journalOf(0, {laneDelta(1, 0, {slots})}),
                  "outside the lane's open window");
    // A slot the lane already sealed without its sample.
    expectRefused(journalOf(0, {laneDelta(1, 4, {}), laneDelta(2, 4, {2})}),
                  "outside the lane's open window");
}

TEST(DeltaCheckpoint, OutOfRangeLaneScalarsAreRefused) {
    const auto slots = static_cast<std::uint64_t>(
        kWindowDays * world().radar.samplesPerDay);
    expectRefused(journalOf(0, {laneDelta(1, slots + 1, {})}),
                  "lane state is out of range");
    expectRefused(journalOf(0, {laneDelta(1, 4, {}), laneDelta(2, 3, {})}),
                  "sealed frontier back");
}

TEST(DeltaCheckpoint, TrailingBytesAreRefused) {
    auto delta = firstDelta();
    delta.push_back(std::byte{0});
    expectRefused(journalOf(0, {delta}), "trailing bytes");
}

} // namespace
} // namespace aio::stream
