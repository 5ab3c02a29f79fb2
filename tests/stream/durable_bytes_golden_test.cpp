#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <ios>
#include <span>
#include <vector>

#include "persist/bytes.hpp"
#include "persist/record.hpp"
#include "resilience/fault.hpp"
#include "stream/consumer.hpp"
#include "stream/event_log.hpp"
#include "stream/ingestor.hpp"
#include "stream/online_radar.hpp"
#include "stream_world.hpp"

// Recorded byte streams of the stream subsystem's durable formats: the
// event log, the consumer's checkpoint journal, a continuation journal
// and the detector state. Each pin is a size plus an fnv1a64 digest of
// the exact bytes, so any change to an encoder, the record framing or
// the checksum fails here even when a round trip would still pass.
namespace aio::stream {
namespace {

using testing::emittedEvents;
using testing::world;

constexpr double kWindowDays = 10.0;
constexpr std::uint64_t kSeed = 41;

/// A fixed faulted window on the shared test world: drops with
/// redelivery, duplicates, reordering and churn inside the watermark,
/// captured through the ingestor into an event log.
const std::vector<std::byte>& faultedLog() {
    static const std::vector<std::byte> bytes = [] {
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

        persist::MemorySink sink;
        EventLogHeader header;
        header.configDigest =
            streamConfigDigest(world().radar, StreamConfig{}, kWindowDays);
        header.samplesPerDay = world().radar.samplesPerDay;
        header.windowDays = kWindowDays;
        EventLogWriter writer{sink, header};
        StreamIngestor ingestor{StreamConfig{}};
        ingestor.capture(delivered, writer);
        return std::vector<std::byte>{sink.bytes().begin(),
                                      sink.bytes().end()};
    }();
    return bytes;
}

StreamConsumer consumer() {
    return StreamConsumer{world().radar, StreamConfig{}};
}

void expectPinned(std::span<const std::byte> bytes, std::size_t size,
                  std::uint64_t digest) {
    EXPECT_EQ(bytes.size(), size);
    EXPECT_EQ(persist::fnv1a64(bytes), digest)
        << std::hex << "0x" << persist::fnv1a64(bytes);
}

TEST(DurableBytesGolden, EventLog) {
    expectPinned(faultedLog(), 110201, 0x0b39ebdccfdae5c7ULL);
}

TEST(DurableBytesGolden, CheckpointJournal) {
    persist::MemorySink journal;
    const auto outcome = consumer().run(faultedLog(), journal);
    ASSERT_TRUE(outcome.completed);
    expectPinned(journal.bytes(), 139139, 0x3aa46cf06fac0fd1ULL);
}

TEST(DurableBytesGolden, ContinuationJournal) {
    persist::MemorySink killed;
    (void)consumer().run(faultedLog(), killed, {}, 1000);
    persist::MemorySink continuation;
    const auto outcome =
        consumer().run(faultedLog(), continuation, killed.bytes());
    ASSERT_TRUE(outcome.completed);
    expectPinned(continuation.bytes(), 101441, 0x8075426df25298ccULL);
}

TEST(DurableBytesGolden, DetectorState) {
    const auto events = readEventLog(faultedLog()).events;
    ASSERT_GT(events.size(), 777U);
    OnlineRadarDetector detector{world().radar, StreamConfig{},
                                 kWindowDays};
    detector.ingestAll(std::span{events}.first(777));
    expectPinned(detector.encodeState(), 23136, 0xebc47ee89d7414f0ULL);
}

} // namespace
} // namespace aio::stream
