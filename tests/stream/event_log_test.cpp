#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "netbase/error.hpp"
#include "stream/event_log.hpp"

namespace aio::stream {
namespace {

MeasurementEvent sampleEvent(std::uint32_t slot) {
    MeasurementEvent event;
    event.probe = 3;
    event.session = 1;
    event.seq = slot;
    event.country = "KE";
    event.slot = slot;
    event.value = 10.0 + slot;
    return event;
}

EventLogHeader sampleHeader() {
    EventLogHeader header;
    header.configDigest = 0xfeedbeef;
    header.samplesPerDay = 4.0;
    header.windowDays = 30.0;
    return header;
}

TEST(EventLog, RoundTripsHeaderAndEvents) {
    persist::MemorySink sink;
    EventLogWriter writer{sink, sampleHeader()};
    for (std::uint32_t slot = 0; slot < 5; ++slot) {
        writer.append(sampleEvent(slot));
    }
    const EventLogView view = readEventLog(sink.bytes());
    EXPECT_EQ(view.header, sampleHeader());
    ASSERT_EQ(view.events.size(), 5U);
    EXPECT_FALSE(view.tornTail);
    for (std::uint32_t slot = 0; slot < 5; ++slot) {
        EXPECT_EQ(view.events[slot], sampleEvent(slot));
    }
}

TEST(EventLog, TornTailIsTruncatedAndFlagged) {
    persist::MemorySink sink;
    EventLogWriter writer{sink, sampleHeader()};
    for (std::uint32_t slot = 0; slot < 3; ++slot) {
        writer.append(sampleEvent(slot));
    }
    const auto full = sink.bytes();
    // Chop mid-way through the final record: the classic power cut.
    const std::size_t cut = full.size() - 5;
    const EventLogView view = readEventLog(full.subspan(0, cut));
    EXPECT_TRUE(view.tornTail);
    EXPECT_EQ(view.events.size(), 2U);
}

TEST(EventLog, BitFlipIsRefusedAsCorruption) {
    persist::MemorySink sink;
    EventLogWriter writer{sink, sampleHeader()};
    writer.append(sampleEvent(0));
    writer.append(sampleEvent(1));
    std::vector<std::byte> bytes{sink.bytes().begin(), sink.bytes().end()};
    bytes[bytes.size() / 2] ^= std::byte{0x40};
    EXPECT_THROW((void)readEventLog(bytes), net::CorruptionError);
}

TEST(EventLog, MissingHeaderIsRefused) {
    // A log whose first record is an event (writer skipped the header)
    // has no provenance and must not replay.
    persist::MemorySink sink;
    persist::RecordWriter raw{sink};
    persist::ByteWriter payload;
    payload.u8(2); // event record type
    encodeEvent(payload, sampleEvent(0));
    (void)raw.append(payload.bytes());
    EXPECT_THROW((void)readEventLog(sink.bytes()), net::CorruptionError);
    EXPECT_THROW((void)readEventLog({}), net::CorruptionError);
}

TEST(EventLog, SecondHeaderIsRefused) {
    persist::MemorySink sink;
    EventLogWriter writer{sink, sampleHeader()};
    persist::RecordWriter raw{sink};
    persist::ByteWriter payload;
    payload.u8(1); // header record type
    payload.u32(1);
    payload.u64(0);
    payload.f64(4.0);
    payload.f64(30.0);
    (void)raw.append(payload.bytes());
    EXPECT_THROW((void)readEventLog(sink.bytes()), net::CorruptionError);
}

TEST(EventLog, UnknownRecordTypeIsRefused) {
    persist::MemorySink sink;
    EventLogWriter writer{sink, sampleHeader()};
    persist::RecordWriter raw{sink};
    persist::ByteWriter payload;
    payload.u8(77);
    (void)raw.append(payload.bytes());
    EXPECT_THROW((void)readEventLog(sink.bytes()), net::CorruptionError);
}

TEST(EventLog, WriterValidatesHeader) {
    persist::MemorySink sink;
    EventLogHeader bad = sampleHeader();
    bad.windowDays = 0.0;
    EXPECT_THROW((EventLogWriter{sink, bad}), net::PreconditionError);
}

TEST(EventLog, EveryAppendIsDurableThroughABufferingSink) {
    persist::BufferingSink sink;
    EventLogWriter writer{sink, sampleHeader()};
    writer.append(sampleEvent(0));
    // Nothing may linger in the page-cache model: a crash right now
    // must still see both records.
    EXPECT_EQ(sink.pendingBytes(), 0U);
    const EventLogView view = readEventLog(sink.durable());
    EXPECT_EQ(view.events.size(), 1U);
}

} // namespace
} // namespace aio::stream
