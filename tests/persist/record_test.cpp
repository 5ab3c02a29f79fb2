#include "persist/record.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "netbase/error.hpp"
#include "persist/bytes.hpp"
#include "scan_records.hpp"

namespace aio::persist {
namespace {

std::vector<std::byte> bytesOf(std::string_view text) {
    std::vector<std::byte> out(text.size());
    if (!text.empty()) {
        std::memcpy(out.data(), text.data(), text.size());
    }
    return out;
}

std::string textOf(std::span<const std::byte> bytes) {
    if (bytes.empty()) {
        return {};
    }
    return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

TEST(ByteWriter, FixedWidthFieldsAreLittleEndian) {
    ByteWriter writer;
    writer.u8(0xAB);
    writer.u32(0x04030201U);
    writer.u64(0x0C0B0A0908070605ULL);
    writer.str("KE");
    const std::vector<std::uint8_t> expected{
        0xAB, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 2, 0, 0, 0, 'K', 'E'};
    ASSERT_EQ(writer.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(static_cast<std::uint8_t>(writer.bytes()[i]), expected[i])
            << "byte " << i;
    }
}

TEST(ByteWriter, F64sMatchesFieldByFieldEncoding) {
    const std::vector<double> values{0.0, -0.0, -1.5, 1e300,
                                     3.141592653589793};
    ByteWriter block;
    block.u8(7);
    block.reserve(values.size() * 8);
    block.f64s(values);
    ByteWriter fields;
    fields.u8(7);
    for (const double value : values) {
        fields.f64(value);
    }
    EXPECT_TRUE(std::ranges::equal(block.bytes(), fields.bytes()));

    ByteReader reader{block.bytes()};
    EXPECT_EQ(reader.u8(), 7U);
    for (const double value : values) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(reader.f64()),
                  std::bit_cast<std::uint64_t>(value));
    }
    EXPECT_TRUE(reader.atEnd());
}

TEST(ByteReader, F64sMatchesFieldByFieldDecoding) {
    const std::vector<double> values{0.0, -0.0, -1.5, 1e300,
                                     3.141592653589793};
    ByteWriter fields;
    fields.u8(7);
    for (const double value : values) {
        fields.f64(value);
    }
    ByteReader reader{fields.bytes()};
    EXPECT_EQ(reader.u8(), 7U);
    std::vector<double> block(values.size());
    reader.f64s(block);
    EXPECT_TRUE(reader.atEnd());
    for (std::size_t i = 0; i < values.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(block[i]),
                  std::bit_cast<std::uint64_t>(values[i]))
            << "value " << i;
    }

    // raw() is a view of the next bytes, not a copy.
    ByteReader viewer{fields.bytes()};
    const auto first = viewer.raw(1);
    ASSERT_EQ(first.size(), 1U);
    EXPECT_EQ(first.data(), fields.bytes().data());
    EXPECT_EQ(viewer.remaining(), values.size() * 8);
}

TEST(ByteReader, BulkReadsPastTheEndThrowAndConsumeNothing) {
    ByteWriter writer;
    writer.f64(1.0);
    writer.u8(2);
    ByteReader reader{writer.bytes()};
    std::vector<double> two(2);
    EXPECT_THROW(reader.f64s(two), net::CorruptionError);
    EXPECT_THROW((void)reader.raw(10), net::CorruptionError);
    EXPECT_EQ(reader.remaining(), 9U);
    std::vector<double> one(1);
    reader.f64s(one);
    EXPECT_EQ(one[0], 1.0);
    EXPECT_EQ(reader.raw(1).size(), 1U);
    EXPECT_TRUE(reader.raw(0).empty());
    EXPECT_TRUE(reader.atEnd());
    EXPECT_THROW((void)reader.raw(1), net::CorruptionError);
}

TEST(RecordCodec, RoundTripsPayloadsInOrder) {
    MemorySink sink;
    RecordWriter writer{sink};
    EXPECT_EQ(writer.append(bytesOf("alpha")), 0U);
    EXPECT_EQ(writer.append(bytesOf("")), 1U);
    EXPECT_EQ(writer.append(bytesOf("gamma gamma gamma")), 2U);
    EXPECT_EQ(writer.recordCount(), 3U);
    EXPECT_EQ(writer.bytesWritten(), sink.size());

    const ScanResult scan = scanRecords(sink.bytes());
    ASSERT_EQ(scan.payloads.size(), 3U);
    EXPECT_EQ(textOf(scan.payloads[0]), "alpha");
    EXPECT_EQ(textOf(scan.payloads[1]), "");
    EXPECT_EQ(textOf(scan.payloads[2]), "gamma gamma gamma");
    EXPECT_EQ(scan.tail, TailStatus::Clean);
    ASSERT_EQ(scan.boundaries.size(), 3U);
    EXPECT_EQ(scan.boundaries.back(), sink.size());
}

TEST(RecordCodec, EmptyJournalIsCleanAndEmpty) {
    const ScanResult scan = scanRecords({});
    EXPECT_TRUE(scan.payloads.empty());
    EXPECT_EQ(scan.tail, TailStatus::Clean);
}

TEST(RecordCodec, EveryTruncationClassifiesAsTornOrShorterJournal) {
    MemorySink sink;
    RecordWriter writer{sink};
    (void)writer.append(bytesOf("first record"));
    (void)writer.append(bytesOf("second"));
    (void)writer.append(bytesOf("third record payload"));
    const ScanResult full = scanRecords(sink.bytes());

    for (std::size_t cut = 0; cut <= sink.size(); ++cut) {
        const ScanResult scan = scanRecords(sink.bytes().first(cut));
        const bool onBoundary =
            cut == 0 || std::ranges::find(full.boundaries, cut) !=
                            full.boundaries.end();
        if (onBoundary) {
            EXPECT_EQ(scan.tail, TailStatus::Clean) << "cut at " << cut;
        } else {
            EXPECT_EQ(scan.tail, TailStatus::Torn) << "cut at " << cut;
        }
        // Intact prefix records are always recovered.
        for (std::size_t i = 0; i < scan.payloads.size(); ++i) {
            EXPECT_EQ(textOf(scan.payloads[i]), textOf(full.payloads[i]));
        }
    }
}

TEST(RecordCodec, PayloadBitFlipThrowsCorruption) {
    MemorySink sink;
    RecordWriter writer{sink};
    (void)writer.append(bytesOf("stable payload bytes"));
    (void)writer.append(bytesOf("another record"));

    std::vector<std::byte> damaged{sink.bytes().begin(),
                                   sink.bytes().end()};
    damaged[14] ^= std::byte{0x20}; // inside the first payload
    EXPECT_THROW((void)scanRecords(damaged), net::CorruptionError);
}

TEST(RecordCodec, LengthFieldBitFlipThrowsCorruptionNotRunaway) {
    MemorySink sink;
    RecordWriter writer{sink};
    (void)writer.append(bytesOf("record one"));
    (void)writer.append(bytesOf("record two"));

    std::vector<std::byte> damaged{sink.bytes().begin(),
                                   sink.bytes().end()};
    // Flip the high bit of the first record's length field: without the
    // dedicated length CRC this would read as a ~2 GB record and
    // misclassify the whole journal as a torn tail.
    damaged[3] ^= std::byte{0x80};
    EXPECT_THROW((void)scanRecords(damaged), net::CorruptionError);
}

TEST(RecordCodec, CrcFieldBitFlipThrowsCorruption) {
    MemorySink sink;
    RecordWriter writer{sink};
    (void)writer.append(bytesOf("payload"));
    std::vector<std::byte> damaged{sink.bytes().begin(),
                                   sink.bytes().end()};
    damaged[8] ^= std::byte{0x01}; // payload CRC field
    EXPECT_THROW((void)scanRecords(damaged), net::CorruptionError);
}

TEST(CrashingSink, AcceptsUntilBudgetThenTearsAndThrows) {
    MemorySink inner;
    CrashingSink sink{inner, 10};
    RecordWriter writer{sink};
    // Header (12 bytes) alone exceeds the 10-byte budget: the append
    // lands a 10-byte prefix and throws.
    EXPECT_THROW((void)writer.append(bytesOf("payload")), SinkFailure);
    EXPECT_EQ(inner.size(), 10U);
    EXPECT_EQ(sink.accepted(), 10U);
    const ScanResult scan = scanRecords(inner.bytes());
    EXPECT_TRUE(scan.payloads.empty());
    EXPECT_EQ(scan.tail, TailStatus::Torn);
}

TEST(CrashingSink, ExactFitDoesNotThrowUntilNextAppend) {
    MemorySink inner;
    CrashingSink sink{inner, 12 + 5};
    RecordWriter writer{sink};
    EXPECT_NO_THROW((void)writer.append(bytesOf("12345")));
    EXPECT_THROW((void)writer.append(bytesOf("x")), SinkFailure);
    // The first record survived intact; the second never started.
    const ScanResult scan = scanRecords(inner.bytes());
    ASSERT_EQ(scan.payloads.size(), 1U);
    EXPECT_EQ(textOf(scan.payloads[0]), "12345");
    EXPECT_EQ(scan.tail, TailStatus::Clean);
}

TEST(CrashingSink, SinkFailureIsNotCorruption) {
    // The two failure modes must stay distinguishable: a dying sink is
    // retryable-after-restart, corrupt bytes are not.
    const SinkFailure failure{"x"};
    EXPECT_EQ(dynamic_cast<const net::CorruptionError*>(
                  static_cast<const net::AioError*>(&failure)),
              nullptr);
}

} // namespace
} // namespace aio::persist
