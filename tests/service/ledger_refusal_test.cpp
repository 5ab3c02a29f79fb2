#include "service/ledger.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>

#include "netbase/error.hpp"
#include "persist/bytes.hpp"
#include "persist/record.hpp"

// A charge record whose CRC passed but whose payload the ledger's own
// writer could not have produced is refused like every other log's
// malformed record: net::CorruptionError, never a silently wrong bill.
namespace aio::service {
namespace {

/// recordCharge's payload, field by field.
persist::ByteWriter charge(std::uint8_t version, std::uint8_t offPeak) {
    persist::ByteWriter payload;
    payload.u8(version);
    payload.str("tenant-a");
    payload.u64(7);
    payload.f64(2.5);
    payload.u8(offPeak);
    return payload;
}

persist::MemorySink framed(std::span<const std::byte> payload) {
    persist::MemorySink sink;
    persist::RecordWriter writer{sink};
    (void)writer.append(payload);
    return sink;
}

void expectRefused(std::span<const std::byte> payload) {
    const persist::MemorySink sink = framed(payload);
    EXPECT_THROW((void)TenantLedger::replay(sink.bytes()),
                 net::CorruptionError);
}

TEST(TenantLedger, HandWrittenChargeMatchesTheWriter) {
    persist::MemorySink written;
    TenantLedger{written}.recordCharge("tenant-a", 7, 2.5, false);
    EXPECT_TRUE(std::ranges::equal(framed(charge(1, 0).bytes()).bytes(),
                                   written.bytes()));
}

TEST(TenantLedger, UnknownChargeVersionIsCorruption) {
    expectRefused(charge(2, 0).bytes());
}

TEST(TenantLedger, TruncatedChargeIsCorruption) {
    const persist::ByteWriter payload = charge(1, 0);
    expectRefused(payload.bytes().first(payload.size() - 1));
}

TEST(TenantLedger, TrailingBytesAfterAChargeAreCorruption) {
    persist::ByteWriter payload = charge(1, 0);
    payload.u8(0);
    expectRefused(payload.bytes());
}

TEST(TenantLedger, OffPeakFlagAboveOneIsCorruption) {
    expectRefused(charge(1, 2).bytes());
}

} // namespace
} // namespace aio::service
