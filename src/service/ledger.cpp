#include "service/ledger.hpp"

#include <set>
#include <utility>

#include "persist/bytes.hpp"

namespace aio::service {

namespace {

/// Payload version tag — bumped if the charge record ever grows fields.
constexpr std::uint8_t kChargeRecordVersion = 1;

} // namespace

void TenantLedger::recordCharge(std::string_view tenant, std::uint64_t seq,
                                double mb, bool offPeak) {
    persist::ByteWriter payload;
    payload.u8(kChargeRecordVersion);
    payload.str(tenant);
    payload.u64(seq);
    payload.f64(mb);
    payload.boolean(offPeak);
    // Write-ahead: a request only executes once its charge is durable.
    writer_.append(payload.bytes());
}

TenantLedger::Replay
TenantLedger::replay(std::span<const std::byte> journal) {
    Replay result;
    persist::RecordReader records{journal};
    std::set<std::pair<std::string, std::uint64_t>> seen;
    while (const auto payload = records.next()) {
        persist::ByteReader reader{*payload};
        const std::uint8_t version = reader.u8();
        if (version != kChargeRecordVersion) {
            throw net::CorruptionError{"unknown tenant-ledger record version"};
        }
        std::string tenant = reader.str();
        const std::uint64_t seq = reader.u64();
        const double mb = reader.f64();
        const bool offPeak = reader.boolean();
        reader.expectEnd("tenant-ledger record");
        result.maxSeq = std::max(result.maxSeq, seq);
        if (!seen.emplace(tenant, seq).second) {
            ++result.duplicates; // re-appended after a failed flush
            continue;
        }
        TenantConsumption& consumption = result.tenants[std::move(tenant)];
        if (offPeak) {
            consumption.offPeakMb += mb;
        } else {
            consumption.peakMb += mb;
        }
        ++consumption.charges;
    }
    result.tornTail = records.tail() == persist::TailStatus::Torn;
    return result;
}

} // namespace aio::service
