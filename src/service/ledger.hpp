#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>

#include "persist/log.hpp"

namespace aio::service {

/// Write-ahead ledger of tenant charges: one CRC-framed record per
/// admitted request, flushed before the request executes, so billing
/// state survives a service crash. The idempotency key is (tenant, seq)
/// — replay dedupes repeated records, so a crash between append and
/// acknowledgement can never double-charge a tenant's meter on resume.
class TenantLedger {
public:
    /// `sink` (not owned, must outlive the ledger) receives the records.
    explicit TenantLedger(persist::ByteSink& sink) : writer_(sink) {}

    /// Appends + flushes one charge. May throw persist::SinkFailure —
    /// the crash the replay path exists for.
    void recordCharge(std::string_view tenant, std::uint64_t seq,
                      double mb, bool offPeak);

    struct TenantConsumption {
        double peakMb = 0.0;
        double offPeakMb = 0.0;
        std::uint64_t charges = 0; ///< unique (tenant, seq) records
    };

    struct Replay {
        /// Per-tenant deduped consumption, deterministic order.
        std::map<std::string, TenantConsumption> tenants;
        std::uint64_t maxSeq = 0;       ///< highest seq in the journal
        std::uint64_t duplicates = 0;   ///< records dropped by dedupe
        bool tornTail = false;          ///< journal ended mid-record
    };

    /// Replays a journal byte range: skips the torn tail (the crash
    /// signature), dedupes (tenant, seq) repeats, sums the rest. Throws
    /// net::CorruptionError on mid-stream CRC damage and on a malformed
    /// charge record: an unknown version, a short payload, trailing
    /// bytes or an off-peak flag other than 0 or 1.
    [[nodiscard]] static Replay replay(std::span<const std::byte> journal);

private:
    persist::LogWriter writer_;
};

} // namespace aio::service
