#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "persist/record.hpp"
#include "stream/event.hpp"

namespace aio::stream {

/// First record of every event log: ties the log to the exact pipeline
/// configuration that wrote it. A consumer replaying under a different
/// config must refuse — an online detector fed a log whose watermark or
/// cadence differs from its own would diverge silently.
struct EventLogHeader {
    std::uint32_t formatVersion = 1;
    std::uint64_t configDigest = 0;
    double samplesPerDay = 4.0;
    double windowDays = 0.0;

    [[nodiscard]] bool operator==(const EventLogHeader&) const = default;
};

/// Append-only, CRC-framed, crash-truncatable event log: the stream's
/// durable backbone. One header record, then one record per accepted
/// event; every append is flushed before returning, so the durable
/// prefix at any crash instant is a clean record boundary (torn tails
/// truncate on read, exactly like CampaignJournal).
class EventLogWriter {
public:
    /// Writes and flushes the header record immediately. `metrics`
    /// (optional, not owned) receives `stream.log.appends` /
    /// `.bytes_written` counters and `stream.log.append_seconds`.
    EventLogWriter(persist::ByteSink& sink, const EventLogHeader& header,
                   obs::MetricsRegistry* metrics = nullptr);

    /// Appends one event record and flushes it to durability.
    void append(const MeasurementEvent& event);

private:
    void appendRecord(std::span<const std::byte> payload);

    persist::RecordWriter writer_;
    persist::ByteSink* sink_;
    /// Held registry instruments; all null without a registry.
    const obs::Clock* clock_ = nullptr;
    obs::Histogram* appendSeconds_ = nullptr;
    obs::Counter* appends_ = nullptr;
    obs::Counter* bytesWritten_ = nullptr;
};

/// An event log read back from bytes.
struct EventLogView {
    EventLogHeader header;
    std::vector<MeasurementEvent> events;
    bool tornTail = false;
};

/// Parses a log byte range. A torn tail is expected (the writer crashed)
/// and reported; CRC damage or an undecodable record throws
/// net::CorruptionError; a missing or malformed header throws too — a
/// log without provenance cannot be replayed honestly.
[[nodiscard]] EventLogView readEventLog(std::span<const std::byte> bytes);

} // namespace aio::stream
