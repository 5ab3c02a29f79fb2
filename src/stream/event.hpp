#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "outage/radar.hpp"
#include "persist/bytes.hpp"

namespace aio::stream {

/// One timestamped probe measurement: probe `probe` (in session
/// `session`, sequence `seq`) observed traffic level `value` for its
/// country at series slot `slot`. The (probe, session, seq) triple is the
/// at-least-once identity — redelivered copies repeat it exactly, which
/// is how the ingestor recognises them — while (country, slot) is the
/// *semantic* identity the detector keys on.
struct MeasurementEvent {
    std::uint64_t probe = 0;
    std::uint32_t session = 0;
    std::uint64_t seq = 0;
    std::string country; ///< ISO-3166 alpha-2
    std::uint32_t slot = 0; ///< index into the country's traffic series
    double value = 0.0;

    /// Emission time in days given the series cadence.
    [[nodiscard]] double dayAt(double samplesPerDay) const {
        return static_cast<double>(slot) / samplesPerDay;
    }

    [[nodiscard]] bool operator==(const MeasurementEvent&) const = default;
};

void encodeEvent(persist::ByteWriter& writer, const MeasurementEvent& event);
[[nodiscard]] MeasurementEvent decodeEvent(persist::ByteReader& reader);

/// Knobs of the streaming pipeline itself (the detection math lives in
/// outage::RadarConfig).
struct StreamConfig {
    /// How long a slot stays open for late arrivals, in days behind the
    /// country's observed frontier. Events landing behind the watermark
    /// are counted and dropped, never merged — that is the determinism
    /// contract: any delivery order whose skew stays within the watermark
    /// yields byte-identical final detections.
    double watermarkDays = 1.0;
    /// Capture-ring capacity; a full ring is a backpressure stall (the
    /// producer blocks while the consumer drains a batch).
    std::size_t queueCapacity = 256;
    /// Per-probe redelivery memory: sequence numbers further than this
    /// behind the newest seen are no longer tracked individually and are
    /// conservatively treated as redeliveries.
    std::uint64_t dedupeWindow = 512;
    /// Consumer checkpoint cadence, in accepted events.
    std::uint64_t checkpointEveryEvents = 64;

    /// Throws net::PreconditionError when the watermark is negative or
    /// non-finite, or any capacity/cadence is zero.
    void validate() const;
};

/// Fingerprint of everything the online detector's result depends on:
/// detection math, stream knobs and the series window. Event logs and
/// checkpoints both carry it, so resuming against a different
/// configuration is refused instead of silently diverging.
[[nodiscard]] std::uint64_t streamConfigDigest(
    const outage::RadarConfig& radar, const StreamConfig& stream,
    double windowDays);

/// What the pipeline lost or absorbed, per run: the honesty report the
/// tentpole requires. Within-watermark faults only ever move counters
/// here (duplicates, stalls, redeliveries) — final detections stay
/// byte-identical. Beyond-watermark losses show up as `lateDropped` /
/// `sealedGaps`, the signal that detections may now under-report.
struct DegradationReport {
    std::uint64_t eventsDelivered = 0;   ///< copies offered to the ingestor
    std::uint64_t eventsAccepted = 0;    ///< survived dedupe, hit the log
    std::uint64_t duplicatesDropped = 0; ///< redelivered (session,seq) pairs
    std::uint64_t staleSessions = 0;     ///< copies from pre-reconnect sessions
    std::uint64_t reconnects = 0;        ///< probe session changes observed
    std::uint64_t backpressureStalls = 0;///< capture-ring full events
    std::uint64_t duplicateSlots = 0;    ///< same (country,slot) seen twice
    std::uint64_t lateDropped = 0;       ///< events behind the watermark
    std::uint64_t sealedGaps = 0;        ///< slots sealed with no sample
    std::map<std::string, std::uint64_t> lateByCountry;

    /// Field-wise sum (ingestor counters + detector counters combine into
    /// one report).
    void merge(const DegradationReport& other);

    /// True when every final detection is trustworthy: nothing was lost
    /// beyond the watermark.
    [[nodiscard]] bool lossless() const {
        return lateDropped == 0 && sealedGaps == 0;
    }

    [[nodiscard]] bool operator==(const DegradationReport&) const = default;
};

} // namespace aio::stream
