#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "outage/radar.hpp"
#include "persist/bytes.hpp"
#include "stream/event.hpp"

namespace aio::stream {

/// A provisional, low-latency alarm: the online detector saw a run of
/// below-floor sealed samples reach the configured minimum and rang the
/// bell at `detectedAtDay` (the country's stream frontier at that
/// moment). Provisional because the floor it used was the running median
/// of the samples sealed *so far*; the authoritative list is
/// finalDetections(), which re-scans against the full-window floor.
struct OnlineAlert {
    std::string country;
    double startDay = 0.0;      ///< first slot of the below-floor run
    double detectedAtDay = 0.0; ///< frontier when the alarm fired

    [[nodiscard]] bool operator==(const OnlineAlert&) const = default;
};

/// Incremental, watermark-driven refactor of outage::RadarMonitor's
/// detection half: events arrive per (country, slot) in any order, each
/// country's watermark trails its own stream frontier by
/// StreamConfig::watermarkDays, and a slot "seals" once the frontier
/// moves past its watermark. Late events aimed at a sealed slot are
/// counted and dropped — never merged — which is the determinism
/// contract: any delivery schedule whose skew stays inside the watermark
/// produces byte-identical state, alerts and final detections.
///
/// Watermarks are per-country on purpose: lateness then depends only on
/// the order of one country's own events, not on how different
/// countries' events interleave.
///
/// Differential guarantee: after ingesting any complete event log (every
/// slot of every country, in any within-watermark order),
/// finalDetections() equals RadarMonitor::detect over the same series —
/// both paths call the shared outage::detectBelowFloor core.
class OnlineRadarDetector {
public:
    /// `metrics` (optional, not owned) receives stream.detector.*
    /// counters and the `stream.detector.lag_days` histogram.
    OnlineRadarDetector(outage::RadarConfig radar, StreamConfig stream,
                        double windowDays,
                        obs::MetricsRegistry* metrics = nullptr);

    /// Ingests one event (the checkpointed consumer's path).
    void ingest(const MeasurementEvent& event);

    /// ingest() for each event in order.
    void ingestAll(std::span<const MeasurementEvent> events);

    /// Provisional alarms fired so far, grouped by country in
    /// country-table order, chronological within a country.
    [[nodiscard]] std::vector<OnlineAlert> alerts() const;

    /// Authoritative detections over everything ingested: the shared
    /// batch core (outage::detectBelowFloor) run per country with the
    /// full-window floor and the slot-presence mask. On a complete log
    /// this equals the batch RadarMonitor byte for byte.
    [[nodiscard]] std::vector<outage::RadarDetection> finalDetections() const;

    /// Detector-side degradation counters (late drops, duplicate slots,
    /// sealed gaps) accumulated so far.
    [[nodiscard]] DegradationReport degradation() const;

    [[nodiscard]] std::uint64_t eventsIngested() const;

    /// Serialized detector state for a consumer checkpoint: config
    /// digest, every lane's slots/frontier/run state, alerts and
    /// counters. Restoring the bytes into a fresh detector reproduces
    /// this one exactly (operator==-equal state, identical subsequent
    /// behavior).
    [[nodiscard]] std::vector<std::byte> encodeState() const;

    /// Appends the same bytes to `writer`, growing it once to the exact
    /// size: the checkpointing consumer encodes straight into its
    /// record payload.
    void encodeState(persist::ByteWriter& writer) const;

    /// Replaces this detector's state with a previously encoded one,
    /// with nothing pending for the next encodeDelta().
    /// Throws net::PreconditionError when the checkpoint's config digest
    /// differs (resuming under a different config would silently
    /// diverge); net::CorruptionError when the bytes don't decode.
    void restoreState(std::span<const std::byte> bytes);

    /// Appends what changed since construction, restoreState() or the
    /// previous encodeDelta() — whichever came last — and starts the
    /// next delta from here. For each lane an event reached, the delta
    /// holds the lane's name and scalars (frontier, sealed-through, run
    /// state, counters), the (slot, value) of each slot first written
    /// since, and the lane's new alerts. Exact because lane state only
    /// grows: a written slot never changes (a duplicate is only
    /// counted, a late event only dropped), alerts are append-only and
    /// the sorted sealed sample is derived. encodeState() does not
    /// restart the delta, so a full state written between deltas must
    /// be written with nothing pending, as a resumed consumer's anchor
    /// is.
    void encodeDelta(persist::ByteWriter& writer);

    /// Replays one encodeDelta() body on top of this detector's state.
    /// The detector must have nothing pending (fresh, restored or
    /// replayed), and keeps nothing pending. Throws
    /// net::CorruptionError when a slot lies outside the window, below
    /// the lane's sealed frontier or is already present, when a lane's
    /// scalars are out of range or its sealed frontier moves back, or on
    /// trailing bytes; the detector is then unusable and should be
    /// discarded.
    void applyDelta(std::span<const std::byte> bytes);

private:
    struct Lane {
        std::string country;
        std::vector<double> values;        ///< slotCount_ entries
        std::vector<std::uint8_t> present; ///< slotCount_ entries
        std::uint32_t maxSlot = 0;
        bool any = false;
        std::size_t sealedThrough = 0; ///< slots [0, here) are sealed
        std::vector<double> sortedSealed; ///< present sealed values, sorted
        std::size_t runStart = 0;
        int runLen = 0;
        bool alertOpen = false;
        std::uint64_t events = 0;
        std::uint64_t duplicateSlots = 0;
        std::uint64_t lateDropped = 0;
        std::uint64_t sealedGaps = 0;
        std::vector<OnlineAlert> alerts;
        /// What the next encodeDelta() journals: whether an event reached
        /// the lane, the slots first written (arrival order, at most
        /// slotCount_), and how many of `alerts` are already journalled.
        bool touched = false;
        std::vector<std::uint32_t> newSlots;
        std::size_t journalledAlerts = 0;
    };

    /// A lane's scalars, shared by full states and deltas: `any`,
    /// frontier, sealed-through, run state and the four counters.
    static void encodeScalars(persist::ByteWriter& writer,
                              const Lane& lane);
    /// Reads them into `lane`. Throws net::CorruptionError when the
    /// frontier or sealed-through lies past the window.
    void decodeScalars(persist::ByteReader& reader, Lane& lane) const;
    /// The count, then `lane.alerts[from..]` as (startDay,
    /// detectedAtDay) pairs.
    static void encodeAlerts(persist::ByteWriter& writer, const Lane& lane,
                             std::size_t from);
    /// Appends the alerts read to `lane` and marks all of its alerts
    /// journalled.
    static void decodeAlerts(persist::ByteReader& reader, Lane& lane);

    [[nodiscard]] Lane& laneFor(const std::string& country);
    void laneIngest(Lane& lane, const MeasurementEvent& event);
    void sealLane(Lane& lane);
    /// Lanes in readout order: country-table order first, then any
    /// non-African stragglers in name order.
    [[nodiscard]] std::vector<const Lane*> orderedLanes() const;

    outage::RadarConfig radar_;
    std::size_t slotCount_;
    double watermarkSlots_;
    std::uint64_t digest_;
    obs::MetricsRegistry* metrics_;
    /// The registry's instruments, looked up by the first ingested event
    /// and held afterwards; all null without a registry.
    obs::Histogram* lagDays_ = nullptr;
    obs::Counter* events_ = nullptr;
    obs::Counter* lateDropped_ = nullptr;
    obs::Counter* duplicateSlots_ = nullptr;
    obs::Counter* sealedGaps_ = nullptr;
    std::map<std::string, Lane, std::less<>> lanes_;
};

} // namespace aio::stream
