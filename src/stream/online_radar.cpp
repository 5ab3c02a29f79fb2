#include "stream/online_radar.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "netbase/error.hpp"
#include "netbase/region.hpp"

namespace aio::stream {

namespace {

constexpr std::uint32_t kStateVersion = 1;

/// Encoded size of OnlineRadarDetector::encodeScalars: any, maxSlot,
/// sealedThrough, runStart, runLen, alertOpen and four u64 counters.
constexpr std::size_t kScalarBytes = 1 + 4 + 8 + 8 + 4 + 1 + 4 * 8;

/// Lag buckets in days: fractions of the watermark up to "hopeless".
constexpr std::array<double, 6> kLagBoundsDays{0.25, 0.5, 1.0,
                                               2.0,  4.0, 8.0};

/// Adds one to a held registry counter; null without a registry.
void count(obs::Counter* counter) {
    if (counter != nullptr) {
        counter->add();
    }
}

/// Median of an already-sorted sample; matches net::median's
/// rank-interpolation for the 50th percentile.
double sortedMedian(const std::vector<double>& sorted) {
    const std::size_t n = sorted.size();
    if (n % 2 == 1) {
        return sorted[n / 2];
    }
    return 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

} // namespace

OnlineRadarDetector::OnlineRadarDetector(outage::RadarConfig radar,
                                         StreamConfig stream,
                                         double windowDays,
                                         obs::MetricsRegistry* metrics)
    : radar_(radar),
      slotCount_(static_cast<std::size_t>(windowDays *
                                          radar.samplesPerDay)),
      watermarkSlots_(stream.watermarkDays * radar.samplesPerDay),
      digest_(streamConfigDigest(radar, stream, windowDays)),
      metrics_(metrics) {
    AIO_EXPECTS(std::isfinite(windowDays) && windowDays > 0.0,
                "windowDays must be positive and finite");
    AIO_EXPECTS(slotCount_ >= 1, "window shorter than one sample slot");
}

OnlineRadarDetector::Lane&
OnlineRadarDetector::laneFor(const std::string& country) {
    if (const auto it = laneIndex_.find(country); it != laneIndex_.end()) {
        return *it->second;
    }
    const auto [it, created] = lanes_.try_emplace(country);
    Lane& lane = it->second;
    if (created) {
        lane.country = country;
        lane.values.assign(slotCount_, 0.0);
        lane.present.assign(slotCount_, 0);
    }
    laneIndex_.emplace(country, &lane);
    return lane;
}

void OnlineRadarDetector::laneIngest(Lane& lane,
                                     const MeasurementEvent& event) {
    AIO_EXPECTS(event.slot < slotCount_,
                "event slot lies beyond the configured window");
    if (metrics_ != nullptr && lagDays_ == nullptr) {
        lagDays_ =
            &metrics_->histogram("stream.detector.lag_days", kLagBoundsDays);
        events_ = &metrics_->counter("stream.detector.events");
        lateDropped_ = &metrics_->counter("stream.detector.late_dropped");
        duplicateSlots_ =
            &metrics_->counter("stream.detector.duplicate_slots");
        sealedGaps_ = &metrics_->counter("stream.detector.sealed_gaps");
    }
    ++lane.events;
    count(events_);
    lane.touched = true;
    if (lagDays_ != nullptr) {
        // Lag relative to the country's own frontier, before this event
        // moves it: a pure function of per-country event order.
        lagDays_->record(lane.any && lane.maxSlot > event.slot
                             ? static_cast<double>(lane.maxSlot -
                                                   event.slot) /
                                   radar_.samplesPerDay
                             : 0.0);
    }
    if (event.slot < lane.sealedThrough) {
        // Behind the watermark: the slot's fate is already decided.
        // Merging now would make results depend on delivery order, so
        // the event is counted and dropped — the honesty ledger.
        ++lane.lateDropped;
        count(lateDropped_);
        return;
    }
    if (lane.present[event.slot] != 0) {
        ++lane.duplicateSlots;
        count(duplicateSlots_);
        return;
    }
    lane.present[event.slot] = 1;
    lane.values[event.slot] = event.value;
    lane.newSlots.push_back(event.slot);
    if (!lane.any || event.slot > lane.maxSlot) {
        lane.maxSlot = event.slot;
        lane.any = true;
        sealLane(lane);
    }
}

void OnlineRadarDetector::sealLane(Lane& lane) {
    // Slot s seals once the frontier passes its watermark:
    // s < maxSlot - watermarkSlots. The epsilon dodges float fuzz when
    // the watermark is a fractional number of slots.
    const double limit =
        static_cast<double>(lane.maxSlot) - watermarkSlots_;
    const auto sealCount = static_cast<std::size_t>(std::clamp(
        std::ceil(limit - 1e-9), 0.0, static_cast<double>(slotCount_)));
    while (lane.sealedThrough < sealCount) {
        const std::size_t slot = lane.sealedThrough;
        if (lane.present[slot] == 0) {
            // Sealed with no sample: a permanent hole in the series.
            ++lane.sealedGaps;
            count(sealedGaps_);
            lane.runLen = 0;
            lane.alertOpen = false;
        } else {
            const double value = lane.values[slot];
            lane.sortedSealed.insert(
                std::ranges::lower_bound(lane.sortedSealed, value), value);
            // Provisional floor: running median over what has sealed so
            // far. Cheap, causal, and close to the final floor once a
            // few quiet days are in — but only finalDetections() is
            // authoritative.
            const double floor = sortedMedian(lane.sortedSealed) *
                                 (1.0 - radar_.dropThreshold);
            if (value < floor) {
                if (lane.runLen == 0) {
                    lane.runStart = slot;
                }
                ++lane.runLen;
                if (lane.runLen >= radar_.minConsecutiveSamples &&
                    !lane.alertOpen) {
                    OnlineAlert alert;
                    alert.country = lane.country;
                    alert.startDay = static_cast<double>(lane.runStart) /
                                     radar_.samplesPerDay;
                    alert.detectedAtDay =
                        static_cast<double>(lane.maxSlot) /
                        radar_.samplesPerDay;
                    lane.alerts.push_back(std::move(alert));
                    lane.alertOpen = true;
                }
            } else {
                lane.runLen = 0;
                lane.alertOpen = false;
            }
        }
        ++lane.sealedThrough;
    }
}

void OnlineRadarDetector::ingest(const MeasurementEvent& event) {
    laneIngest(laneFor(event.country), event);
}

void OnlineRadarDetector::ingestAll(
    std::span<const MeasurementEvent> events) {
    for (const MeasurementEvent& event : events) {
        ingest(event);
    }
}

std::vector<const OnlineRadarDetector::Lane*>
OnlineRadarDetector::orderedLanes() const {
    std::vector<const Lane*> ordered;
    ordered.reserve(lanes_.size());
    std::vector<const Lane*> african;
    for (const auto* country : net::CountryTable::world().african()) {
        const auto it = lanes_.find(country->iso2);
        if (it != lanes_.end()) {
            ordered.push_back(&it->second);
        }
    }
    for (const auto& [name, lane] : lanes_) {
        if (std::ranges::find(ordered, &lane) == ordered.end()) {
            ordered.push_back(&lane);
        }
    }
    return ordered;
}

std::vector<OnlineAlert> OnlineRadarDetector::alerts() const {
    std::vector<OnlineAlert> out;
    for (const Lane* lane : orderedLanes()) {
        out.insert(out.end(), lane->alerts.begin(), lane->alerts.end());
    }
    return out;
}

std::vector<outage::RadarDetection>
OnlineRadarDetector::finalDetections() const {
    std::vector<outage::RadarDetection> out;
    for (const Lane* lane : orderedLanes()) {
        const double floor =
            outage::seriesFloor(lane->values, lane->present, radar_);
        auto detections = outage::detectBelowFloor(
            lane->country, lane->values, lane->present, floor,
            radar_.samplesPerDay, radar_);
        for (auto& detection : detections) {
            out.push_back(std::move(detection));
        }
    }
    return out;
}

DegradationReport OnlineRadarDetector::degradation() const {
    DegradationReport report;
    for (const auto& [country, lane] : lanes_) {
        report.duplicateSlots += lane.duplicateSlots;
        report.lateDropped += lane.lateDropped;
        report.sealedGaps += lane.sealedGaps;
        if (lane.lateDropped > 0) {
            report.lateByCountry[country] += lane.lateDropped;
        }
    }
    return report;
}

std::uint64_t OnlineRadarDetector::eventsIngested() const {
    std::uint64_t total = 0;
    for (const auto& [country, lane] : lanes_) {
        total += lane.events;
    }
    return total;
}

std::vector<std::byte> OnlineRadarDetector::encodeState() const {
    persist::ByteWriter writer;
    encodeState(writer);
    return {writer.bytes().begin(), writer.bytes().end()};
}

void OnlineRadarDetector::encodeScalars(persist::ByteWriter& writer,
                                        const Lane& lane) {
    writer.boolean(lane.any);
    writer.u32(lane.maxSlot);
    writer.u64(lane.sealedThrough);
    writer.u64(lane.runStart);
    writer.i32(lane.runLen);
    writer.boolean(lane.alertOpen);
    writer.u64(lane.events);
    writer.u64(lane.duplicateSlots);
    writer.u64(lane.lateDropped);
    writer.u64(lane.sealedGaps);
}

void OnlineRadarDetector::decodeScalars(persist::ByteReader& reader,
                                        Lane& lane) const {
    lane.any = reader.boolean();
    lane.maxSlot = reader.u32();
    lane.sealedThrough = reader.u64();
    lane.runStart = reader.u64();
    lane.runLen = reader.i32();
    lane.alertOpen = reader.boolean();
    lane.events = reader.u64();
    lane.duplicateSlots = reader.u64();
    lane.lateDropped = reader.u64();
    lane.sealedGaps = reader.u64();
    if (lane.sealedThrough > slotCount_ ||
        (lane.any && lane.maxSlot >= slotCount_)) {
        throw net::CorruptionError{
            "detector checkpoint lane state is out of range"};
    }
}

void OnlineRadarDetector::encodeAlerts(persist::ByteWriter& writer,
                                       const Lane& lane, std::size_t from) {
    writer.u32(static_cast<std::uint32_t>(lane.alerts.size() - from));
    for (std::size_t a = from; a < lane.alerts.size(); ++a) {
        writer.f64(lane.alerts[a].startDay);
        writer.f64(lane.alerts[a].detectedAtDay);
    }
}

void OnlineRadarDetector::decodeAlerts(persist::ByteReader& reader,
                                       Lane& lane) {
    const std::uint32_t alertCount = reader.u32();
    for (std::uint32_t a = 0; a < alertCount; ++a) {
        OnlineAlert alert;
        alert.country = lane.country;
        alert.startDay = reader.f64();
        alert.detectedAtDay = reader.f64();
        lane.alerts.push_back(std::move(alert));
    }
    lane.journalledAlerts = lane.alerts.size();
}

void OnlineRadarDetector::encodeState(persist::ByteWriter& writer) const {
    // The exact size of what follows: the fixed header, then per lane
    // its name, scalars, slot arrays and alerts.
    std::size_t size = 4 + 8 + 8 + 4;
    for (const auto& [country, lane] : lanes_) {
        size += 4 + country.size() + kScalarBytes + slotCount_ * (1 + 8) +
                4 + lane.alerts.size() * 2 * 8;
    }
    writer.reserve(size);
    writer.u32(kStateVersion);
    writer.u64(digest_);
    writer.u64(slotCount_);
    writer.u32(static_cast<std::uint32_t>(lanes_.size()));
    for (const auto& [country, lane] : lanes_) {
        writer.str(country);
        encodeScalars(writer, lane);
        writer.raw(std::as_bytes(std::span{lane.present}));
        writer.f64s(lane.values);
        encodeAlerts(writer, lane, 0);
    }
}

void OnlineRadarDetector::restoreState(std::span<const std::byte> bytes) {
    persist::ByteReader reader{bytes};
    const std::uint32_t version = reader.u32();
    if (version != kStateVersion) {
        throw net::CorruptionError{
            "detector checkpoint has state version " +
            std::to_string(version) + ", reader understands " +
            std::to_string(kStateVersion)};
    }
    const std::uint64_t digest = reader.u64();
    AIO_EXPECTS(digest == digest_,
                "detector checkpoint was written under a different "
                "radar/stream configuration");
    const std::uint64_t slots = reader.u64();
    if (slots != slotCount_) {
        throw net::CorruptionError{
            "detector checkpoint disagrees about the slot count"};
    }
    std::map<std::string, Lane, std::less<>> lanes;
    const std::uint32_t laneCount = reader.u32();
    for (std::uint32_t i = 0; i < laneCount; ++i) {
        std::string country = reader.str();
        Lane lane;
        lane.country = country;
        decodeScalars(reader, lane);
        lane.present.resize(slotCount_);
        std::memcpy(lane.present.data(), reader.raw(slotCount_).data(),
                    slotCount_);
        lane.values.resize(slotCount_);
        reader.f64s(lane.values);
        // The sorted sealed sample is derived state: rebuild instead of
        // trusting (or shipping) a second copy of the same numbers.
        for (std::size_t s = 0; s < lane.sealedThrough; ++s) {
            if (lane.present[s] != 0) {
                lane.sortedSealed.push_back(lane.values[s]);
            }
        }
        std::ranges::sort(lane.sortedSealed);
        decodeAlerts(reader, lane);
        lanes.emplace(std::move(country), std::move(lane));
    }
    reader.expectEnd("detector checkpoint");
    // Metrics count events as they are ingested, so a resumed process
    // reports the work it does, not the work the crashed process
    // already reported.
    lanes_ = std::move(lanes);
    laneIndex_.clear();
}

void OnlineRadarDetector::encodeDelta(persist::ByteWriter& writer) {
    std::size_t size = 4;
    std::uint32_t touched = 0;
    for (const auto& [country, lane] : lanes_) {
        if (lane.touched) {
            ++touched;
            size += 4 + country.size() + kScalarBytes + 4 +
                    lane.newSlots.size() * (4 + 8) + 4 +
                    (lane.alerts.size() - lane.journalledAlerts) * 2 * 8;
        }
    }
    writer.reserve(size);
    writer.u32(touched);
    for (auto& [country, lane] : lanes_) {
        if (!lane.touched) {
            continue;
        }
        writer.str(country);
        encodeScalars(writer, lane);
        writer.u32(static_cast<std::uint32_t>(lane.newSlots.size()));
        for (const std::uint32_t slot : lane.newSlots) {
            writer.u32(slot);
            writer.f64(lane.values[slot]);
        }
        encodeAlerts(writer, lane, lane.journalledAlerts);
        lane.touched = false;
        lane.newSlots.clear();
        lane.journalledAlerts = lane.alerts.size();
    }
}

void OnlineRadarDetector::applyDelta(std::span<const std::byte> bytes) {
    persist::ByteReader reader{bytes};
    const std::uint32_t laneCount = reader.u32();
    for (std::uint32_t i = 0; i < laneCount; ++i) {
        Lane& lane = laneFor(reader.str());
        const std::size_t sealedBefore = lane.sealedThrough;
        decodeScalars(reader, lane);
        if (lane.sealedThrough < sealedBefore) {
            throw net::CorruptionError{
                "detector delta moves a lane's sealed frontier back"};
        }
        const std::uint32_t slotCount = reader.u32();
        for (std::uint32_t n = 0; n < slotCount; ++n) {
            const std::uint32_t slot = reader.u32();
            const double value = reader.f64();
            // A slot below the old sealed frontier was sealed without
            // it, and the live detector drops such late events.
            if (slot >= slotCount_ || slot < sealedBefore) {
                throw net::CorruptionError{
                    "detector delta writes slot " + std::to_string(slot) +
                    " outside the lane's open window"};
            }
            if (lane.present[slot] != 0) {
                throw net::CorruptionError{
                    "detector delta rewrites present slot " +
                    std::to_string(slot)};
            }
            lane.present[slot] = 1;
            lane.values[slot] = value;
        }
        // Extend the derived sorted sample the way sealLane does: the
        // newly sealed slots, in slot order.
        for (std::size_t s = sealedBefore; s < lane.sealedThrough; ++s) {
            if (lane.present[s] != 0) {
                const double value = lane.values[s];
                lane.sortedSealed.insert(
                    std::ranges::lower_bound(lane.sortedSealed, value),
                    value);
            }
        }
        decodeAlerts(reader, lane);
    }
    reader.expectEnd("detector delta");
}

} // namespace aio::stream
