#include "stream/event.hpp"

#include <cmath>

#include "netbase/error.hpp"

namespace aio::stream {

void encodeEvent(persist::ByteWriter& writer, const MeasurementEvent& event) {
    writer.u64(event.probe);
    writer.u32(event.session);
    writer.u64(event.seq);
    writer.str(event.country);
    writer.u32(event.slot);
    writer.f64(event.value);
}

MeasurementEvent decodeEvent(persist::ByteReader& reader) {
    MeasurementEvent event;
    event.probe = reader.u64();
    event.session = reader.u32();
    event.seq = reader.u64();
    event.country = reader.str();
    event.slot = reader.u32();
    event.value = reader.f64();
    return event;
}

void StreamConfig::validate() const {
    AIO_EXPECTS(std::isfinite(watermarkDays) && watermarkDays >= 0.0,
                "watermarkDays must be non-negative and finite");
    AIO_EXPECTS(queueCapacity >= 1, "queueCapacity must be at least 1");
    AIO_EXPECTS(dedupeWindow >= 1, "dedupeWindow must be at least 1");
    AIO_EXPECTS(checkpointEveryEvents >= 1,
                "checkpointEveryEvents must be at least 1");
}

std::uint64_t streamConfigDigest(const outage::RadarConfig& radar,
                                 const StreamConfig& stream,
                                 double windowDays) {
    radar.validate();
    stream.validate();
    persist::ByteWriter writer;
    writer.f64(radar.samplesPerDay);
    writer.f64(radar.noiseStddev);
    writer.f64(radar.dropThreshold);
    writer.i32(radar.minConsecutiveSamples);
    writer.f64(stream.watermarkDays);
    writer.u64(stream.queueCapacity);
    writer.u64(stream.dedupeWindow);
    writer.u64(stream.checkpointEveryEvents);
    writer.f64(windowDays);
    return persist::fnv1a64(writer.bytes());
}

void DegradationReport::merge(const DegradationReport& other) {
    eventsDelivered += other.eventsDelivered;
    eventsAccepted += other.eventsAccepted;
    duplicatesDropped += other.duplicatesDropped;
    staleSessions += other.staleSessions;
    reconnects += other.reconnects;
    backpressureStalls += other.backpressureStalls;
    duplicateSlots += other.duplicateSlots;
    lateDropped += other.lateDropped;
    sealedGaps += other.sealedGaps;
    for (const auto& [country, count] : other.lateByCountry) {
        lateByCountry[country] += count;
    }
}

} // namespace aio::stream
