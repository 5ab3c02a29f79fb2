#include "stream/event_log.hpp"

#include "netbase/error.hpp"

namespace aio::stream {

namespace {

constexpr std::uint8_t kEventRecord = 2;
constexpr std::uint32_t kFormatVersion = 1;

} // namespace

EventLogWriter::EventLogWriter(persist::ByteSink& sink,
                               const EventLogHeader& header,
                               obs::MetricsRegistry* metrics)
    : log_(sink, metrics, "stream.log") {
    AIO_EXPECTS(header.samplesPerDay > 0.0 && header.windowDays > 0.0,
                "event-log header needs a positive cadence and window");
    persist::ByteWriter payload;
    payload.u8(persist::kHeaderRecord);
    payload.u32(kFormatVersion);
    payload.u64(header.configDigest);
    payload.f64(header.samplesPerDay);
    payload.f64(header.windowDays);
    log_.append(payload.bytes());
}

void EventLogWriter::append(const MeasurementEvent& event) {
    persist::ByteWriter payload;
    payload.u8(kEventRecord);
    encodeEvent(payload, event);
    log_.append(payload.bytes());
}

EventLogView readEventLog(std::span<const std::byte> bytes) {
    persist::LogReader reader{bytes, "event log", kFormatVersion,
                              kEventRecord};
    auto& header = reader.header();
    if (!header) {
        throw net::CorruptionError{"event log has no intact header record"};
    }
    EventLogView view;
    view.header.configDigest = header->u64();
    view.header.samplesPerDay = header->f64();
    view.header.windowDays = header->f64();
    header->expectEnd("event-log header");
    while (auto record = reader.next()) {
        view.events.push_back(decodeEvent(record->body));
        record->body.expectEnd("event-log record");
    }
    view.tornTail = reader.tornTail();
    return view;
}

} // namespace aio::stream
