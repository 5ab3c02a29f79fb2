#include "stream/event_log.hpp"

#include "netbase/error.hpp"

namespace aio::stream {

namespace {

constexpr std::uint8_t kHeaderRecord = 1;
constexpr std::uint8_t kEventRecord = 2;
constexpr std::uint32_t kFormatVersion = 1;

} // namespace

EventLogWriter::EventLogWriter(persist::ByteSink& sink,
                               const EventLogHeader& header,
                               obs::MetricsRegistry* metrics)
    : writer_(sink), sink_(&sink) {
    AIO_EXPECTS(header.formatVersion == kFormatVersion,
                "unsupported event-log format version");
    AIO_EXPECTS(header.samplesPerDay > 0.0 && header.windowDays > 0.0,
                "event-log header needs a positive cadence and window");
    if (metrics != nullptr) {
        clock_ = &metrics->clock();
        appendSeconds_ = &metrics->histogram("stream.log.append_seconds");
        appends_ = &metrics->counter("stream.log.appends");
        bytesWritten_ = &metrics->counter("stream.log.bytes_written");
    }
    persist::ByteWriter payload;
    payload.u8(kHeaderRecord);
    payload.u32(header.formatVersion);
    payload.u64(header.configDigest);
    payload.f64(header.samplesPerDay);
    payload.f64(header.windowDays);
    appendRecord(payload.bytes());
}

void EventLogWriter::append(const MeasurementEvent& event) {
    persist::ByteWriter payload;
    payload.u8(kEventRecord);
    encodeEvent(payload, event);
    appendRecord(payload.bytes());
}

void EventLogWriter::appendRecord(std::span<const std::byte> payload) {
    obs::ScopedTimer timer{appendSeconds_, clock_};
    const std::uint64_t before = writer_.bytesWritten();
    writer_.append(payload);
    // Same durability contract as CampaignJournal: the record is only
    // real once it survives a crash, so flush before returning.
    sink_->flush();
    if (appends_ != nullptr) {
        appends_->add();
        bytesWritten_->add(writer_.bytesWritten() - before);
    }
}

EventLogView readEventLog(std::span<const std::byte> bytes) {
    const persist::ScanResult scan = persist::scanRecords(bytes);
    EventLogView view;
    view.tornTail = scan.tail == persist::TailStatus::Torn;
    bool sawHeader = false;
    for (std::size_t i = 0; i < scan.payloads.size(); ++i) {
        persist::ByteReader reader{scan.payloads[i]};
        const std::uint8_t type = reader.u8();
        if (type == kHeaderRecord) {
            if (sawHeader) {
                throw net::CorruptionError{
                    "event log holds a second header record"};
            }
            sawHeader = true;
            view.header.formatVersion = reader.u32();
            if (view.header.formatVersion != kFormatVersion) {
                throw net::CorruptionError{
                    "event log written by format version " +
                    std::to_string(view.header.formatVersion) +
                    ", reader understands " +
                    std::to_string(kFormatVersion)};
            }
            view.header.configDigest = reader.u64();
            view.header.samplesPerDay = reader.f64();
            view.header.windowDays = reader.f64();
        } else if (type == kEventRecord) {
            if (!sawHeader) {
                throw net::CorruptionError{
                    "event log starts with an event record, not a header"};
            }
            view.events.push_back(decodeEvent(reader));
        } else {
            throw net::CorruptionError{"event log holds unknown record type " +
                                       std::to_string(type)};
        }
        if (!reader.atEnd()) {
            throw net::CorruptionError{
                "event-log record carries trailing bytes"};
        }
    }
    if (!sawHeader) {
        throw net::CorruptionError{
            "event log has no intact header record"};
    }
    return view;
}

} // namespace aio::stream
