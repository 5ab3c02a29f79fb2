#include "persist/log.hpp"

#include <string>

#include "netbase/error.hpp"

namespace aio::persist {

LogWriter::LogWriter(ByteSink& sink, obs::MetricsRegistry* metrics,
                     std::string_view prefix)
    : writer_(sink), sink_(&sink) {
    if (metrics != nullptr) {
        const std::string name{prefix};
        clock_ = &metrics->clock();
        appendSeconds_ = &metrics->histogram(name + ".append_seconds");
        appends_ = &metrics->counter(name + ".appends");
        bytesWritten_ = &metrics->counter(name + ".bytes_written");
    }
}

void LogWriter::append(std::span<const std::byte> payload) {
    const obs::ScopedTimer timer{appendSeconds_, clock_};
    const std::uint64_t before = writer_.bytesWritten();
    writer_.append(payload);
    sink_->flush();
    if (appends_ != nullptr) {
        appends_->add();
        bytesWritten_->add(writer_.bytesWritten() - before);
    }
}

LogReader::LogReader(std::span<const std::byte> bytes, std::string_view log,
                     std::uint32_t version, std::uint8_t lastType)
    : records_(bytes), log_(log), lastType_(lastType) {
    const auto first = records_.next();
    if (!first) {
        return;
    }
    ByteReader header{*first};
    if (header.u8() != kHeaderRecord) {
        throw net::CorruptionError{std::string{log} +
                                   " does not start with a header record"};
    }
    const std::uint32_t found = header.u32();
    if (found != version) {
        throw net::CorruptionError{
            std::string{log} + " has format version " +
            std::to_string(found) + ", reader understands " +
            std::to_string(version)};
    }
    header_ = header;
}

std::optional<LogReader::Record> LogReader::next() {
    const auto payload = records_.next();
    if (!payload) {
        return std::nullopt;
    }
    Record record{0, ByteReader{*payload}};
    record.type = record.body.u8();
    if (record.type == kHeaderRecord) {
        throw net::CorruptionError{std::string{log_} +
                                   " holds a second header record"};
    }
    if (record.type == 0 || record.type > lastType_) {
        throw net::CorruptionError{std::string{log_} +
                                   " holds unknown record type " +
                                   std::to_string(record.type)};
    }
    return record;
}

} // namespace aio::persist
