#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "obs/metrics.hpp"
#include "persist/bytes.hpp"
#include "persist/record.hpp"

namespace aio::persist {

/// Type of a header-first log's record 0 (see LogReader).
inline constexpr std::uint8_t kHeaderRecord = 1;

/// The append path of every durable log: frames one record with the
/// record codec and flushes the sink before returning, so a record is
/// written only once it would survive a crash.
class LogWriter {
public:
    /// `metrics` (optional, not owned) receives `<prefix>.appends`,
    /// `<prefix>.bytes_written` and `<prefix>.append_seconds`.
    explicit LogWriter(ByteSink& sink,
                       obs::MetricsRegistry* metrics = nullptr,
                       std::string_view prefix = {});

    void append(std::span<const std::byte> payload);

private:
    RecordWriter writer_;
    ByteSink* sink_;
    /// Held registry instruments; all null without a registry.
    const obs::Clock* clock_ = nullptr;
    obs::Histogram* appendSeconds_ = nullptr;
    obs::Counter* appends_ = nullptr;
    obs::Counter* bytesWritten_ = nullptr;
};

/// Reads a header-first log. Record 0 is [u8 kHeaderRecord][u32 version]
/// and the log's header fields; later records are typed in
/// (kHeaderRecord, lastType]. A record before the header, another
/// version, a second header or an unknown type throws
/// net::CorruptionError, as does CRC damage; a torn tail ends the log.
class LogReader {
public:
    /// Reads record 0; `log` names the log in error messages.
    LogReader(std::span<const std::byte> bytes, std::string_view log,
              std::uint32_t version, std::uint8_t lastType);

    /// The header's fields after its version; std::nullopt when the
    /// bytes end, cleanly or torn, before a whole header record.
    [[nodiscard]] std::optional<ByteReader>& header() { return header_; }

    struct Record {
        std::uint8_t type = 0;
        ByteReader body; ///< the payload after its type byte
    };

    /// The next body record; std::nullopt at the end of the log.
    [[nodiscard]] std::optional<Record> next();

    [[nodiscard]] bool tornTail() const {
        return records_.tail() == TailStatus::Torn;
    }

private:
    RecordReader records_;
    std::string_view log_;
    std::uint8_t lastType_;
    std::optional<ByteReader> header_;
};

} // namespace aio::persist
