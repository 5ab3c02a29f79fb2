#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "persist/record.hpp"

// A whole-journal scan for tests that list a journal's records and the
// crash cuts between them. Built only on RecordReader, so it throws
// net::CorruptionError exactly when iterating with the reader would.
namespace aio::persist {

/// Every intact payload, the boundary offset *after* each record, and
/// the tail classification.
struct ScanResult {
    std::vector<std::span<const std::byte>> payloads;
    std::vector<std::size_t> boundaries; ///< offset after record i
    TailStatus tail = TailStatus::Clean;
};

[[nodiscard]] inline ScanResult
scanRecords(std::span<const std::byte> journal) {
    ScanResult out;
    RecordReader reader{journal};
    while (const auto payload = reader.next()) {
        out.payloads.push_back(*payload);
        out.boundaries.push_back(reader.offset());
    }
    out.tail = reader.tail();
    return out;
}

} // namespace aio::persist
