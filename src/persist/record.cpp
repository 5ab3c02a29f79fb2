#include "persist/record.hpp"

#include <string>

#include "netbase/crc32c.hpp"

namespace aio::persist {

namespace {

constexpr std::size_t kHeaderBytes = 12;

std::uint32_t readU32(std::span<const std::byte> bytes, std::size_t at) {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
        value |= static_cast<std::uint32_t>(bytes[at + i])
                 << (8 * i);
    }
    return value;
}

void putU32(std::byte* out, std::uint32_t value) {
    for (int i = 0; i < 4; ++i) {
        out[i] = static_cast<std::byte>((value >> (8 * i)) & 0xFFU);
    }
}

} // namespace

void CrashingSink::flush() {
    if (remaining_ == 0) {
        // The bytes landed in a buffer; the power died before the flush
        // made them durable.
        throw SinkFailure{"sink failed before flush after " +
                          std::to_string(accepted_) +
                          " bytes (crash injection)"};
    }
    inner_->flush();
}

void CrashingSink::append(std::span<const std::byte> bytes) {
    if (bytes.size() <= remaining_) {
        inner_->append(bytes);
        remaining_ -= bytes.size();
        accepted_ += bytes.size();
        return;
    }
    // The power died mid-write: a prefix lands, the rest never will.
    inner_->append(bytes.first(remaining_));
    accepted_ += remaining_;
    remaining_ = 0;
    throw SinkFailure{"sink failed after " + std::to_string(accepted_) +
                      " bytes (crash injection)"};
}

std::uint64_t RecordWriter::append(std::span<const std::byte> payload) {
    const auto length = static_cast<std::uint32_t>(payload.size());
    std::byte header[kHeaderBytes];
    putU32(header, length);
    const std::uint32_t lenCrc =
        net::crc32c(std::span<const std::byte>{header, 4});
    putU32(header + 4, lenCrc);
    putU32(header + 8, net::crc32c(payload));
    // One append per record: a crash inside it leaves a strict prefix of
    // this record and never touches earlier ones.
    frame_.clear();
    frame_.reserve(kHeaderBytes + payload.size());
    frame_.insert(frame_.end(), header, header + kHeaderBytes);
    frame_.insert(frame_.end(), payload.begin(), payload.end());
    sink_->append(frame_);
    bytes_ += frame_.size();
    return records_++;
}

std::optional<std::span<const std::byte>> RecordReader::next() {
    if (done_) {
        return std::nullopt;
    }
    const std::size_t remaining = journal_.size() - offset_;
    if (remaining == 0) {
        done_ = true;
        tail_ = TailStatus::Clean;
        return std::nullopt;
    }
    if (remaining < kHeaderBytes) {
        // Not even a whole header landed: a torn append, not damage.
        done_ = true;
        tail_ = TailStatus::Torn;
        return std::nullopt;
    }
    const std::uint32_t length = readU32(journal_, offset_);
    const std::uint32_t lenCrc = readU32(journal_, offset_ + 4);
    const std::uint32_t payloadCrc = readU32(journal_, offset_ + 8);
    if (net::crc32c(journal_.subspan(offset_, 4)) != lenCrc) {
        throw net::CorruptionError{
            "record length checksum mismatch at offset " +
            std::to_string(offset_)};
    }
    if (remaining - kHeaderBytes < length) {
        // The length is authentic (its CRC passed) but the payload never
        // finished landing: the classic power-cut tail.
        done_ = true;
        tail_ = TailStatus::Torn;
        return std::nullopt;
    }
    const auto payload = journal_.subspan(offset_ + kHeaderBytes, length);
    if (net::crc32c(payload) != payloadCrc) {
        throw net::CorruptionError{
            "record payload checksum mismatch at offset " +
            std::to_string(offset_)};
    }
    offset_ += kHeaderBytes + length;
    return payload;
}

} // namespace aio::persist
