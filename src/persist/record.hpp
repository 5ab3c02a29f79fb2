#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netbase/error.hpp"

namespace aio::persist {

/// Raised by a sink whose storage died mid-append — the persist layer's
/// stand-in for the power cut killing the coordinator node. Deliberately
/// NOT a CorruptionError: a failed append leaves a torn tail, which
/// replay truncates and resume survives.
class SinkFailure : public net::AioError {
public:
    explicit SinkFailure(const std::string& what) : AioError(what) {}
};

/// Append-only byte destination the record codec writes through. The
/// contract mirrors a crashing O_APPEND file: an append either lands in
/// full or lands a *prefix* and throws — bytes are never reordered or
/// interleaved with garbage.
///
/// An append may land in a userspace/OS buffer; only flush() makes the
/// accepted bytes durable (fsync in file terms). A crash between append
/// and flush loses the unflushed suffix, so durability claims — "this
/// checkpoint survives a power cut" — are only honest after a flush. The
/// default is a no-op for sinks with no buffering layer (MemorySink).
class ByteSink {
public:
    virtual ~ByteSink() = default;
    virtual void append(std::span<const std::byte> bytes) = 0;
    virtual void flush() {}
};

/// In-memory sink; the tests' and examples' journal "file".
class MemorySink final : public ByteSink {
public:
    void append(std::span<const std::byte> bytes) override {
        data_.insert(data_.end(), bytes.begin(), bytes.end());
    }

    [[nodiscard]] std::span<const std::byte> bytes() const { return data_; }
    [[nodiscard]] std::size_t size() const { return data_.size(); }
    void clear() { data_.clear(); }

private:
    std::vector<std::byte> data_;
};

/// Buffered fake sink modelling an OS page cache: appends land in a
/// pending buffer that a crash would wipe; flush() moves the pending
/// bytes to durable storage. The regression harness for the journal's
/// durability contract — a journal layer that never flushes leaves
/// durable() empty no matter how much it appended.
class BufferingSink final : public ByteSink {
public:
    void append(std::span<const std::byte> bytes) override {
        pending_.insert(pending_.end(), bytes.begin(), bytes.end());
    }

    void flush() override {
        durable_.insert(durable_.end(), pending_.begin(), pending_.end());
        pending_.clear();
    }

    /// What survives a crash: everything flushed so far, nothing after.
    [[nodiscard]] std::span<const std::byte> durable() const {
        return durable_;
    }
    [[nodiscard]] std::size_t pendingBytes() const {
        return pending_.size();
    }

private:
    std::vector<std::byte> pending_;
    std::vector<std::byte> durable_;
};

/// Deterministic crash injection: forwards appends to `inner` until
/// `failAfterBytes` total bytes have been accepted, then writes whatever
/// prefix still fits and throws SinkFailure. When an append exactly
/// exhausts the budget, the append itself succeeds and the *next flush*
/// throws instead — the crash-between-write-and-flush case, where the
/// record reached a buffer but never became durable. Sweeping
/// `failAfterBytes` over every record boundary of a journal is how the
/// crash harness proves resume works from *any* interruption point —
/// including torn mid-record tails and unflushed complete records.
class CrashingSink final : public ByteSink {
public:
    CrashingSink(ByteSink& inner, std::size_t failAfterBytes)
        : inner_(&inner), remaining_(failAfterBytes) {}

    void append(std::span<const std::byte> bytes) override;

    /// Throws SinkFailure once the byte budget is spent (the bytes were
    /// written, the process died before they were made durable);
    /// otherwise forwards to the inner sink.
    void flush() override;

    /// Bytes accepted so far (never exceeds the construction budget).
    [[nodiscard]] std::size_t accepted() const { return accepted_; }

private:
    ByteSink* inner_;
    std::size_t remaining_;
    std::size_t accepted_ = 0;
};

/// Length-prefixed, CRC32C-checksummed record framing.
///
/// Wire format per record (all little-endian):
///
///     u32 payloadLen
///     u32 lenCrc      = crc32c(payloadLen bytes)
///     u32 payloadCrc  = crc32c(payload)
///     payload[payloadLen]
///
/// The separate length CRC is what makes torn-tail vs corruption
/// classification exact: a length field that fails its own CRC is
/// corruption, while a length field that passes but promises more bytes
/// than the file holds is a truncated append.
class RecordWriter {
public:
    explicit RecordWriter(ByteSink& sink) : sink_(&sink) {}

    /// Appends one record. Returns the record's index in the stream.
    std::uint64_t append(std::span<const std::byte> payload);

    [[nodiscard]] std::uint64_t recordCount() const { return records_; }
    [[nodiscard]] std::uint64_t bytesWritten() const { return bytes_; }

private:
    ByteSink* sink_;
    /// The frame of the record being appended, reused so a writer
    /// allocates only when a record outgrows every earlier one.
    std::vector<std::byte> frame_;
    std::uint64_t records_ = 0;
    std::uint64_t bytes_ = 0;
};

/// What the end of a journal looked like once reading stopped.
enum class TailStatus {
    Clean, ///< the journal ends exactly on a record boundary
    Torn   ///< the final record is incomplete — the power-cut signature
};

/// Iterates the records of a byte range. `next()` yields payload views in
/// order; a std::nullopt return means end-of-journal, after which
/// `tail()` says whether the end was clean or torn. Mid-stream damage —
/// a CRC mismatch on either the length field or the payload — throws
/// net::CorruptionError instead, because records after damaged bytes
/// cannot be trusted to be what the writer wrote.
class RecordReader {
public:
    explicit RecordReader(std::span<const std::byte> journal)
        : journal_(journal) {}

    [[nodiscard]] std::optional<std::span<const std::byte>> next();

    /// Valid once next() has returned std::nullopt.
    [[nodiscard]] TailStatus tail() const { return tail_; }

    /// Byte offset just past the last fully-consumed record: always a
    /// record boundary, which is exactly where a torn tail is truncated
    /// to and what the crash sweep enumerates.
    [[nodiscard]] std::size_t offset() const { return offset_; }

private:
    std::span<const std::byte> journal_;
    std::size_t offset_ = 0;
    TailStatus tail_ = TailStatus::Clean;
    bool done_ = false;
};

} // namespace aio::persist
