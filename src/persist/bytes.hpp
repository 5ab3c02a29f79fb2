#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netbase/error.hpp"

namespace aio::persist {

/// Append-only little-endian encoder for record payloads. All multi-byte
/// integers are packed explicitly in little-endian byte order so journals
/// are portable across hosts; doubles travel as their IEEE-754 bit
/// pattern, which is what makes checkpointed clocks and budgets replay
/// *exactly*.
class ByteWriter {
public:
    /// Starts with room for a small record, so event, outcome and ledger
    /// records allocate once.
    ByteWriter() { buf_.reserve(64); }

    /// Makes room for `more` further bytes, so a writer that knows a
    /// larger record's size grows the buffer once.
    void reserve(std::size_t more) { buf_.reserve(buf_.size() + more); }

    void u8(std::uint8_t value) {
        buf_.push_back(static_cast<std::byte>(value));
    }

    void u32(std::uint32_t value) { fixed<4>(value); }

    void u64(std::uint64_t value) { fixed<8>(value); }

    void i32(std::int32_t value) { u32(static_cast<std::uint32_t>(value)); }

    void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }

    /// `values.size()` consecutive f64 fields: one copy on little-endian
    /// hosts, where a double's memory already is its encoding.
    void f64s(std::span<const double> values) {
        if constexpr (std::endian::native == std::endian::little) {
            raw(std::as_bytes(values));
        } else {
            for (const double value : values) {
                f64(value);
            }
        }
    }

    void boolean(bool value) { u8(value ? 1 : 0); }

    void str(std::string_view value) {
        u32(static_cast<std::uint32_t>(value.size()));
        raw(std::as_bytes(std::span{value}));
    }

    void raw(std::span<const std::byte> data) {
        buf_.insert(buf_.end(), data.begin(), data.end());
    }

    [[nodiscard]] std::span<const std::byte> bytes() const { return buf_; }
    [[nodiscard]] std::size_t size() const { return buf_.size(); }

private:
    /// The low `N` bytes of `value`, least significant first, appended
    /// as one block.
    template <std::size_t N> void fixed(std::uint64_t value) {
        std::array<std::byte, N> le{};
        for (std::size_t i = 0; i < N; ++i) {
            le[i] = static_cast<std::byte>((value >> (8 * i)) & 0xFFU);
        }
        raw(le);
    }

    std::vector<std::byte> buf_;
};

/// Matching decoder. Every overrun or malformed field throws
/// net::CorruptionError — by the time a ByteReader runs, the record's CRC
/// has already passed, so a decode failure means the *writer* and reader
/// disagree about the format, which resume must refuse to paper over.
class ByteReader {
public:
    explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

    [[nodiscard]] std::uint8_t u8() {
        need(1);
        return static_cast<std::uint8_t>(data_[pos_++]);
    }

    [[nodiscard]] std::uint32_t u32() {
        need(4);
        std::uint32_t value = 0;
        for (int shift = 0; shift < 32; shift += 8) {
            value |= static_cast<std::uint32_t>(data_[pos_++]) << shift;
        }
        return value;
    }

    [[nodiscard]] std::uint64_t u64() {
        need(8);
        std::uint64_t value = 0;
        for (int shift = 0; shift < 64; shift += 8) {
            value |= static_cast<std::uint64_t>(data_[pos_++]) << shift;
        }
        return value;
    }

    [[nodiscard]] std::int32_t i32() {
        return static_cast<std::int32_t>(u32());
    }

    [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }

    /// Fills `out` from `out.size()` consecutive f64 fields, mirroring
    /// ByteWriter::f64s: one copy on little-endian hosts.
    void f64s(std::span<double> out) {
        if constexpr (std::endian::native == std::endian::little) {
            const auto bytes = raw(out.size_bytes());
            if (!out.empty()) {
                std::memcpy(out.data(), bytes.data(), bytes.size());
            }
        } else {
            for (double& value : out) {
                value = f64();
            }
        }
    }

    /// The next `count` bytes, as a view into the payload.
    [[nodiscard]] std::span<const std::byte> raw(std::size_t count) {
        need(count);
        const auto out = data_.subspan(pos_, count);
        pos_ += count;
        return out;
    }

    [[nodiscard]] bool boolean() {
        const std::uint8_t value = u8();
        if (value > 1) {
            throw net::CorruptionError{"boolean field holds " +
                                       std::to_string(value)};
        }
        return value == 1;
    }

    [[nodiscard]] std::string str() {
        const auto bytes = raw(u32());
        return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
    }

    [[nodiscard]] bool atEnd() const { return pos_ == data_.size(); }
    [[nodiscard]] std::size_t remaining() const {
        return data_.size() - pos_;
    }

    /// Throws unless every byte was decoded; `what` names the payload.
    void expectEnd(std::string_view what) const {
        if (!atEnd()) {
            throw net::CorruptionError{std::string{what} + " carries " +
                                       std::to_string(remaining()) +
                                       " trailing bytes"};
        }
    }

private:
    void need(std::size_t count) const {
        if (data_.size() - pos_ < count) {
            throw net::CorruptionError{
                "record payload truncated: wanted " + std::to_string(count) +
                " more bytes, have " + std::to_string(data_.size() - pos_)};
        }
    }

    std::span<const std::byte> data_;
    std::size_t pos_ = 0;
};

/// FNV-1a 64-bit digest, used to fingerprint campaign plans and configs
/// in journal headers. Not cryptographic — it only needs to make "resumed
/// against a different campaign" overwhelmingly detectable.
[[nodiscard]] inline std::uint64_t fnv1a64(std::span<const std::byte> data) {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const std::byte b : data) {
        hash ^= static_cast<std::uint64_t>(b);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

} // namespace aio::persist
