#include "netbase/crc32c.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <ios>
#include <span>
#include <vector>

// Recorded CRC-32C values over a fixed pseudo-random buffer: the whole
// mebibyte, and every slice starting at offsets 0-7 with lengths 0-64.
// The slices cover each alignment against every word width a faster
// implementation might step in, plus all the tails such a loop leaves.
namespace aio::net {
namespace {

/// 1 MiB from splitmix64 (seed 0x5EED), little-endian words.
const std::vector<std::byte>& mebibyte() {
    static const std::vector<std::byte> buffer = [] {
        std::vector<std::byte> out(std::size_t{1} << 20);
        std::uint64_t state = 0x5EED;
        for (std::size_t i = 0; i < out.size(); i += 8) {
            state += 0x9E3779B97F4A7C15ULL;
            std::uint64_t z = state;
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
            z ^= z >> 31;
            for (std::size_t b = 0; b < 8; ++b) {
                out[i + b] = static_cast<std::byte>((z >> (8 * b)) & 0xFF);
            }
        }
        return out;
    }();
    return buffer;
}

TEST(Crc32cGolden, OneMebibyteBuffer) {
    EXPECT_EQ(crc32c(mebibyte()), 0x801d44eaU)
        << std::hex << "0x" << crc32c(mebibyte());
}

TEST(Crc32cGolden, SlicesAtEveryOffsetAndShortLength) {
    // Folds the 8 x 65 slice checksums, in (offset, length) order, into
    // one FNV-1a 64 digest over their little-endian bytes.
    const std::span<const std::byte> buffer = mebibyte();
    std::uint64_t fold = 0xcbf29ce484222325ULL;
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t length = 0; length <= 64; ++length) {
            const std::uint32_t crc = crc32c(buffer.subspan(offset, length));
            for (int b = 0; b < 4; ++b) {
                fold ^= (crc >> (8 * b)) & 0xFFU;
                fold *= 0x100000001b3ULL;
            }
        }
    }
    EXPECT_EQ(fold, 0x0586a9d64fe43cbaULL) << std::hex << "0x" << fold;
}

} // namespace
} // namespace aio::net
