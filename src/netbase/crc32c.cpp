#include "netbase/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace aio::net {

namespace {

constexpr std::uint32_t kPolyReflected = 0x82F63B78U;

/// Slice-by-4 tables: table[0] is the classic byte-at-a-time table,
/// table[k] advances a byte through k additional zero bytes, letting the
/// hot loop consume 32 bits per iteration.
struct Tables {
    std::array<std::array<std::uint32_t, 256>, 4> t{};

    constexpr Tables() {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t crc = i;
            for (int bit = 0; bit < 8; ++bit) {
                crc = (crc & 1U) ? (crc >> 1) ^ kPolyReflected : crc >> 1;
            }
            t[0][i] = crc;
        }
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t crc = t[0][i];
            for (std::size_t k = 1; k < 4; ++k) {
                crc = t[0][crc & 0xFFU] ^ (crc >> 8);
                t[k][i] = crc;
            }
        }
    }
};

constexpr Tables kTables{};

using UpdateFn = std::uint32_t (*)(std::uint32_t, std::span<const std::byte>);

#if defined(__x86_64__)
/// The SSE4.2 `crc32` instruction computes exactly this polynomial with
/// the same reflected bit order; x86 is little-endian, so a memcpy'd
/// 64-bit word feeds its bytes in stream order.
__attribute__((target("sse4.2"))) std::uint32_t
updateSse42(std::uint32_t state, std::span<const std::byte> data) {
    const std::byte* p = data.data();
    std::size_t n = data.size();
    std::uint64_t crc = state;
    for (; n >= 8; p += 8, n -= 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, p, sizeof word);
        crc = _mm_crc32_u64(crc, word);
    }
    auto out = static_cast<std::uint32_t>(crc);
    for (; n > 0; ++p, --n) {
        out = _mm_crc32_u8(out, static_cast<std::uint8_t>(*p));
    }
    return out;
}
#endif

UpdateFn selectUpdate() {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2")) {
        return &updateSse42;
    }
#endif
    return &crc32cReferenceUpdate;
}

/// Chosen on first use; a function-local static so that checksums taken
/// during other translation units' static initialisation are safe.
UpdateFn selectedUpdate() {
    static const UpdateFn update = selectUpdate();
    return update;
}

} // namespace

std::uint32_t crc32cInit() { return 0xFFFFFFFFU; }

std::uint32_t crc32cReferenceUpdate(std::uint32_t state,
                                    std::span<const std::byte> data) {
    const auto& t = kTables.t;
    std::size_t i = 0;
    for (; i + 4 <= data.size(); i += 4) {
        state ^= static_cast<std::uint32_t>(data[i]) |
                 (static_cast<std::uint32_t>(data[i + 1]) << 8) |
                 (static_cast<std::uint32_t>(data[i + 2]) << 16) |
                 (static_cast<std::uint32_t>(data[i + 3]) << 24);
        state = t[3][state & 0xFFU] ^ t[2][(state >> 8) & 0xFFU] ^
                t[1][(state >> 16) & 0xFFU] ^ t[0][state >> 24];
    }
    for (; i < data.size(); ++i) {
        state = t[0][(state ^ static_cast<std::uint32_t>(data[i])) & 0xFFU] ^
                (state >> 8);
    }
    return state;
}

std::uint32_t crc32cUpdate(std::uint32_t state,
                           std::span<const std::byte> data) {
    return selectedUpdate()(state, data);
}

std::uint32_t crc32cFinish(std::uint32_t state) {
    return state ^ 0xFFFFFFFFU;
}

std::uint32_t crc32c(std::span<const std::byte> data) {
    return crc32cFinish(crc32cUpdate(crc32cInit(), data));
}

bool crc32cUsesHardware() {
    return selectedUpdate() != &crc32cReferenceUpdate;
}

} // namespace aio::net
