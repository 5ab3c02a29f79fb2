#include "netbase/crc32c.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <numeric>
#include <random>
#include <span>
#include <string_view>
#include <vector>

namespace aio::net {
namespace {

std::vector<std::byte> bytesOf(std::string_view text) {
    std::vector<std::byte> out(text.size());
    std::memcpy(out.data(), text.data(), text.size());
    return out;
}

/// The table path end to end, for comparing against crc32c().
std::uint32_t reference(std::span<const std::byte> data) {
    return crc32cFinish(crc32cReferenceUpdate(crc32cInit(), data));
}

/// Both implementations must produce the known-answer value.
void expectBoth(std::span<const std::byte> data, std::uint32_t expected) {
    EXPECT_EQ(crc32c(data), expected);
    EXPECT_EQ(reference(data), expected);
}

TEST(Crc32c, StandardCheckValue) {
    // The universal CRC-32C check string.
    expectBoth(bytesOf("123456789"), 0xE3069283U);
}

TEST(Crc32c, Rfc3720AllZeros) {
    // RFC 3720 §B.4: 32 bytes of zeroes.
    const std::vector<std::byte> data(32, std::byte{0x00});
    expectBoth(data, 0x8A9136AAU);
}

TEST(Crc32c, Rfc3720AllOnes) {
    // RFC 3720 §B.4: 32 bytes of ones.
    const std::vector<std::byte> data(32, std::byte{0xFF});
    expectBoth(data, 0x62A8AB43U);
}

TEST(Crc32c, Rfc3720Incrementing) {
    // RFC 3720 §B.4: 32 bytes of incrementing 00..1f.
    std::vector<std::byte> data(32);
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::byte>(i);
    }
    expectBoth(data, 0x46DD794EU);
}

TEST(Crc32c, Rfc3720Decrementing) {
    // RFC 3720 §B.4: 32 bytes of decrementing 1f..00.
    std::vector<std::byte> data(32);
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::byte>(31 - i);
    }
    expectBoth(data, 0x113FDB5CU);
}

TEST(Crc32c, Rfc3720IscsiReadCommand) {
    // RFC 3720 §B.4: the 48-byte iSCSI SCSI Read (10) command PDU.
    const std::array<std::uint8_t, 48> pdu = {
        0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
        0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, //
        0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, //
        0x28, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    };
    std::vector<std::byte> data(pdu.size());
    std::memcpy(data.data(), pdu.data(), pdu.size());
    expectBoth(data, 0xD9963A56U);
}

TEST(Crc32c, EmptyInput) {
    expectBoth({}, 0x00000000U);
}

TEST(Crc32c, SelectedPathMatchesTheReferenceOnRandomBuffers) {
    // Every length 0-4096 at every start offset 0-7, so the selected
    // path's word loop meets each alignment and each tail length. On a
    // CPU without SSE4.2 both sides run the table code.
    ::testing::Test::RecordProperty("hardware",
                                    crc32cUsesHardware() ? "sse4.2" : "no");
    std::mt19937_64 rng{0xC4C32C};
    std::vector<std::byte> buffer(4096 + 8);
    for (std::byte& b : buffer) {
        b = static_cast<std::byte>(rng() & 0xFFU);
    }
    const std::span<const std::byte> all{buffer};
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t length = 0; length <= 4096; ++length) {
            const auto slice = all.subspan(offset, length);
            ASSERT_EQ(crc32c(slice), reference(slice))
                << "offset " << offset << " length " << length;
        }
    }
}

TEST(Crc32c, SelectedPathStreamsAcrossEverySplit) {
    // Streaming through the selected path, split at every offset, must
    // agree with the reference over the whole input: a split leaves the
    // second update starting mid-word.
    std::mt19937_64 rng{0x5B117};
    std::vector<std::byte> buffer(1031);
    for (std::byte& b : buffer) {
        b = static_cast<std::byte>(rng() & 0xFFU);
    }
    for (const std::size_t length : {std::size_t{7}, std::size_t{8},
                                     std::size_t{9}, std::size_t{64},
                                     std::size_t{1031}}) {
        const auto data = std::span<const std::byte>{buffer}.first(length);
        const std::uint32_t whole = reference(data);
        for (std::size_t cut = 0; cut <= length; ++cut) {
            std::uint32_t state = crc32cInit();
            state = crc32cUpdate(state, data.first(cut));
            state = crc32cUpdate(state, data.subspan(cut));
            ASSERT_EQ(crc32cFinish(state), whole)
                << "length " << length << " cut at " << cut;
        }
    }
}

TEST(Crc32c, StreamingMatchesOneShot) {
    // Any split of the input through the streaming API must agree with
    // the one-shot call — the codec checksums header and payload through
    // separate calls.
    const auto data = bytesOf("the observatory coordinator crashed here");
    const std::uint32_t whole = crc32c(data);
    for (std::size_t cut = 0; cut <= data.size(); ++cut) {
        std::uint32_t state = crc32cInit();
        state = crc32cUpdate(state, std::span{data}.first(cut));
        state = crc32cUpdate(state, std::span{data}.subspan(cut));
        EXPECT_EQ(crc32cFinish(state), whole) << "cut at " << cut;
    }
}

TEST(Crc32c, SingleBitFlipsAlwaysChangeTheSum) {
    // The journal's torn-tail-vs-corruption policy leans on every 1-bit
    // flip being visible; CRCs guarantee that for any burst < 32 bits.
    std::vector<std::byte> data(64);
    std::iota(reinterpret_cast<std::uint8_t*>(data.data()),
              reinterpret_cast<std::uint8_t*>(data.data()) + data.size(),
              std::uint8_t{0x40});
    const std::uint32_t clean = crc32c(data);
    for (std::size_t byteIdx = 0; byteIdx < data.size(); ++byteIdx) {
        for (int bit = 0; bit < 8; ++bit) {
            data[byteIdx] ^= static_cast<std::byte>(1 << bit);
            EXPECT_NE(crc32c(data), clean)
                << "flip at byte " << byteIdx << " bit " << bit;
            data[byteIdx] ^= static_cast<std::byte>(1 << bit);
        }
    }
}

} // namespace
} // namespace aio::net
