#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace aio::net {

/// CRC-32C (Castagnoli), the checksum RFC 3720 §B.4 specifies for iSCSI
/// and the one modern storage systems (ext4, LevelDB, Kudu) use for
/// on-disk record framing. The persist layer's journal codec frames every
/// record with it; the known-answer vectors from the RFC pin the
/// implementation down independently of that codec.
///
/// Reflected polynomial 0x82F63B78; init and final XOR are 0xFFFFFFFF, so
/// `crc32c("123456789")` yields the standard check value 0xE3069283.
///
/// On an x86-64 CPU that reports SSE4.2 the checksum runs on the `crc32`
/// instruction, eight bytes per step; elsewhere it runs the slice-by-4
/// table code of crc32cReferenceUpdate(). The path is chosen once per
/// process and both produce identical values.
[[nodiscard]] std::uint32_t crc32c(std::span<const std::byte> data);

/// Streaming form: feed `crc32cInit()` through one or more
/// `crc32cUpdate()` calls, then `crc32cFinish()`. `crc32c(data)` is the
/// one-shot composition of the three.
[[nodiscard]] std::uint32_t crc32cInit();
[[nodiscard]] std::uint32_t crc32cUpdate(std::uint32_t state,
                                         std::span<const std::byte> data);
[[nodiscard]] std::uint32_t crc32cFinish(std::uint32_t state);

/// The portable slice-by-4 table implementation of crc32cUpdate(): the
/// only path on CPUs without the instruction, and the reference the
/// tests compare the selected path against.
[[nodiscard]] std::uint32_t
crc32cReferenceUpdate(std::uint32_t state, std::span<const std::byte> data);

/// True when crc32c() runs on the CPU's `crc32` instruction.
[[nodiscard]] bool crc32cUsesHardware();

} // namespace aio::net
