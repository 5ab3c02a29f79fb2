// Continent-scale generator coverage: the knob-free config must stay
// byte-identical to its legacy draw sequence, a seeded continental()
// topology must be digest-stable across repeated generation, and — under
// AIO_LARGE_SMOKE=1 (the Release CI smoke) — a 50k-AS continent must
// generate twice, digest-stably, inside a bounded wall time and peak RSS.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string>

#include "netbase/crc32c.hpp"
#include "topo/generator.hpp"

namespace aio::topo {
namespace {

/// CRC-32C over the AS count and every link's (a, b, kind), in insertion
/// order: two generations digest equal only when they drew the same
/// structure.
std::uint32_t topologyDigest(const Topology& topo) {
    std::uint32_t crc = net::crc32cInit();
    const auto add = [&crc](std::uint64_t word) {
        crc = net::crc32cUpdate(
            crc, std::as_bytes(std::span<const std::uint64_t>(&word, 1)));
    };
    add(topo.asCount());
    for (const AsLink& link : topo.links()) {
        add(link.a);
        add(link.b);
        add(static_cast<std::uint64_t>(link.kind));
    }
    return net::crc32cFinish(crc);
}

/// Linux VmHWM (peak resident set), in bytes; 0 when unavailable.
std::size_t peakRssBytes() {
    std::ifstream status{"/proc/self/status"};
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields{line.substr(6)};
            std::size_t kib = 0;
            fields >> kib;
            return kib * 1024;
        }
    }
    return 0;
}

TEST(GeneratorScale, DefaultConfigKeepsLegacyKnobsOff) {
    const GeneratorConfig cfg = GeneratorConfig::defaults();
    EXPECT_EQ(cfg.maxAsesPerCountry, 0);
    EXPECT_EQ(cfg.domesticPeerFanout, 0);
    EXPECT_EQ(cfg.ixpMeshFanout, 0);
    EXPECT_EQ(cfg.prefixLengthAdjust, 0);
}

TEST(GeneratorScale, ContinentalEightKIsDigestStable) {
    // Ungated mid-size point: ~8k African eyeballs, two generations,
    // byte-identical structure (same topology digest, same counts).
    const GeneratorConfig cfg = GeneratorConfig::continental(8000, 77);
    const Topology first = TopologyGenerator{cfg}.generate();
    const Topology second = TopologyGenerator{cfg}.generate();
    EXPECT_EQ(first.asCount(), second.asCount());
    EXPECT_EQ(first.links().size(), second.links().size());
    EXPECT_EQ(topologyDigest(first), topologyDigest(second));

    // The target steers the African eyeball layer (to within per-country
    // integer truncation); the full AS count lands near it — other
    // regions ride along — but within ~2x.
    EXPECT_GE(first.asCount(), 7600U);
    EXPECT_LE(first.asCount(), 16000U);

    // A different seed must actually move the structure.
    const GeneratorConfig other = GeneratorConfig::continental(8000, 78);
    const Topology reseeded = TopologyGenerator{other}.generate();
    EXPECT_NE(topologyDigest(first), topologyDigest(reseeded));
}

TEST(GeneratorScale, ContinentalScalesLinearlyInEdges) {
    // Bounded-fanout wiring: edges per AS must stay flat as the target
    // grows (the legacy pair scans would blow this up quadratically).
    const Topology small =
        TopologyGenerator{GeneratorConfig::continental(4000, 5)}.generate();
    const Topology large =
        TopologyGenerator{GeneratorConfig::continental(12000, 5)}.generate();
    const double smallEdgesPerAs =
        static_cast<double>(small.links().size()) /
        static_cast<double>(small.asCount());
    const double largeEdgesPerAs =
        static_cast<double>(large.links().size()) /
        static_cast<double>(large.asCount());
    EXPECT_LT(largeEdgesPerAs, smallEdgesPerAs * 2.0)
        << "edge growth should be ~linear under bounded fanout";
}

TEST(GeneratorScale, FiftyKSmokeUnderTimeAndMemoryBounds) {
    if (std::getenv("AIO_LARGE_SMOKE") == nullptr) {
        GTEST_SKIP() << "set AIO_LARGE_SMOKE=1 to run the 50k smoke";
    }
    const auto start = std::chrono::steady_clock::now();
    const GeneratorConfig cfg = GeneratorConfig::continental(50000, 99);
    const Topology topo = TopologyGenerator{cfg}.generate();
    const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
        std::chrono::steady_clock::now() - start);

    EXPECT_GE(topo.asCount(), 47500U);
    EXPECT_LE(topo.asCount(), 75000U);

    // Digest-stable across runs at full scale too.
    const Topology again = TopologyGenerator{cfg}.generate();
    EXPECT_EQ(topologyDigest(topo), topologyDigest(again));

    // Generous CI bounds: generation must stay interactive and, with two
    // topologies resident, far below the dense-matrix memory cliff.
    EXPECT_LT(elapsed.count(), 120) << "50k generation too slow";
    const std::size_t peak = peakRssBytes();
    if (peak > 0) {
        EXPECT_LT(peak, std::size_t{6} * 1024 * 1024 * 1024)
            << "50k generation peak RSS out of bounds";
    }
}

} // namespace
} // namespace aio::topo
