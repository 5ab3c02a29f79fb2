// Golden route-matrix digests for the Gao-Rexford kernel. Every other
// routing suite compares the kernel with itself (dense vs sharded, pool
// vs sequential), so a rewrite that moved every oracle in lockstep would
// pass them all. This one pins the *absolute* output: routeMatrixDigest
// values recorded from the reference kernel for four worlds (default
// generator at seeds 1, 7 and 42, and the 500-target continental
// generator) under five filters each (none, sparse link cuts, dense link
// cuts, and two link + disabled-AS mixes), under both storage policies.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "netbase/rng.hpp"
#include "routing/path_oracle.hpp"
#include "routing/sharded_oracle.hpp"
#include "topo/generator.hpp"

namespace aio::route {
namespace {

enum class World { Seed1, Seed7, Seed42, Continental500 };

topo::Topology makeWorld(World world) {
    switch (world) {
    case World::Seed1:
    case World::Seed7:
    case World::Seed42: {
        auto config = topo::GeneratorConfig::defaults();
        config.seed = world == World::Seed1   ? 1
                      : world == World::Seed7 ? 7
                                              : 42;
        return topo::TopologyGenerator{config}.generate();
    }
    case World::Continental500:
        return topo::TopologyGenerator{
            topo::GeneratorConfig::continental(500, 20250704)}
            .generate();
    }
    return {};
}

std::string worldName(World world) {
    switch (world) {
    case World::Seed1: return "default seed=1";
    case World::Seed7: return "default seed=7";
    case World::Seed42: return "default seed=42";
    case World::Continental500: return "continental(500)";
    }
    return "?";
}

/// The five filters, deterministic per topology: none, sparse link cuts
/// (a handful of links), dense link cuts (a fifth of all links), and two
/// link + disabled-AS mixes (few ASes over sparse cuts, many ASes over
/// moderate cuts).
std::vector<LinkFilter> filterGrid(const topo::Topology& topo) {
    std::vector<LinkFilter> grid(5);
    net::Rng rng{0x601de7ULL};
    const auto cutLinks = [&](LinkFilter& filter, double share) {
        for (const auto& link : topo.links()) {
            if (rng.bernoulli(share)) {
                filter.disableLink(link.a, link.b);
            }
        }
    };
    const auto disableAses = [&](LinkFilter& filter, int count) {
        for (int i = 0; i < count; ++i) {
            filter.disableAs(rng.uniformInt(topo.asCount()));
        }
    };
    cutLinks(grid[1], 0.004);
    cutLinks(grid[2], 0.2);
    cutLinks(grid[3], 0.01);
    disableAses(grid[3], 3);
    cutLinks(grid[4], 0.05);
    disableAses(grid[4], 25);
    return grid;
}

struct Golden {
    World world;
    int filter;
    RouteMatrixDigest digest;
};

// Recorded from the reference kernel; identical under both policies.
constexpr std::array<Golden, 20> kGolden{{
    {World::Seed1, 0, {0x3cc12194U, 0x68523770U}},
    {World::Seed1, 1, {0x5e8154f1U, 0x5ae5c4a9U}},
    {World::Seed1, 2, {0xaa8532b4U, 0xda2cff2dU}},
    {World::Seed1, 3, {0x369034f1U, 0x0d94f5a6U}},
    {World::Seed1, 4, {0x6da8d42fU, 0x23dda548U}},
    {World::Seed7, 0, {0xdf7496deU, 0xc1fff8bbU}},
    {World::Seed7, 1, {0x7cee149eU, 0x5318a209U}},
    {World::Seed7, 2, {0x9726f951U, 0x847aa881U}},
    {World::Seed7, 3, {0xddbd1261U, 0xda674f35U}},
    {World::Seed7, 4, {0x30508c39U, 0xfa077334U}},
    {World::Seed42, 0, {0x101cf989U, 0x4e177055U}},
    {World::Seed42, 1, {0xd9525965U, 0x4b6d46d1U}},
    {World::Seed42, 2, {0xc918cde6U, 0xb4929594U}},
    {World::Seed42, 3, {0xed72106fU, 0xe6c2155aU}},
    {World::Seed42, 4, {0x656343a7U, 0x5e1fbf80U}},
    {World::Continental500, 0, {0x47409fc8U, 0x9cb1dba1U}},
    {World::Continental500, 1, {0x82d74c2eU, 0x74eec8d7U}},
    {World::Continental500, 2, {0x9e1aa61eU, 0x81d27d89U}},
    {World::Continental500, 3, {0x8ac885b3U, 0x427064d5U}},
    {World::Continental500, 4, {0x66da6f7eU, 0x06e1dea9U}},
}};

void expectGolden(const RouteMatrixDigest& want, const RouteOracle& oracle,
                  const std::string& label) {
    const RouteMatrixDigest got = routeMatrixDigest(oracle);
    EXPECT_EQ(want.nextHop, got.nextHop)
        << "next-hop digest drifted: " << label << std::hex
        << " got 0x" << got.nextHop;
    EXPECT_EQ(want.routeClass, got.routeClass)
        << "route-class digest drifted: " << label << std::hex
        << " got 0x" << got.routeClass;
}

void checkWorld(World world) {
    const topo::Topology topo = makeWorld(world);
    const std::vector<LinkFilter> filters = filterGrid(topo);
    for (const Golden& golden : kGolden) {
        if (golden.world != world) {
            continue;
        }
        const LinkFilter& filter =
            filters[static_cast<std::size_t>(golden.filter)];
        const std::string label =
            worldName(world) + " filter=" + std::to_string(golden.filter);
        expectGolden(golden.digest, PathOracle{topo, filter},
                     label + " dense full");
        expectGolden(golden.digest, ShardedOracle{topo, filter},
                     label + " sharded full");
    }
}

TEST(KernelGolden, DefaultWorldSeed1) { checkWorld(World::Seed1); }
TEST(KernelGolden, DefaultWorldSeed7) { checkWorld(World::Seed7); }
TEST(KernelGolden, DefaultWorldSeed42) { checkWorld(World::Seed42); }
TEST(KernelGolden, Continental500) { checkWorld(World::Continental500); }

} // namespace
} // namespace aio::route
