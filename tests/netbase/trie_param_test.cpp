// Parameterized property sweep over the LPM trie: correctness against a
// brute-force oracle across prefix-length mixes and table densities.

#include <gtest/gtest.h>

#include <optional>

#include "netbase/prefix_trie.hpp"
#include "netbase/rng.hpp"

namespace aio::net {
namespace {

// ctest names each case after the parameter as gtest prints it, which for
// a struct is its raw bytes. The fields leave no padding, so those bytes
// (and the test names) are the same in every build.
struct TrieCase {
    int minLength;
    int maxLength;
    std::size_t tableSize;
    std::uint64_t seed;
};

class TrieSweep : public ::testing::TestWithParam<TrieCase> {};

TEST_P(TrieSweep, AgreesWithBruteForce) {
    const TrieCase params = GetParam();
    Rng rng{params.seed};
    PrefixTrie<std::size_t> trie;
    std::vector<Prefix> prefixes;
    for (std::size_t i = 0; i < params.tableSize; ++i) {
        const int length = static_cast<int>(
            rng.uniformRange(params.minLength, params.maxLength));
        const Prefix p{Ipv4Address{static_cast<std::uint32_t>(rng.next())},
                       length};
        if (trie.exact(p).has_value()) {
            continue;
        }
        prefixes.push_back(p);
        trie.insert(p, prefixes.size() - 1);
    }
    ASSERT_EQ(trie.size(), prefixes.size());
    for (int q = 0; q < 1500; ++q) {
        const Ipv4Address addr{static_cast<std::uint32_t>(rng.next())};
        int bestLen = -1;
        std::optional<std::size_t> expected;
        for (std::size_t i = 0; i < prefixes.size(); ++i) {
            if (prefixes[i].contains(addr) &&
                prefixes[i].length() > bestLen) {
                bestLen = prefixes[i].length();
                expected = i;
            }
        }
        ASSERT_EQ(trie.lookup(addr), expected) << addr.toString();
    }
}

TEST_P(TrieSweep, EveryStoredPrefixSelfMatches) {
    const TrieCase params = GetParam();
    Rng rng{params.seed ^ 0x5555};
    PrefixTrie<int> trie;
    std::vector<Prefix> prefixes;
    for (std::size_t i = 0; i < params.tableSize; ++i) {
        const int length = static_cast<int>(
            rng.uniformRange(params.minLength, params.maxLength));
        const Prefix p{Ipv4Address{static_cast<std::uint32_t>(rng.next())},
                       length};
        trie.insert(p, length);
        prefixes.push_back(p);
    }
    for (const Prefix& p : prefixes) {
        // A lookup of any address inside p matches a prefix at least as
        // long as p.
        const auto hit = trie.lookup(p.addressAt(p.size() / 2));
        ASSERT_TRUE(hit.has_value());
        ASSERT_GE(*hit, p.length());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TrieSweep,
    ::testing::Values(TrieCase{8, 8, 64, 1},     // uniform /8s
                      TrieCase{24, 24, 512, 2},  // uniform /24s
                      TrieCase{0, 32, 256, 3},   // full length spread
                      TrieCase{16, 24, 2048, 4}, // dense routing table
                      TrieCase{30, 32, 128, 5}));// host routes

} // namespace
} // namespace aio::net
