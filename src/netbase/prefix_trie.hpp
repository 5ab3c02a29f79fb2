#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "netbase/error.hpp"
#include "netbase/ip.hpp"

namespace aio::net {

/// Binary (one bit per level) longest-prefix-match trie mapping prefixes to
/// values of type T.
///
/// This is the routing-table abstraction used everywhere an IP must be
/// attributed to an origin (prefix -> ASN), an IXP LAN, or a geolocation
/// record. Nodes live in a single vector (index-linked) so the structure is
/// cache-friendly and trivially copyable.
template <typename T>
class PrefixTrie {
public:
    PrefixTrie() { nodes_.push_back(Node{}); }

    /// Inserts or overwrites the value for `prefix`.
    void insert(const Prefix& prefix, T value) {
        std::size_t node = 0;
        const std::uint32_t bits = prefix.address().value();
        for (int depth = 0; depth < prefix.length(); ++depth) {
            const int bit = (bits >> (31 - depth)) & 1;
            std::size_t child = nodes_[node].child[bit];
            if (child == kNone) {
                child = nodes_.size();
                nodes_.push_back(Node{}); // may reallocate: re-index below
                nodes_[node].child[bit] = child;
            }
            node = child;
        }
        if (!nodes_[node].value.has_value()) {
            ++size_;
        }
        nodes_[node].value = std::move(value);
    }

    /// Longest-prefix match; empty when no covering prefix exists.
    [[nodiscard]] std::optional<T> lookup(Ipv4Address addr) const {
        std::optional<T> best;
        std::size_t node = 0;
        const std::uint32_t bits = addr.value();
        for (int depth = 0; depth <= 32; ++depth) {
            if (nodes_[node].value.has_value()) {
                best = nodes_[node].value;
            }
            if (depth == 32) {
                break;
            }
            const int bit = (bits >> (31 - depth)) & 1;
            const std::size_t child = nodes_[node].child[bit];
            if (child == kNone) {
                break;
            }
            node = child;
        }
        return best;
    }

    /// Exact-match lookup of a stored prefix.
    [[nodiscard]] std::optional<T> exact(const Prefix& prefix) const {
        std::size_t node = 0;
        const std::uint32_t bits = prefix.address().value();
        for (int depth = 0; depth < prefix.length(); ++depth) {
            const int bit = (bits >> (31 - depth)) & 1;
            const std::size_t child = nodes_[node].child[bit];
            if (child == kNone) {
                return std::nullopt;
            }
            node = child;
        }
        return nodes_[node].value;
    }

    /// Number of stored prefixes.
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }

    /// Visits every (prefix, value) pair in address order.
    template <typename Fn>
    void forEach(Fn&& fn) const {
        walk(0, 0U, 0, fn);
    }

private:
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    struct Node {
        std::size_t child[2] = {kNone, kNone};
        std::optional<T> value;
    };

    template <typename Fn>
    void walk(std::size_t node, std::uint32_t bits, int depth, Fn&& fn) const {
        if (nodes_[node].value.has_value()) {
            fn(Prefix{Ipv4Address{bits}, depth}, *nodes_[node].value);
        }
        if (depth == 32) {
            return;
        }
        for (int bit = 0; bit < 2; ++bit) {
            const std::size_t child = nodes_[node].child[bit];
            if (child != kNone) {
                const std::uint32_t childBits =
                    bits | (static_cast<std::uint32_t>(bit) << (31 - depth));
                walk(child, childBits, depth + 1, fn);
            }
        }
    }

    std::vector<Node> nodes_;
    std::size_t size_ = 0;
};

} // namespace aio::net
