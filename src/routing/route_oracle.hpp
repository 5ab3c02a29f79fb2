#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "topo/as_graph.hpp"

namespace aio::route {

/// Order-independent 128-bit summary of a LinkFilter's disabled sets —
/// the canonical key of the failure-scenario route cache. Two filters
/// holding the same link/AS sets produce the same digest no matter the
/// insertion order; distinct sets collide only with hash probability
/// (~2^-128, since the combiners — a sum and a product of independently
/// mixed element hashes — are both commutative and set-determined).
struct FilterDigest {
    std::uint64_t sum = 0;
    std::uint64_t product = 1;
    std::uint64_t linkCount = 0;
    std::uint64_t asCount = 0;

    [[nodiscard]] bool operator==(const FilterDigest&) const = default;
};

struct FilterDigestHash {
    [[nodiscard]] std::size_t operator()(const FilterDigest& digest) const;
};

/// Set of disabled links/ASes used for failure analysis. A link is
/// identified by its unordered endpoint pair.
class LinkFilter {
public:
    void disableLink(topo::AsIndex a, topo::AsIndex b);
    void disableAs(topo::AsIndex as);

    [[nodiscard]] bool linkAllowed(topo::AsIndex a, topo::AsIndex b) const;
    [[nodiscard]] bool asAllowed(topo::AsIndex as) const;

    /// Disabled links as endpoint pairs (a < b). Set-determined content;
    /// iteration order is unspecified (hash-set backed).
    [[nodiscard]] std::vector<std::pair<topo::AsIndex, topo::AsIndex>>
    disabledLinks() const;


    [[nodiscard]] bool empty() const {
        return links_.empty() && ases_.empty();
    }
    [[nodiscard]] std::size_t disabledLinkCount() const {
        return links_.size();
    }
    [[nodiscard]] std::size_t disabledAsCount() const {
        return ases_.size();
    }

    /// Canonical digest of the disabled sets (see FilterDigest).
    [[nodiscard]] FilterDigest digest() const;

private:
    static std::uint64_t key(topo::AsIndex a, topo::AsIndex b) {
        const auto lo = static_cast<std::uint64_t>(a < b ? a : b);
        const auto hi = static_cast<std::uint64_t>(a < b ? b : a);
        return (hi << 32) | lo;
    }
    std::unordered_set<std::uint64_t> links_;
    std::unordered_set<topo::AsIndex> ases_;
};

/// Gao-Rexford route preference class of the best route (order matters:
/// higher enum value = less preferred).
enum class RouteClass : std::uint8_t {
    Self = 0,
    Customer = 1,
    Peer = 2,
    Provider = 3,
    None = 255,
};

/// How an oracle stores its all-pairs routing state.
enum class StoragePolicy {
    /// Dense [dst * n + src] int32/uint8 matrices: O(1) queries, 5 bytes
    /// per AS pair — 12.5 GB at 50 k ASes, so small topologies only.
    /// Retained as the byte-exact differential reference.
    Dense,
    /// Destination-sharded compressed slabs over CSR adjacency, rows
    /// materialized on demand and evicted LRU under a resident-byte
    /// budget — the continent-scale policy.
    Sharded,
};

/// The all-pairs Gao-Rexford routing surface every consumer (impact
/// analyzer, DNS/content reachability, traceroute, studies, the scenario
/// sweep) queries. Two storage policies implement it — the dense
/// PathOracle and the compressed ShardedOracle — and the contract is that
/// for one (topology, filter) both return *byte-identical* logical
/// matrices through this surface (the sharded differential harness holds
/// them to it, digest for digest).
///
/// Thread-safety: all query methods are safe to call concurrently
/// (PathOracle is immutable after construction; ShardedOracle serializes
/// its lazy row materialization internally).
class RouteOracle {
public:
    virtual ~RouteOracle() = default;

    /// Next hop of src on its best route towards dst: an adjacent AS
    /// index, src's own index when src == dst, or -1 when unreachable.
    [[nodiscard]] virtual std::int32_t nextHopOf(topo::AsIndex src,
                                                 topo::AsIndex dst) const = 0;

    /// Preference class of src's best route towards dst.
    [[nodiscard]] virtual RouteClass routeClass(topo::AsIndex src,
                                                topo::AsIndex dst) const = 0;

    /// Resident bytes of the routing state — what a cache entry actually
    /// retains. For the sharded policy this is *live*: it grows as rows
    /// materialize and shrinks on eviction, so byte-budgeted caches must
    /// re-poll it rather than snapshot it at insertion.
    [[nodiscard]] virtual std::size_t memoryBytes() const = 0;

    [[nodiscard]] virtual StoragePolicy storagePolicy() const = 0;

    /// Destination rows this oracle has solved so far, each counted
    /// once — the sweep's solved-rows statistic. Dense oracles solve
    /// every row at construction and report asCount(); sharded ones
    /// count rows as queries first materialize them (a row re-solved
    /// after its shard was evicted is not counted again).
    [[nodiscard]] virtual std::size_t solvedRows() const = 0;

    // ---- storage-independent queries (built on nextHopOf/routeClass) ----

    [[nodiscard]] const topo::Topology& topology() const { return *topo_; }
    [[nodiscard]] std::size_t asCount() const { return n_; }

    [[nodiscard]] bool reachable(topo::AsIndex src, topo::AsIndex dst) const;

    /// Visits every AS on src's route towards dst, inclusive of both
    /// endpoints, in path order. Returns the number of ASes visited: 0
    /// when dst is unreachable, 1 when src == dst.
    std::size_t walk(topo::AsIndex src, topo::AsIndex dst,
                     const std::function<void(topo::AsIndex)>& visit) const;

    /// AS-level route from src to dst, inclusive of both endpoints.
    /// Empty when dst is unreachable; {src} when src == dst.
    [[nodiscard]] std::vector<topo::AsIndex> path(topo::AsIndex src,
                                                  topo::AsIndex dst) const;

    /// AS-path length in hops (edges); 0 when src==dst, -1 if unreachable.
    [[nodiscard]] int pathLength(topo::AsIndex src, topo::AsIndex dst) const;

protected:
    explicit RouteOracle(const topo::Topology& topology);

    const topo::Topology* topo_;
    std::size_t n_ = 0;
};

/// CRC-32C digests of the logical [dst * n + src] next-hop and
/// route-class matrices, streamed row by row through the query surface —
/// the currency of the sharded-vs-dense differential harness: two oracles
/// are byte-identical iff their digests match (up to CRC collision).
struct RouteMatrixDigest {
    std::uint32_t nextHop = 0;
    std::uint32_t routeClass = 0;

    [[nodiscard]] bool operator==(const RouteMatrixDigest&) const = default;
};

[[nodiscard]] RouteMatrixDigest routeMatrixDigest(const RouteOracle& oracle);

} // namespace aio::route
