#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "routing/route_oracle.hpp"
#include "topo/as_graph.hpp"

namespace aio::exec {
class WorkerPool;
} // namespace aio::exec

namespace aio::route {

/// Dense matrices cost 5 bytes per AS pair; past this ceiling (default
/// 4 GiB ≈ 29 k ASes) the constructor throws net::CapacityError instead
/// of letting the allocator fail with bad_alloc mid-build. Raiseable for
/// machines that really want a bigger dense reference; the supported
/// answer at continent scale is StoragePolicy::Sharded.
inline constexpr std::size_t kDefaultDenseCeilingBytes =
    std::size_t{4} * 1024 * 1024 * 1024;

/// All-pairs stable policy routes under the standard Gao-Rexford model:
///
///  * preference: customer > peer > provider, then shortest AS path,
///    then lowest next-hop ASN;
///  * export: customer-learned routes go to everyone, peer/provider-learned
///    routes go to customers only.
///
/// Computed with the classic three-phase per-destination BFS (customer
/// routes propagate up provider links, one optional peer hop, provider
/// routes propagate down customer links), which yields exactly the
/// valley-free paths — see route_kernel.hpp, the solver shared with the
/// sharded oracle. Construction cost is O(D * (V + E)); the result is
/// a dense next-hop matrix, so path queries are O(path length).
///
/// Destinations are independent — each writes only its own row slab of
/// the next-hop/class matrices — so construction shards per destination
/// across a WorkerPool. Every tie inside the kernel breaks by ASN, never
/// by arrival order, so the matrices are byte-identical whichever lane
/// computes which destination: the pool-built oracle equals the
/// sequential reference bit for bit (tests/routing/oracle_equivalence_test
/// holds both constructors to that contract, and
/// tests/routing/sharded_equivalence_test holds ShardedOracle to the same
/// bytes through the query surface).
class PathOracle : public RouteOracle {
public:
    /// Sequential reference construction. Throws net::CapacityError when
    /// the dense matrices would exceed `memoryCeilingBytes`.
    explicit PathOracle(const topo::Topology& topology,
                        const LinkFilter& filter = {},
                        std::size_t memoryCeilingBytes =
                            kDefaultDenseCeilingBytes);

    /// Parallel construction: per-destination slabs sharded across `pool`.
    PathOracle(const topo::Topology& topology, const LinkFilter& filter,
               exec::WorkerPool& pool,
               std::size_t memoryCeilingBytes = kDefaultDenseCeilingBytes);

    // ---- RouteOracle surface ----

    [[nodiscard]] std::int32_t nextHopOf(topo::AsIndex src,
                                         topo::AsIndex dst) const override {
        return nextHop_[dst * n_ + src];
    }
    [[nodiscard]] RouteClass routeClass(topo::AsIndex src,
                                        topo::AsIndex dst) const override;

    /// Resident bytes of the dense route matrices — what a cache entry
    /// actually retains. Struct/vector overhead is excluded (constant,
    /// dwarfed by the n^2 slabs).
    [[nodiscard]] std::size_t memoryBytes() const override {
        return nextHop_.size() * sizeof(std::int32_t) +
               klass_.size() * sizeof(std::uint8_t);
    }

    [[nodiscard]] StoragePolicy storagePolicy() const override {
        return StoragePolicy::Dense;
    }

    [[nodiscard]] std::size_t solvedRows() const override { return n_; }

    /// Raw matrices ([dst * asCount + src] layout) for differential tests
    /// and digests; -1 next hop / RouteClass::None mark "no route".
    [[nodiscard]] std::span<const std::int32_t> nextHopMatrix() const {
        return nextHop_;
    }
    [[nodiscard]] std::span<const std::uint8_t> routeClassMatrix() const {
        return klass_;
    }

private:
    void build(const LinkFilter& filter, exec::WorkerPool* pool);

    std::vector<std::int32_t> nextHop_;  ///< [dst*n + src], -1 = none
    std::vector<std::uint8_t> klass_;    ///< RouteClass per (dst,src)
};

} // namespace aio::route
