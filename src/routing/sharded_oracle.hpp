#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "routing/path_oracle.hpp"
#include "routing/route_kernel.hpp"
#include "routing/route_oracle.hpp"

namespace aio::exec {
class WorkerPool;
} // namespace aio::exec

namespace aio::route {

/// Tuning knobs for the sharded oracle. The defaults are the production
/// shape; tests turn them to force rare paths (tiny shards to exercise
/// eviction, a low narrow-slot limit to force wide-row fallback at small
/// degrees).
struct ShardedOracleConfig {
    /// Destinations per shard — the eviction granule.
    std::size_t shardDestinations = 1024;

    /// Sources with degree >= this store their next hop as a raw
    /// int32 wide column instead of a uint16 slot. Clamped to 0xFFFD
    /// (the first sentinel value); lowering it widens more sources,
    /// which costs bytes but must never change query results — the
    /// differential tests sweep it.
    std::uint32_t narrowSlotLimit = 0xFFFD;

    /// Resident-byte ceiling for fixed overhead + materialized shards;
    /// least-recently-used shards are dropped (and re-derived on touch)
    /// to stay under it. 0 = auto: max(32 MiB, n^2 * 5 / 24) — a 24th of
    /// the dense extrapolation, which at 50 k ASes keeps the resident
    /// set ~520 MB against a 12.5 GB dense matrix.
    std::size_t residentByteBudget = 0;
};

/// Continent-scale storage policy for the Gao-Rexford route surface:
/// routing state held as destination-sharded slabs of *compressed* rows.
///
/// Row encoding (one destination = one row, 2n + n/4 + 4W bytes against
/// the dense 5n):
///   * next hops are uint16 *slots into the source's Topology arena row*
///     (providers, then customers, then peers): a next hop is always an
///     adjacent AS, the route class names the segment it sits in, and
///     non-hub degrees fit 16 bits. Three sentinels — none / self /
///     wide — take the top of the range;
///   * hub sources past `narrowSlotLimit` fall back to a per-row int32
///     wide column arena (W = number of hub sources);
///   * route classes pack 2 bits per source (Customer/Peer/Provider;
///     Self and None are implied by the hop sentinels).
///
/// Rows materialize lazily on first touch — the kernel row is a pure
/// function of (topology, filter, destination), so a dropped shard
/// re-derives byte-identically — and whole shards evict LRU under
/// `residentByteBudget`. memoryBytes() is therefore *live*: it reports
/// what is resident now (fixed overhead including the compiled filter,
/// the single-row solve scratch once the first row is solved, and the
/// materialized shards), which is what the memory-budgeted OracleCache
/// needs to re-poll.
///
/// Thread-safety: every query serializes on one internal mutex.
class ShardedOracle final : public RouteOracle {
public:
    /// Builds the shard scaffolding (compiled filter, wide-source ranks,
    /// empty shard table) without solving any row: O(n) time plus the
    /// filter compile, so a 50 k substrate "builds" in milliseconds and
    /// pays per destination on first touch. Throws net::CapacityError
    /// when the fixed overhead, the solve scratch and one shard cannot
    /// fit the resident budget.
    explicit ShardedOracle(const topo::Topology& topology,
                           const LinkFilter& filter = {},
                           const ShardedOracleConfig& config = {});

    // ---- RouteOracle surface ----

    [[nodiscard]] std::int32_t nextHopOf(topo::AsIndex src,
                                         topo::AsIndex dst) const override;
    [[nodiscard]] RouteClass routeClass(topo::AsIndex src,
                                        topo::AsIndex dst) const override;
    [[nodiscard]] std::size_t memoryBytes() const override {
        return residentBytes_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] StoragePolicy storagePolicy() const override {
        return StoragePolicy::Sharded;
    }
    [[nodiscard]] std::size_t solvedRows() const override {
        return solvedRows_.load(std::memory_order_relaxed);
    }

    // ---- introspection (tests, benches, docs) ----

    [[nodiscard]] const ShardedOracleConfig& config() const {
        return config_;
    }
    [[nodiscard]] std::size_t shardCount() const { return shards_.size(); }
    [[nodiscard]] std::size_t residentShardCount() const;
    [[nodiscard]] std::uint64_t shardEvictions() const {
        return shardEvictions_.load(std::memory_order_relaxed);
    }
    /// Hub sources stored as wide int32 columns under this config.
    [[nodiscard]] std::size_t wideSourceCount() const {
        return wideSrcs_.size();
    }
    /// Bytes of one fully materialized shard row (compressed row width).
    [[nodiscard]] std::size_t rowBytes() const {
        return hopBytesPerRow_ + packBytesPerRow_ +
               wideSrcs_.size() * sizeof(std::int32_t);
    }

private:
    // Row lifecycle. Solved-ness is sticky across eviction: eviction only
    // drops *bytes* (state Solved -> Evicted), so solvedRows counts rows,
    // not materializations.
    enum RowState : std::uint8_t {
        kRowUnknown = 0, ///< never touched
        kRowSolved = 1,  ///< solved, bytes resident in its shard
        kRowEvicted = 2, ///< solved before, bytes dropped; re-solve on touch
    };

    struct Shard {
        topo::AsIndex firstDst = 0;
        std::size_t rows = 0;
        std::uint64_t lastUse = 0;
        std::vector<std::uint16_t> hops;  ///< rows * n slot refs
        std::vector<std::uint8_t> pack;   ///< rows * ceil(n/4) 2-bit classes
        std::vector<std::int32_t> wide;   ///< rows * W hub next hops
        [[nodiscard]] bool resident() const { return !hops.empty(); }
    };

    [[nodiscard]] std::size_t shardArenaBytes(const Shard& shard) const;
    /// Bytes of the single-row solve scratch (kernel scratch plus the
    /// row buffers), allocated on the first solve.
    [[nodiscard]] std::size_t solveScratchBytes() const;

    // *Locked members require mutex_ held by the caller.
    /// Ensures dst's row is solved and resident in its shard.
    void ensureRowLocked(topo::AsIndex dst) const;
    /// Solves dst's row with the shared kernel into the solve scratch
    /// and encodes it into its shard.
    void solveRowLocked(topo::AsIndex dst) const;
    Shard& residentShardLocked(topo::AsIndex dst) const;
    void enforceBudgetLocked(std::size_t protectedShard) const;
    void evictShardLocked(std::size_t shardIndex) const;
    [[nodiscard]] std::pair<std::int32_t, RouteClass>
    lookupLocked(topo::AsIndex src, topo::AsIndex dst) const;

    kernel::CompiledFilter filter_; ///< compiled once, shared by every solve
    ShardedOracleConfig config_; ///< normalized (budget resolved, limit clamped)

    std::size_t hopBytesPerRow_ = 0;
    std::size_t packBytesPerRow_ = 0;
    std::vector<std::uint32_t> wideRank_; ///< src -> wide column, or kNotWide
    std::vector<std::uint32_t> wideSrcs_;
    std::size_t fixedBytes_ = 0;

    mutable std::vector<std::uint8_t> rowState_; ///< RowState per dst
    mutable std::vector<Shard> shards_;
    mutable std::uint64_t useClock_ = 0;
    mutable std::atomic<std::size_t> residentBytes_{0};
    mutable std::atomic<std::size_t> solvedRows_{0};
    mutable std::atomic<std::uint64_t> shardEvictions_{0};

    // Single-row solve scratch, guarded by mutex_. Allocated and counted
    // in residentBytes_ on the first solve, so an oracle that is never
    // queried never pays for it.
    mutable kernel::DestScratch scratch_;
    mutable std::vector<std::int32_t> rowNext_;
    mutable std::vector<std::uint8_t> rowKlass_;

    mutable std::mutex mutex_;
};

/// Storage-policy dispatch: the one place consumers (ImpactAnalyzer, the
/// oracle cache, the sweep's builds) construct oracles. Dense uses
/// `pool` for the parallel matrix build; sharded ignores it (lazy rows).
[[nodiscard]] std::shared_ptr<const RouteOracle>
buildOracle(const topo::Topology& topology, StoragePolicy policy,
            const LinkFilter& filter = {}, exec::WorkerPool* pool = nullptr,
            const ShardedOracleConfig& shardedConfig = {});

} // namespace aio::route
