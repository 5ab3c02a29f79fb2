#pragma once

#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "routing/route_oracle.hpp"
#include "routing/sharded_oracle.hpp"

namespace aio::route {

/// Hit/miss/eviction accounting, exposed for the failure-sweep benches.
/// Byte fields track the routing state of the entries (see
/// RouteOracle::memoryBytes): `retainedBytes` is what the cache currently
/// keeps alive, `evictedBytes` the cumulative size of entries evicted for
/// capacity or byte-budget reasons. Sharded entries resize themselves as
/// rows materialize and evict, so `retainedBytes` is recomputed from the
/// live entries at every read — a snapshot taken at insertion time would
/// drift arbitrarily far from reality. Replacing an entry for an existing
/// digest (seed()) swaps the byte accounting but is NOT an eviction —
/// nothing was pushed out for capacity reasons.
struct OracleCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::uint64_t retainedBytes = 0;
    std::uint64_t evictedBytes = 0;

    [[nodiscard]] double hitRate() const {
        const std::uint64_t lookups = hits + misses;
        return lookups == 0
                   ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(lookups);
    }
};

/// Storage and budget policy of the cache's miss-path builds.
struct OracleCacheConfig {
    /// Policy every miss-path build uses (and that seeded entries are
    /// expected to match — the Substrate wiring validates the agreement).
    StoragePolicy policy = StoragePolicy::Dense;
    /// Sharded-build tuning, used when policy == Sharded.
    ShardedOracleConfig sharded = {};
    /// Total retained-byte budget across entries; LRU entries are
    /// evicted (down to one) when the live sum exceeds it. 0 = no byte
    /// budget (entry-count capacity only).
    std::size_t byteBudget = 0;
};

/// Capacity-bounded LRU cache of failure-scenario route oracles for one
/// topology, keyed by the canonical LinkFilter digest. A what-if sweep,
/// the outage impact analyzer and the campaign supervisor all rebuild
/// the same degraded routing states (same cut set => same filter => same
/// digest); caching the recomputed oracle turns a per-query rebuild into
/// a lookup. Entries are shared_ptr so a scenario keeps its oracle alive
/// even after eviction.
///
/// Thread-safe; construction on a miss happens under the lock, so
/// concurrent callers never build the same scenario twice. Seed the cache
/// (seed()) with already-built oracles — typically the no-failure
/// baseline — to start a sweep warm.
class OracleCache {
public:
    /// `pool` (optional, not owned, must outlive the cache) parallelizes
    /// miss-path construction. `metrics` (optional, not owned) mirrors
    /// the stats onto registry counters/gauges and records a build-time
    /// histogram for the miss path. `config` selects the storage policy
    /// of miss-path builds and an optional retained-byte budget.
    OracleCache(const topo::Topology& topology, std::size_t capacity,
                exec::WorkerPool* pool = nullptr,
                obs::MetricsRegistry* metrics = nullptr,
                const OracleCacheConfig& config = {});

    /// The oracle for `filter`, building (and caching) it on a miss.
    [[nodiscard]] std::shared_ptr<const RouteOracle>
    get(const LinkFilter& filter);

    /// Lookup without the miss-path build: returns the cached oracle (a
    /// hit, refreshing LRU order) or nullptr (a miss — counted, but
    /// nothing is constructed). The scenario sweep uses peek + seed so
    /// its misses build across its own pool lanes, one sequential build
    /// per lane, and never nest the cache's pool-parallel miss-path build
    /// inside a worker lane.
    [[nodiscard]] std::shared_ptr<const RouteOracle>
    peek(const LinkFilter& filter);

    /// Pre-inserts an already-built oracle for `filter` without touching
    /// the hit/miss counters. Replaces any existing entry for the digest
    /// (byte accounting swaps to the new entry; no eviction is counted).
    void seed(const LinkFilter& filter,
              std::shared_ptr<const RouteOracle> oracle);

    [[nodiscard]] OracleCacheStats stats() const;
    /// The bytes of every live oracle among the entries and `held`, each
    /// counted once: retainedBytes, plus `held`'s bytes unless an entry is
    /// that very oracle. Counts no hit or miss and leaves the LRU order
    /// alone, so metering memory never perturbs what the cache keeps.
    [[nodiscard]] std::uint64_t
    retainedBytesWith(const RouteOracle& held) const;
    void resetStats();
    void clear();

    /// Re-targets the retained-byte budget at runtime and immediately
    /// evicts LRU entries down to it (never below one). The service's
    /// graceful-degradation ladder shrinks cache budgets under memory
    /// pressure instead of dying; 0 removes the byte budget. Counted
    /// evictions are real evictions — entries pushed out for capacity.
    void setByteBudget(std::size_t byteBudget);

    [[nodiscard]] std::size_t capacity() const { return capacity_; }
    [[nodiscard]] const OracleCacheConfig& config() const { return config_; }
    [[nodiscard]] StoragePolicy storagePolicy() const {
        return config_.policy;
    }
    [[nodiscard]] const topo::Topology& topology() const { return *topo_; }

private:
    struct Entry {
        FilterDigest key;
        std::shared_ptr<const RouteOracle> oracle;
    };
    using Lru = std::list<Entry>; ///< front = most recently used

    /// Inserts at the LRU front, evicting the tail when over capacity or
    /// byte budget. Caller holds mutex_.
    void insertLocked(const FilterDigest& key,
                      std::shared_ptr<const RouteOracle> oracle);
    /// Evicts the LRU tail entry. Caller holds mutex_.
    void evictTailLocked();
    /// Evicts down to the byte budget (never below one entry). Caller
    /// holds mutex_.
    void enforceByteBudgetLocked();
    /// Re-sums live entry bytes into stats_.retainedBytes (sharded
    /// entries shrink and grow behind the cache's back). Caller holds
    /// mutex_.
    void recomputeBytesLocked() const;

    /// Pushes entry/byte gauges to the registry. Caller holds mutex_.
    void publishGaugesLocked();

    const topo::Topology* topo_;
    std::size_t capacity_;
    exec::WorkerPool* pool_;
    obs::MetricsRegistry* metrics_;
    OracleCacheConfig config_;

    mutable std::mutex mutex_;
    Lru lru_;
    std::unordered_map<FilterDigest, Lru::iterator, FilterDigestHash> index_;
    mutable OracleCacheStats stats_;
};

} // namespace aio::route
