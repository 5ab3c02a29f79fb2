#include "routing/oracle_cache.hpp"

#include <algorithm>

#include "exec/worker_pool.hpp"
#include "netbase/error.hpp"

namespace aio::route {

OracleCache::OracleCache(const topo::Topology& topology, std::size_t capacity,
                         exec::WorkerPool* pool,
                         obs::MetricsRegistry* metrics,
                         const OracleCacheConfig& config)
    : topo_(&topology), capacity_(capacity), pool_(pool),
      metrics_(metrics), config_(config) {
    AIO_EXPECTS(capacity >= 1, "oracle cache needs capacity >= 1");
    AIO_EXPECTS(topology.finalized(), "topology must be finalized");
}

std::shared_ptr<const RouteOracle>
OracleCache::get(const LinkFilter& filter) {
    const FilterDigest key = filter.digest();
    const std::lock_guard<std::mutex> lock{mutex_};
    if (const auto it = index_.find(key); it != index_.end()) {
        ++stats_.hits;
        if (metrics_ != nullptr) {
            metrics_->counter("cache.oracle.hits").add();
        }
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->oracle;
    }
    ++stats_.misses;
    if (metrics_ != nullptr) {
        metrics_->counter("cache.oracle.misses").add();
    }
    std::shared_ptr<const RouteOracle> oracle;
    {
        const obs::ScopedTimer timer{metrics_,
                                     "cache.oracle.build_seconds"};
        oracle = buildOracle(*topo_, config_.policy, filter, pool_,
                             config_.sharded);
    }
    insertLocked(key, oracle);
    return oracle;
}

std::shared_ptr<const RouteOracle>
OracleCache::peek(const LinkFilter& filter) {
    const FilterDigest key = filter.digest();
    const std::lock_guard<std::mutex> lock{mutex_};
    if (const auto it = index_.find(key); it != index_.end()) {
        ++stats_.hits;
        if (metrics_ != nullptr) {
            metrics_->counter("cache.oracle.hits").add();
        }
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->oracle;
    }
    ++stats_.misses;
    if (metrics_ != nullptr) {
        metrics_->counter("cache.oracle.misses").add();
    }
    return nullptr;
}

void OracleCache::seed(const LinkFilter& filter,
                       std::shared_ptr<const RouteOracle> oracle) {
    AIO_EXPECTS(oracle != nullptr, "cannot seed a null oracle");
    AIO_EXPECTS(&oracle->topology() == topo_,
                "seeded oracle belongs to a different topology");
    const FilterDigest key = filter.digest();
    const std::lock_guard<std::mutex> lock{mutex_};
    if (const auto it = index_.find(key); it != index_.end()) {
        // Replacement, not eviction: the old entry's bytes leave the
        // retained set, the eviction counters stay untouched.
        it->second->oracle = std::move(oracle);
        lru_.splice(lru_.begin(), lru_, it->second);
        recomputeBytesLocked();
        enforceByteBudgetLocked();
        publishGaugesLocked();
        return;
    }
    insertLocked(key, std::move(oracle));
}

void OracleCache::insertLocked(const FilterDigest& key,
                               std::shared_ptr<const RouteOracle> oracle) {
    lru_.push_front(Entry{key, std::move(oracle)});
    index_.emplace(key, lru_.begin());
    if (lru_.size() > capacity_) {
        evictTailLocked();
    }
    recomputeBytesLocked();
    enforceByteBudgetLocked();
    stats_.entries = lru_.size();
    publishGaugesLocked();
}

void OracleCache::evictTailLocked() {
    const std::uint64_t bytes = lru_.back().oracle->memoryBytes();
    stats_.evictedBytes += bytes;
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
    if (metrics_ != nullptr) {
        metrics_->counter("cache.oracle.evictions").add();
        metrics_->counter("cache.oracle.evicted_bytes").add(bytes);
    }
}

void OracleCache::enforceByteBudgetLocked() {
    if (config_.byteBudget == 0) {
        return;
    }
    // Live entry bytes against the budget; keep at least one entry so a
    // single over-budget oracle (the baseline, typically) still caches.
    recomputeBytesLocked();
    while (stats_.retainedBytes > config_.byteBudget && lru_.size() > 1) {
        evictTailLocked();
        recomputeBytesLocked();
    }
    stats_.entries = lru_.size();
}

void OracleCache::recomputeBytesLocked() const {
    std::uint64_t total = 0;
    for (const Entry& entry : lru_) {
        total += entry.oracle->memoryBytes();
    }
    stats_.retainedBytes = total;
}

void OracleCache::publishGaugesLocked() {
    if (metrics_ != nullptr) {
        metrics_->gauge("cache.oracle.entries")
            .set(static_cast<double>(lru_.size()));
        metrics_->gauge("cache.oracle.retained_bytes")
            .set(static_cast<double>(stats_.retainedBytes));
    }
}

OracleCacheStats OracleCache::stats() const {
    const std::lock_guard<std::mutex> lock{mutex_};
    recomputeBytesLocked();
    return stats_;
}

std::uint64_t OracleCache::retainedBytesWith(const RouteOracle& held) const {
    const std::lock_guard<std::mutex> lock{mutex_};
    recomputeBytesLocked();
    const bool cached =
        std::ranges::any_of(lru_, [&held](const Entry& entry) {
            return entry.oracle.get() == &held;
        });
    return stats_.retainedBytes + (cached ? 0 : held.memoryBytes());
}

void OracleCache::resetStats() {
    const std::lock_guard<std::mutex> lock{mutex_};
    const std::size_t entries = stats_.entries;
    stats_ = OracleCacheStats{};
    stats_.entries = entries;
    recomputeBytesLocked();
}

void OracleCache::clear() {
    const std::lock_guard<std::mutex> lock{mutex_};
    lru_.clear();
    index_.clear();
    stats_.entries = 0;
    stats_.retainedBytes = 0;
    publishGaugesLocked();
}

void OracleCache::setByteBudget(std::size_t byteBudget) {
    const std::lock_guard<std::mutex> lock{mutex_};
    config_.byteBudget = byteBudget;
    recomputeBytesLocked();
    enforceByteBudgetLocked();
    stats_.entries = lru_.size();
    publishGaugesLocked();
}

} // namespace aio::route
