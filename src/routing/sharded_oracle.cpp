#include "routing/sharded_oracle.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "exec/worker_pool.hpp"
#include "netbase/error.hpp"

namespace aio::route {

namespace {

// uint16 hop sentinels, carved off the top of the slot range. Real slots
// are < kHopWide, which the constructor's narrow-slot clamp guarantees.
constexpr std::uint16_t kHopNone = 0xFFFF; ///< unreachable (class None)
constexpr std::uint16_t kHopSelf = 0xFFFE; ///< src == dst (class Self)
constexpr std::uint16_t kHopWide = 0xFFFD; ///< next hop in the wide arena

constexpr std::uint32_t kNotWide =
    std::numeric_limits<std::uint32_t>::max();

} // namespace

ShardedOracle::ShardedOracle(const topo::Topology& topology,
                             const LinkFilter& filter,
                             const ShardedOracleConfig& config)
    : RouteOracle(topology),
      csr_(topo::CsrAdjacency::fromTopology(topology)), filter_(filter, n_),
      config_(config) {
    config_.narrowSlotLimit =
        std::min<std::uint32_t>(config_.narrowSlotLimit, kHopWide);
    if (config_.shardDestinations == 0) {
        config_.shardDestinations = 1;
    }
    if (config_.residentByteBudget == 0) {
        // Auto budget: a 24th of the dense extrapolation (5 bytes/pair),
        // floored at 32 MiB so small topologies never evict.
        config_.residentByteBudget = std::max<std::size_t>(
            std::size_t{32} << 20,
            n_ * n_ * (sizeof(std::int32_t) + sizeof(std::uint8_t)) / 24);
    }

    hopBytesPerRow_ = n_ * sizeof(std::uint16_t);
    packBytesPerRow_ = (n_ + 3) / 4;
    wideRank_.assign(n_, kNotWide);
    for (topo::AsIndex src = 0; src < n_; ++src) {
        if (csr_.degree(src) >= config_.narrowSlotLimit) {
            wideRank_[src] = static_cast<std::uint32_t>(wideSrcs_.size());
            wideSrcs_.push_back(static_cast<std::uint32_t>(src));
        }
    }

    rowState_.assign(n_, kRowUnknown);
    const std::size_t per = config_.shardDestinations;
    shards_.resize(n_ == 0 ? 0 : (n_ + per - 1) / per);
    std::size_t maxShardBytes = 0;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        shards_[i].firstDst = i * per;
        shards_[i].rows = std::min(per, n_ - shards_[i].firstDst);
        maxShardBytes =
            std::max(maxShardBytes, shards_[i].rows * rowBytes());
    }

    fixedBytes_ = csr_.memoryBytes() + filter_.memoryBytes() +
                  wideRank_.size() * sizeof(std::uint32_t) +
                  wideSrcs_.size() * sizeof(std::uint32_t) +
                  rowState_.size();
    residentBytes_.store(fixedBytes_, std::memory_order_relaxed);

    const std::size_t minimum =
        fixedBytes_ + solveScratchBytes() + maxShardBytes;
    if (minimum > config_.residentByteBudget) {
        throw net::CapacityError(
            "sharded oracle needs " + std::to_string(minimum) +
            " resident bytes (fixed overhead + solve scratch + one shard)"
            " for " +
            std::to_string(n_) + " ASes, over the budget of " +
            std::to_string(config_.residentByteBudget) +
            " — raise residentByteBudget or shrink shardDestinations");
    }
}

std::size_t ShardedOracle::shardArenaBytes(const Shard& shard) const {
    return shard.rows * rowBytes();
}

std::size_t ShardedOracle::solveScratchBytes() const {
    return kernel::DestScratch::bytesFor(n_) +
           n_ * (sizeof(std::int32_t) + sizeof(std::uint8_t));
}

std::size_t ShardedOracle::residentShardCount() const {
    std::scoped_lock lock(mutex_);
    std::size_t count = 0;
    for (const Shard& shard : shards_) {
        count += shard.resident() ? 1 : 0;
    }
    return count;
}

ShardedOracle::Shard&
ShardedOracle::residentShardLocked(topo::AsIndex dst) const {
    const std::size_t index = dst / config_.shardDestinations;
    Shard& shard = shards_[index];
    if (!shard.resident()) {
        shard.hops.assign(shard.rows * n_, 0);
        shard.pack.assign(shard.rows * packBytesPerRow_, 0);
        shard.wide.assign(shard.rows * wideSrcs_.size(), -1);
        residentBytes_.fetch_add(shardArenaBytes(shard),
                                 std::memory_order_relaxed);
        shard.lastUse = ++useClock_;
        enforceBudgetLocked(index);
    }
    return shard;
}

void ShardedOracle::enforceBudgetLocked(std::size_t protectedShard) const {
    while (residentBytes_.load(std::memory_order_relaxed) >
           config_.residentByteBudget) {
        std::size_t victim = shards_.size();
        std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
        for (std::size_t i = 0; i < shards_.size(); ++i) {
            if (i != protectedShard && shards_[i].resident() &&
                shards_[i].lastUse < oldest) {
                oldest = shards_[i].lastUse;
                victim = i;
            }
        }
        if (victim == shards_.size()) {
            return; // only the protected shard is resident
        }
        evictShardLocked(victim);
    }
}

void ShardedOracle::evictShardLocked(std::size_t shardIndex) const {
    Shard& shard = shards_[shardIndex];
    residentBytes_.fetch_sub(shardArenaBytes(shard),
                             std::memory_order_relaxed);
    std::vector<std::uint16_t>().swap(shard.hops);
    std::vector<std::uint8_t>().swap(shard.pack);
    std::vector<std::int32_t>().swap(shard.wide);
    for (std::size_t r = 0; r < shard.rows; ++r) {
        // Solved rows lose their bytes, never their solved-ness:
        // kRowEvicted re-solves on touch without counting the row again.
        if (rowState_[shard.firstDst + r] == kRowSolved) {
            rowState_[shard.firstDst + r] = kRowEvicted;
        }
    }
    shardEvictions_.fetch_add(1, std::memory_order_relaxed);
}

void ShardedOracle::encodeRow(topo::AsIndex dst,
                              const std::int32_t* rowNext,
                              const std::uint8_t* rowKlass) const {
    Shard& shard = residentShardLocked(dst);
    const std::size_t r = dst - shard.firstDst;
    std::uint16_t* hops = shard.hops.data() + r * n_;
    std::uint8_t* pack = shard.pack.data() + r * packBytesPerRow_;
    std::int32_t* wide =
        wideSrcs_.empty() ? nullptr
                          : shard.wide.data() + r * wideSrcs_.size();
    std::fill_n(pack, packBytesPerRow_, std::uint8_t{0});
    for (topo::AsIndex src = 0; src < n_; ++src) {
        const std::uint8_t k = rowKlass[src];
        if (k == static_cast<std::uint8_t>(RouteClass::None)) {
            hops[src] = kHopNone;
            continue;
        }
        if (src == dst) {
            hops[src] = kHopSelf;
            continue;
        }
        pack[src >> 2] |= static_cast<std::uint8_t>(
            (k & 3u) << ((src & 3u) * 2));
        const std::int32_t nh = rowNext[src];
        if (wideRank_[src] != kNotWide) {
            hops[src] = kHopWide;
            wide[wideRank_[src]] = nh;
        } else {
            const std::int32_t slot =
                csr_.slotOf(src, static_cast<topo::AsIndex>(nh));
            AIO_EXPECTS(slot >= 0, "next hop is not a CSR neighbor");
            hops[src] = static_cast<std::uint16_t>(slot);
        }
    }
}

void ShardedOracle::solveRow(topo::AsIndex dst, std::int32_t* rowNext,
                             std::uint8_t* rowKlass,
                             kernel::DestScratch& scratch) const {
    std::fill_n(rowNext, n_, std::int32_t{-1});
    std::fill_n(rowKlass, n_,
                static_cast<std::uint8_t>(RouteClass::None));
    kernel::solveDestination(*topo_, filter_, dst, rowNext, rowKlass,
                             scratch);
    encodeRow(dst, rowNext, rowKlass);
}

void ShardedOracle::ensureRowLocked(topo::AsIndex dst) const {
    const std::uint8_t state = rowState_[dst];
    const std::size_t index = dst / config_.shardDestinations;
    if (state == kRowSolved && shards_[index].resident()) {
        shards_[index].lastUse = ++useClock_;
        return;
    }
    if (state == kRowUnknown) {
        solvedRows_.fetch_add(1, std::memory_order_relaxed);
    }
    if (rowNext_.empty()) {
        scratch_.prepare(n_);
        rowNext_.resize(n_);
        rowKlass_.resize(n_);
        residentBytes_.fetch_add(solveScratchBytes(),
                                 std::memory_order_relaxed);
        enforceBudgetLocked(index);
    }
    solveRow(dst, rowNext_.data(), rowKlass_.data(), scratch_);
    rowState_[dst] = kRowSolved;
    shards_[index].lastUse = ++useClock_;
}

std::int32_t ShardedOracle::nextHopOf(topo::AsIndex src,
                                      topo::AsIndex dst) const {
    AIO_EXPECTS(src < n_ && dst < n_, "AS index OOB");
    std::scoped_lock lock(mutex_);
    ensureRowLocked(dst);
    return lookupLocked(src, dst).first;
}

RouteClass ShardedOracle::routeClass(topo::AsIndex src,
                                     topo::AsIndex dst) const {
    AIO_EXPECTS(src < n_ && dst < n_, "AS index OOB");
    std::scoped_lock lock(mutex_);
    ensureRowLocked(dst);
    return lookupLocked(src, dst).second;
}

std::pair<std::int32_t, RouteClass>
ShardedOracle::lookupLocked(topo::AsIndex src, topo::AsIndex dst) const {
    const Shard& shard = shards_[dst / config_.shardDestinations];
    const std::size_t r = dst - shard.firstDst;
    const std::uint16_t hop = shard.hops[r * n_ + src];
    if (hop == kHopNone) {
        return {-1, RouteClass::None};
    }
    if (hop == kHopSelf) {
        return {static_cast<std::int32_t>(src), RouteClass::Self};
    }
    const auto klass = static_cast<RouteClass>(
        (shard.pack[r * packBytesPerRow_ + (src >> 2)] >>
         ((src & 3u) * 2)) &
        3u);
    if (hop == kHopWide) {
        return {shard.wide[r * wideSrcs_.size() + wideRank_[src]], klass};
    }
    return {static_cast<std::int32_t>(csr_.neighborAt(src, hop)), klass};
}

void ShardedOracle::materializeDestinations(
    std::span<const topo::AsIndex> dsts) const {
    std::scoped_lock lock(mutex_);
    for (const topo::AsIndex dst : dsts) {
        AIO_EXPECTS(dst < n_, "AS index OOB");
        ensureRowLocked(dst);
    }
}

void ShardedOracle::materializeAll(exec::WorkerPool* pool) const {
    std::scoped_lock lock(mutex_);
    if (pool == nullptr) {
        for (topo::AsIndex dst = 0; dst < n_; ++dst) {
            ensureRowLocked(dst);
        }
        return;
    }
    // Shard-parallel build: the coordinator allocates one shard's arena,
    // the pool solves its rows (disjoint arena slices, disjoint state
    // bytes, per-lane scratch — no shared mutable state between lanes),
    // then the budget is enforced before moving on, so a bulk build at
    // continent scale streams through the budget instead of blowing it.
    const auto lanes = static_cast<std::size_t>(pool->threadCount());
    std::vector<kernel::DestScratch> scratch(lanes);
    std::vector<std::vector<std::int32_t>> laneNext(lanes);
    std::vector<std::vector<std::uint8_t>> laneKlass(lanes);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
        scratch[lane].prepare(n_);
        laneNext[lane].resize(n_);
        laneKlass[lane].resize(n_);
    }
    for (std::size_t index = 0; index < shards_.size(); ++index) {
        Shard& shard = shards_[index];
        (void)residentShardLocked(shard.firstDst);
        pool->parallelFor(shard.rows, [&](std::size_t r, std::size_t lane) {
            const auto dst = static_cast<topo::AsIndex>(shard.firstDst + r);
            const std::uint8_t state = rowState_[dst];
            if (state == kRowSolved) {
                return;
            }
            if (state == kRowUnknown) {
                solvedRows_.fetch_add(1, std::memory_order_relaxed);
            }
            solveRow(dst, laneNext[lane].data(), laneKlass[lane].data(),
                     scratch[lane]);
            rowState_[dst] = kRowSolved;
        });
        shard.lastUse = ++useClock_;
        enforceBudgetLocked(index);
    }
}

std::shared_ptr<const RouteOracle>
buildOracle(const topo::Topology& topology, StoragePolicy policy,
            const LinkFilter& filter, exec::WorkerPool* pool,
            const ShardedOracleConfig& shardedConfig) {
    if (policy == StoragePolicy::Dense) {
        if (pool != nullptr) {
            return std::make_shared<const PathOracle>(topology, filter,
                                                      *pool);
        }
        return std::make_shared<const PathOracle>(topology, filter);
    }
    return std::make_shared<const ShardedOracle>(topology, filter,
                                                 shardedConfig);
}

} // namespace aio::route
