#include "routing/sharded_oracle.hpp"

#include <algorithm>
#include <limits>
#include <string>

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

/// Position of next hop `via` in src's arena row. A route's class names
/// the segment its next hop sits in (a customer route leaves through a
/// customer, and so on), and each segment is ASN-ordered, so a binary
/// search by ASN rank finds the slot.
std::uint16_t arenaSlot(const topo::Topology& topology, topo::AsIndex src,
                        topo::AsIndex via, RouteClass klass) {
    const auto segment = klass == RouteClass::Customer
                             ? topology.customersUnchecked(src)
                         : klass == RouteClass::Peer
                             ? topology.peersUnchecked(src)
                             : topology.providersUnchecked(src);
    const std::uint32_t* rank = topology.asnRanks().data();
    const auto it = std::ranges::lower_bound(
        segment, rank[via], {}, [rank](std::uint32_t as) { return rank[as]; });
    AIO_EXPECTS(it != segment.end() && *it == via,
                "next hop is not in its route class's segment");
    return static_cast<std::uint16_t>(
        (segment.data() - topology.rowUnchecked(src).data()) +
        (it - segment.begin()));
}

} // namespace

ShardedOracle::ShardedOracle(const topo::Topology& topology,
                             const LinkFilter& filter,
                             const ShardedOracleConfig& config)
    : RouteOracle(topology), filter_(filter, n_), config_(config) {
    AIO_EXPECTS(topology.finalized(), "topology must be finalized");
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
        if (topology.rowUnchecked(src).size() >= config_.narrowSlotLimit) {
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

    fixedBytes_ = filter_.memoryBytes() +
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

void ShardedOracle::solveRowLocked(topo::AsIndex dst) const {
    std::int32_t* rowNext = rowNext_.data();
    std::uint8_t* rowKlass = rowKlass_.data();
    std::fill_n(rowNext, n_, std::int32_t{-1});
    std::fill_n(rowKlass, n_,
                static_cast<std::uint8_t>(RouteClass::None));
    kernel::solveDestination(*topo_, filter_, dst, rowNext, rowKlass,
                             scratch_);

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
            hops[src] = arenaSlot(*topo_, src, static_cast<topo::AsIndex>(nh),
                                  static_cast<RouteClass>(k));
        }
    }
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
    solveRowLocked(dst);
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
    return {static_cast<std::int32_t>(topo_->rowUnchecked(src)[hop]), klass};
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
