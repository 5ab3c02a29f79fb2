#pragma once

#include <cstdint>
#include <memory>

#include "core/substrate.hpp"
#include "netbase/expected.hpp"
#include "routing/oracle_cache.hpp"
#include "routing/route_oracle.hpp"
#include "topo/as_graph.hpp"

namespace aio::service {

struct SnapshotConfig {
    std::uint64_t seed = 99;
    phys::LinkMapConfig linkConfig{};
    outage::ImpactConfig impact{};
    /// Entry capacity of the snapshot's private oracle cache.
    std::size_t cacheCapacity = 32;
    /// Retained-byte budget of that cache (0 = entry capacity only). The
    /// degradation ladder shrinks this at runtime under memory pressure.
    std::size_t cacheByteBudget = 0;
    /// Compute the baseline route-matrix digest at build time. O(n^2) in
    /// AS count — on for test-sized topologies (it is the torn-read
    /// check), off for continental-scale bench snapshots.
    bool computeDigest = true;
    /// Mirrored onto the substrate (optional, not owned, must outlive
    /// the snapshot).
    obs::MetricsRegistry* metrics = nullptr;
};

/// One immutable epoch of the observatory's world: a topology plus the
/// Substrate (baseline layers, analyzer, baseline oracle) derived from
/// it, owned whole so concurrent readers share it without any locking.
/// The only internally-mutable member is the oracle cache, which carries
/// its own lock and is safe to share; everything else is deep-frozen at
/// build time.
///
/// The snapshot's substrate deliberately carries NO worker pool: request
/// handlers are the service's unit of parallelism, and two handlers
/// driving one pool's parallelFor concurrently is exactly the wedge the
/// pool's reentrancy guard now rejects. Engines built on the snapshot
/// run their scenarios sequentially per handler.
class ServiceSnapshot {
public:
    /// Builds an epoch by value: copies/derives every layer, optionally
    /// computes the baseline digest. Returns the Substrate validation
    /// failure as a value — the failed-swap path the service degrades
    /// through instead of crashing.
    [[nodiscard]] static net::Expected<std::shared_ptr<const ServiceSnapshot>>
    build(topo::Topology topology, phys::CableRegistry registry,
          dns::DnsConfig dnsConfig, content::ContentConfig contentConfig,
          SnapshotConfig config = {});

    ServiceSnapshot(const ServiceSnapshot&) = delete;
    ServiceSnapshot& operator=(const ServiceSnapshot&) = delete;

    [[nodiscard]] const core::Substrate& substrate() const {
        return *substrate_;
    }
    [[nodiscard]] const topo::Topology& topology() const { return *topo_; }
    /// Zeroes when computeDigest was off.
    [[nodiscard]] const route::RouteMatrixDigest& digest() const {
        return digest_;
    }

    /// The snapshot's internally-locked cache — mutable through const
    /// because shrinking its byte budget is how the service degrades
    /// under memory pressure without touching frozen state.
    [[nodiscard]] route::OracleCache& cache() const { return *cache_; }

    /// Approximate resident footprint: baseline oracle + live cache
    /// entries. What the admission watermarks meter.
    [[nodiscard]] std::uint64_t residentBytes() const;

private:
    ServiceSnapshot() = default;

    std::unique_ptr<topo::Topology> topo_;
    std::unique_ptr<route::OracleCache> cache_;
    std::unique_ptr<core::Substrate> substrate_;
    route::RouteMatrixDigest digest_;
};

} // namespace aio::service
