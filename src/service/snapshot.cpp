#include "service/snapshot.hpp"

#include <utility>

namespace aio::service {

net::Expected<std::shared_ptr<const ServiceSnapshot>>
ServiceSnapshot::build(topo::Topology topology, phys::CableRegistry registry,
                       dns::DnsConfig dnsConfig,
                       content::ContentConfig contentConfig,
                       SnapshotConfig config) {
    if (!topology.finalized()) {
        return net::Error::precondition(
            "snapshot topology must be finalized before publication");
    }
    // shared_ptr<ServiceSnapshot> first, const-ified on return: the
    // members are wired up in dependency order against stable addresses.
    auto snapshot = std::shared_ptr<ServiceSnapshot>{new ServiceSnapshot{}};
    snapshot->topo_ =
        std::make_unique<topo::Topology>(std::move(topology));

    route::OracleCacheConfig cacheConfig;
    cacheConfig.policy = config.impact.routeStorage;
    cacheConfig.sharded = config.impact.shardedRouting;
    cacheConfig.byteBudget = config.cacheByteBudget;
    snapshot->cache_ = std::make_unique<route::OracleCache>(
        *snapshot->topo_, config.cacheCapacity, nullptr, config.metrics,
        cacheConfig);

    core::Substrate::Options options;
    options.linkConfig = config.linkConfig;
    options.seed = config.seed;
    options.oracleCache = snapshot->cache_.get();
    options.pool = nullptr; // handlers are the parallelism — see class doc
    options.metrics = config.metrics;
    options.impact = config.impact;
    auto substrate = core::Substrate::tryCreate(
        *snapshot->topo_, std::move(registry), std::move(dnsConfig),
        std::move(contentConfig), options);
    if (!substrate.hasValue()) {
        return substrate.error();
    }
    snapshot->substrate_ =
        std::make_unique<core::Substrate>(std::move(substrate).value());

    if (config.computeDigest) {
        snapshot->digest_ = route::routeMatrixDigest(
            *snapshot->substrate_->analyzer().baselineOracle());
    }
    return std::shared_ptr<const ServiceSnapshot>{std::move(snapshot)};
}

std::uint64_t ServiceSnapshot::residentBytes() const {
    // The analyzer fetched its baseline through the cache, so the cache
    // counts it for as long as it keeps the entry.
    return cache_->retainedBytesWith(
        *substrate_->analyzer().baselineOracle());
}

} // namespace aio::service
