#include "routing/path_oracle.hpp"

#include <string>

#include "exec/worker_pool.hpp"
#include "netbase/error.hpp"
#include "routing/route_kernel.hpp"

namespace aio::route {

namespace {

/// Typed guard against bad_alloc: refuse a dense build whose matrices
/// alone would blow past the ceiling, before touching the allocator.
void checkDenseCeiling(std::size_t n, std::size_t ceilingBytes) {
    const std::size_t bytes =
        n * n * (sizeof(std::int32_t) + sizeof(std::uint8_t));
    if (bytes > ceilingBytes) {
        throw net::CapacityError(
            "dense route matrices need " + std::to_string(bytes) +
            " bytes for " + std::to_string(n) +
            " ASes, over the ceiling of " + std::to_string(ceilingBytes) +
            " — use StoragePolicy::Sharded at this scale");
    }
}

} // namespace

PathOracle::PathOracle(const topo::Topology& topology,
                       const LinkFilter& filter,
                       std::size_t memoryCeilingBytes)
    : RouteOracle(topology) {
    checkDenseCeiling(n_, memoryCeilingBytes);
    build(filter, nullptr);
}

PathOracle::PathOracle(const topo::Topology& topology,
                       const LinkFilter& filter, exec::WorkerPool& pool,
                       std::size_t memoryCeilingBytes)
    : RouteOracle(topology) {
    checkDenseCeiling(n_, memoryCeilingBytes);
    build(filter, &pool);
}

void PathOracle::build(const LinkFilter& filter, exec::WorkerPool* pool) {
    AIO_EXPECTS(topo_->finalized(), "topology must be finalized");
    nextHop_.assign(n_ * n_, -1);
    klass_.assign(n_ * n_, static_cast<std::uint8_t>(RouteClass::None));
    const kernel::CompiledFilter compiled{filter, n_};

    if (pool == nullptr) {
        // Sequential reference: the plain destination loop the parallel
        // build is differential-tested against. A 1-thread pool goes
        // through parallelFor instead — same inline loop, same order,
        // but the pool's dispatch metrics see the build, keeping the
        // observability readout invariant across pool widths.
        kernel::DestScratch scratch;
        scratch.prepare(n_);
        for (topo::AsIndex dst = 0; dst < n_; ++dst) {
            kernel::solveDestination(*topo_, compiled, dst,
                                     &nextHop_[dst * n_], &klass_[dst * n_],
                                     scratch);
        }
        return;
    }

    const auto lanes = static_cast<std::size_t>(pool->threadCount());
    std::vector<kernel::DestScratch> scratch(lanes);
    for (auto& s : scratch) {
        s.prepare(n_);
    }
    // Each destination owns its row slab of nextHop_/klass_, and each lane
    // owns its scratch: no two lanes ever touch the same bytes, so the
    // result is independent of the chunk schedule.
    pool->parallelFor(n_, [&](std::size_t dst, std::size_t lane) {
        kernel::solveDestination(*topo_, compiled, dst, &nextHop_[dst * n_],
                                 &klass_[dst * n_], scratch[lane]);
    });
}

RouteClass PathOracle::routeClass(topo::AsIndex src,
                                  topo::AsIndex dst) const {
    AIO_EXPECTS(src < n_ && dst < n_, "AS index OOB");
    return static_cast<RouteClass>(klass_[dst * n_ + src]);
}

} // namespace aio::route
