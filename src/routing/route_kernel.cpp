#include "routing/route_kernel.hpp"

#include <algorithm>

#include "netbase/error.hpp"

namespace aio::route::kernel {

namespace {

constexpr auto kNone = static_cast<std::uint8_t>(RouteClass::None);
constexpr auto kSelf = static_cast<std::uint8_t>(RouteClass::Self);
constexpr auto kCustomer = static_cast<std::uint8_t>(RouteClass::Customer);
constexpr auto kPeer = static_cast<std::uint8_t>(RouteClass::Peer);
constexpr auto kProvider = static_cast<std::uint8_t>(RouteClass::Provider);

} // namespace

CompiledFilter::CompiledFilter(const LinkFilter& filter, std::size_t asCount)
    : flags_(asCount, 0) {
    auto links = filter.disabledLinks();
    std::erase_if(links, [&](const auto& link) {
        // Not a topology adjacency; cannot carry routes.
        return link.first >= asCount || link.second >= asCount;
    });
    if (!links.empty()) {
        // Counting sort of both directions of every link into per-AS
        // lists, then each list in ascending order.
        offsets_.assign(asCount + 1, 0);
        for (const auto& [a, b] : links) {
            ++offsets_[a + 1];
            ++offsets_[b + 1];
        }
        for (std::size_t as = 0; as < asCount; ++as) {
            offsets_[as + 1] += offsets_[as];
        }
        neighbours_.resize(offsets_[asCount]);
        std::vector<std::uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
        for (const auto& [a, b] : links) {
            flags_[a] |= kLinkEndpoint;
            flags_[b] |= kLinkEndpoint;
            neighbours_[fill[a]++] = static_cast<std::uint32_t>(b);
            neighbours_[fill[b]++] = static_cast<std::uint32_t>(a);
        }
        for (std::size_t as = 0; as < asCount; ++as) {
            std::sort(neighbours_.begin() + offsets_[as],
                      neighbours_.begin() + offsets_[as + 1]);
        }
    }
    if (filter.disabledAsCount() == 0) {
        return;
    }
    for (topo::AsIndex as = 0; as < asCount; ++as) {
        if (!filter.asAllowed(as)) {
            flags_[as] |= kAsDisabled;
        }
    }
}

void DestScratch::prepare(std::size_t n) {
    dist.resize(n);
    queue.resize(n);
}

std::size_t DestScratch::bytesFor(std::size_t n) {
    return 2 * n * sizeof(std::uint32_t);
}

// Every phase is a FIFO walk, so ASes are reached in nondecreasing
// distance, and the first AS to reach a node fixes its class and
// distance. The lowest-ASN tie-break then needs no sorted levels: a
// later parent at the same distance takes over the next hop when its
// ASN ranks lower, which leaves exactly the lowest-ASN parent — the
// first one an ASN-ordered walk of the level would have met.
std::size_t solveDestination(const topo::Topology& topology,
                             const CompiledFilter& filter, topo::AsIndex dst,
                             std::int32_t* next, std::uint8_t* klass,
                             DestScratch& scratch) {
    const std::size_t n = topology.asCount();
    AIO_EXPECTS(filter.asCount() == n && scratch.dist.size() == n,
                "filter and scratch must match the topology size");
    if (!filter.asAllowed(dst)) {
        return 0;
    }
    // dist is read only where this solve wrote it (ASes whose class it
    // set), so it needs no reset between destinations.
    std::uint32_t* dist = scratch.dist.data();
    std::uint32_t* queue = scratch.queue.data();
    const std::uint32_t* rank = topology.asnRanks().data();
    std::size_t tail = 0;

    // Routes `y` through `via` at distance `d` with class `k` when `y` is
    // unrouted (and allowed); when `y` already holds a class-`k` route of
    // the same distance, keeps whichever parent has the lower ASN.
    const auto offer = [&](std::uint32_t y, topo::AsIndex via,
                           std::uint32_t d, std::uint8_t k) {
        const std::uint8_t yk = klass[y];
        if (yk == kNone) {
            if (filter.asAllowed(y) && filter.linkAllowed(via, y)) {
                dist[y] = d;
                klass[y] = k;
                next[y] = static_cast<std::int32_t>(via);
                queue[tail++] = y;
            }
        } else if (yk == k && dist[y] == d &&
                   rank[via] < rank[static_cast<std::size_t>(next[y])] &&
                   filter.linkAllowed(via, y)) {
            next[y] = static_cast<std::int32_t>(via);
        }
    };

    // Phase 1: customer routes propagate up customer->provider edges
    // (breadth-first, so the cone lands in the queue by distance).
    dist[dst] = 0;
    klass[dst] = kSelf;
    next[dst] = static_cast<std::int32_t>(dst);
    queue[tail++] = static_cast<std::uint32_t>(dst);
    for (std::size_t head = 0; head < tail; ++head) {
        const std::uint32_t x = queue[head];
        for (const std::uint32_t p : topology.providersUnchecked(x)) {
            offer(p, x, dist[x] + 1, kCustomer);
        }
    }
    const std::size_t coneEnd = tail;

    // Phase 2: one optional peer hop off the customer cone. Peer routes
    // never chain, so this is a single pass; walking the cone by
    // distance makes a node's first offer its shortest.
    for (std::size_t i = 0; i < coneEnd; ++i) {
        const std::uint32_t z = queue[i];
        for (const std::uint32_t y : topology.peersUnchecked(z)) {
            offer(y, z, dist[z] + 1, kPeer);
        }
    }
    const std::size_t peerEnd = tail;

    // Phase 3: provider routes propagate down provider->customer edges
    // from every routed node, one distance at a time: distance b is the
    // cone and peer-routed nodes at b plus the nodes phase 3 first
    // reached from distance b - 1. The walk ends with the last
    // populated distance.
    std::size_t cone = 0;
    std::size_t peer = coneEnd;
    std::size_t reached = peerEnd;
    const auto relaxLevel = [&](std::size_t& i, std::size_t end,
                                std::uint32_t b) {
        for (; i < end && dist[queue[i]] <= b; ++i) {
            const std::uint32_t p = queue[i];
            for (const std::uint32_t y : topology.customersUnchecked(p)) {
                offer(y, p, dist[p] + 1, kProvider);
            }
        }
    };
    for (std::uint32_t b = 0; cone < coneEnd || peer < peerEnd ||
                              reached < tail;
         ++b) {
        relaxLevel(cone, coneEnd, b);
        relaxLevel(peer, peerEnd, b);
        relaxLevel(reached, tail, b); // stops before the b + 1 it appends
    }
    return tail;
}

} // namespace aio::route::kernel
