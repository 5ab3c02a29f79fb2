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
void solveDestination(const topo::Topology& topology,
                      const CompiledFilter& filter, topo::AsIndex dst,
                      std::int32_t* next, std::uint8_t* klass,
                      DestScratch& scratch) {
    const std::size_t n = topology.asCount();
    AIO_EXPECTS(filter.asCount() == n && scratch.dist.size() == n,
                "filter and scratch must match the topology size");
    if (!filter.asAllowed(dst)) {
        return;
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
}

CustomerFirstOrder::CustomerFirstOrder(const topo::Topology& topology) {
    AIO_EXPECTS(topology.finalized(), "order a finalized topology");
    // Kahn's algorithm over customer->provider edges: an AS joins the
    // order once its last customer has.
    const std::size_t n = topology.asCount();
    std::vector<std::uint32_t> pending(n);
    ases.reserve(n);
    for (topo::AsIndex as = 0; as < n; ++as) {
        pending[as] =
            static_cast<std::uint32_t>(topology.customersUnchecked(as).size());
        if (pending[as] == 0) {
            ases.push_back(static_cast<std::uint32_t>(as));
        }
    }
    for (std::size_t head = 0; head < ases.size(); ++head) {
        for (const std::uint32_t p : topology.providersUnchecked(ases[head])) {
            if (--pending[p] == 0) {
                ases.push_back(p);
            }
        }
    }
    complete = ases.size() == n;
    for (topo::AsIndex as = 0; as < n && !complete; ++as) {
        if (pending[as] != 0) {
            ases.push_back(static_cast<std::uint32_t>(as));
        }
    }
}

void ReachScratch::prepare(std::size_t n) {
    cone.resize(n * kReachWords);
    routed.resize(n * kReachWords);
}

namespace {

/// Ors AS `from`'s W words into `acc`.
template <std::size_t W>
void orInto(std::uint64_t* acc, const std::uint64_t* from) {
    for (std::size_t w = 0; w < W; ++w) {
        acc[w] |= from[w];
    }
}

/// Stores `acc` as AS `to`'s W words; returns whether a bit changed.
template <std::size_t W>
bool store(std::uint64_t* to, const std::uint64_t* acc) {
    std::uint64_t changed = 0;
    for (std::size_t w = 0; w < W; ++w) {
        changed |= to[w] ^ acc[w];
        to[w] = acc[w];
    }
    return changed != 0;
}

// Each AS pulls from the ASes that would offer it a route, so a
// disallowed AS is skipped and keeps all-zero words, and no edge needs
// its sending end tested. With a complete order each phase is one pass;
// otherwise a pass that changed a word is repeated, which only ever adds
// bits some chain of allowed edges justifies, until none changes.
template <std::size_t W>
void reachBlock(const topo::Topology& topology, const CompiledFilter& filter,
                const CustomerFirstOrder& order,
                std::span<const topo::AsIndex> dsts, std::uint64_t* cone,
                std::uint64_t* routed) {
    const std::size_t n = topology.asCount();
    std::fill_n(cone, n * W, std::uint64_t{0});
    std::fill_n(routed, n * W, std::uint64_t{0});
    for (std::size_t j = 0; j < dsts.size(); ++j) {
        if (filter.asAllowed(dsts[j])) {
            cone[dsts[j] * W + j / 64] |= std::uint64_t{1} << (j % 64);
        }
    }

    // Phase 1: customer routes, up customer->provider edges.
    const auto up = [&] {
        bool changed = false;
        for (const std::uint32_t p : order.ases) {
            if (!filter.asAllowed(p)) {
                continue;
            }
            std::uint64_t acc[W];
            std::copy_n(cone + p * W, W, acc);
            for (const std::uint32_t x : topology.customersUnchecked(p)) {
                if (filter.linkAllowed(x, p)) {
                    orInto<W>(acc, cone + x * W);
                }
            }
            changed |= store<W>(cone + p * W, acc);
        }
        return changed;
    };
    // Phases 2 and 3: one peer hop off the cone, then provider routes
    // down provider->customer edges from everything routed.
    const auto down = [&] {
        bool changed = false;
        for (auto it = order.ases.rbegin(); it != order.ases.rend(); ++it) {
            const std::uint32_t y = *it;
            if (!filter.asAllowed(y)) {
                continue;
            }
            std::uint64_t acc[W];
            std::copy_n(routed + y * W, W, acc);
            orInto<W>(acc, cone + y * W);
            for (const std::uint32_t z : topology.peersUnchecked(y)) {
                if (filter.linkAllowed(z, y)) {
                    orInto<W>(acc, cone + z * W);
                }
            }
            for (const std::uint32_t p : topology.providersUnchecked(y)) {
                if (filter.linkAllowed(p, y)) {
                    orInto<W>(acc, routed + p * W);
                }
            }
            changed |= store<W>(routed + y * W, acc);
        }
        return changed;
    };
    while (up() && !order.complete) {
    }
    while (down() && !order.complete) {
    }
}

} // namespace

void reachDestinations(const topo::Topology& topology,
                       const CompiledFilter& filter,
                       const CustomerFirstOrder& order,
                       std::span<const topo::AsIndex> dsts,
                       ReachScratch& scratch) {
    const std::size_t n = topology.asCount();
    AIO_EXPECTS(filter.asCount() == n && order.ases.size() == n &&
                    scratch.cone.size() == n * kReachWords,
                "filter, order and scratch must match the topology size");
    AIO_EXPECTS(dsts.size() <= kReachBlock,
                "a reachability pass answers at most kReachBlock destinations");
    for (const topo::AsIndex dst : dsts) {
        AIO_EXPECTS(dst < n, "destination AS index OOB");
    }
    // Only as many words per AS as the block has destinations.
    scratch.words = std::max<std::size_t>(1, (dsts.size() + 63) / 64);
    std::uint64_t* cone = scratch.cone.data();
    std::uint64_t* routed = scratch.routed.data();
    switch (scratch.words) {
    case 1:
        reachBlock<1>(topology, filter, order, dsts, cone, routed);
        break;
    case 2:
        reachBlock<2>(topology, filter, order, dsts, cone, routed);
        break;
    case 3:
        reachBlock<3>(topology, filter, order, dsts, cone, routed);
        break;
    default:
        reachBlock<kReachWords>(topology, filter, order, dsts, cone, routed);
        break;
    }
}

} // namespace aio::route::kernel
