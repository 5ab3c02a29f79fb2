#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "routing/route_oracle.hpp"
#include "topo/as_graph.hpp"

/// The Gao-Rexford per-destination routing kernel, extracted from the
/// dense PathOracle so the sharded oracle runs the *same* code path —
/// byte-identity between the two storage policies is then a property of
/// the storage encoding alone, not of two solvers agreeing.
namespace aio::route::kernel {

/// A LinkFilter compiled for the kernel's inner loops, so solving a
/// destination does no hash lookup: one flag byte per AS (disabled /
/// endpoint of a disabled link) answers every AS test, and every link
/// test whose endpoints are not both flagged; only the rest search one
/// endpoint's sorted list of disabled neighbours, the shorter of the
/// two. Entries naming an AS index >= asCount cannot touch a route and
/// are dropped. Compile once per routing state; immutable afterwards.
class CompiledFilter {
public:
    CompiledFilter(const LinkFilter& filter, std::size_t asCount);

    [[nodiscard]] std::size_t asCount() const { return flags_.size(); }

    [[nodiscard]] bool asAllowed(topo::AsIndex as) const {
        return (flags_[as] & kAsDisabled) == 0;
    }
    [[nodiscard]] bool linkAllowed(topo::AsIndex a, topo::AsIndex b) const {
        if ((flags_[a] & flags_[b] & kLinkEndpoint) == 0) {
            return true;
        }
        const std::uint32_t* aFirst = neighbours_.data() + offsets_[a];
        const std::uint32_t* aLast = neighbours_.data() + offsets_[a + 1];
        const std::uint32_t* bFirst = neighbours_.data() + offsets_[b];
        const std::uint32_t* bLast = neighbours_.data() + offsets_[b + 1];
        return aLast - aFirst <= bLast - bFirst
                   ? !std::binary_search(aFirst, aLast,
                                         static_cast<std::uint32_t>(b))
                   : !std::binary_search(bFirst, bLast,
                                         static_cast<std::uint32_t>(a));
    }

    /// Resident bytes: the flag array plus the disabled-neighbour lists
    /// and their offsets.
    [[nodiscard]] std::size_t memoryBytes() const {
        return flags_.size() +
               (offsets_.size() + neighbours_.size()) * sizeof(std::uint32_t);
    }

private:
    static constexpr std::uint8_t kAsDisabled = 1;
    static constexpr std::uint8_t kLinkEndpoint = 2;

    std::vector<std::uint8_t> flags_; ///< per AS: kAsDisabled | kLinkEndpoint
    /// AS i's disabled neighbours are neighbours_[offsets_[i],
    /// offsets_[i + 1]), ascending. Both are empty when no link is
    /// disabled, since then no AS carries kLinkEndpoint.
    std::vector<std::uint32_t> offsets_;
    std::vector<std::uint32_t> neighbours_;
};

/// Reusable per-lane working set: one of these per pool lane, so the
/// hot loop never allocates and lanes never share mutable state.
struct DestScratch {
    std::vector<std::uint32_t> dist;
    /// Every AS the solve routes, in the order it routed them: the
    /// customer cone by distance, then the peer-routed ASes by distance,
    /// then the provider-routed ones as phase 3 reaches them.
    std::vector<std::uint32_t> queue;

    /// Sizes the scratch for an n-AS topology (idempotent; call once per
    /// lane before the first solveDestination).
    void prepare(std::size_t n);

    /// Bytes prepare(n) allocates.
    [[nodiscard]] static std::size_t bytesFor(std::size_t n);
};

/// Solves all-source best routes towards `dst` under the standard
/// Gao-Rexford model (customer > peer > provider, then shortest path,
/// then lowest next-hop ASN), writing next-hop and route-class values
/// into the caller's n-element row arrays. Reads only flat arrays: the
/// topology's adjacency arena and ASN ranks, and the compiled filter.
///
/// Contract: `klass` must arrive pre-filled with RouteClass::None — the
/// kernel writes `next` / `klass` only for the nodes it reaches, and
/// reads `next` only where it has set `klass`, so `next` holds -1 for the
/// unreached nodes exactly when it arrived so. Every tie breaks by ASN,
/// never by arrival order, so the output row is a pure function of
/// (topology, filter, dst): whichever thread, lane, or storage policy
/// runs this produces the same bytes.
void solveDestination(const topo::Topology& topology,
                      const CompiledFilter& filter, topo::AsIndex dst,
                      std::int32_t* next, std::uint8_t* klass,
                      DestScratch& scratch);

/// The topology's ASes with each one after all of its customers, so one
/// pass up the customer->provider edges in this order, and one down them
/// in reverse, carries a bit the whole way. Topology::addLink admits
/// customer->provider cycles, which have no such order: the ASes on a
/// cycle and above one then follow the ordered ones in index order,
/// `complete` is false, and reachDestinations repeats each pass until no
/// word changes. Compute once per topology.
struct CustomerFirstOrder {
    explicit CustomerFirstOrder(const topo::Topology& topology);

    std::vector<std::uint32_t> ases; ///< every AS index, once
    bool complete = true;
};

/// Destinations one reachDestinations call answers: one bit each, in at
/// most kReachWords 64-bit words per AS.
inline constexpr std::size_t kReachWords = 4;
inline constexpr std::size_t kReachBlock = 64 * kReachWords;

/// Reusable per-lane working set of reachDestinations: two n-AS word
/// arrays, the customer cone's bits and the routed bits.
struct ReachScratch {
    std::vector<std::uint64_t> cone;
    std::vector<std::uint64_t> routed;
    std::size_t words = 0; ///< words per AS of the last call

    /// Sizes the scratch for an n-AS topology: 2 * n * kReachWords
    /// words (idempotent; call once per lane before the first
    /// reachDestinations).
    void prepare(std::size_t n);

    /// Whether the last reachDestinations routed `as` towards its j-th
    /// destination.
    [[nodiscard]] bool reaches(topo::AsIndex as, std::size_t j) const {
        return (routed[as * words + j / 64] >> (j % 64) & 1U) != 0;
    }
};

/// The reachability twin of solveDestination, for up to kReachBlock
/// destinations at once: afterwards scratch.reaches(as, j) holds exactly
/// when solveDestination(topology, filter, dsts[j], ...) routes `as`
/// (its klass is not None). That set is the customer cone (ASes that
/// reach dsts[j] over allowed customer->provider edges), the ASes one
/// allowed peer hop off it, and everything below either over allowed
/// provider->customer edges; distances and ASN tie-breaks pick next hops
/// among routed ASes but never decide whether one is routed. So each AS
/// carries one bit per destination, ORed up the customer->provider edges
/// in `order`, across one peer hop, then down in reverse order.
void reachDestinations(const topo::Topology& topology,
                       const CompiledFilter& filter,
                       const CustomerFirstOrder& order,
                       std::span<const topo::AsIndex> dsts,
                       ReachScratch& scratch);

} // namespace aio::route::kernel
