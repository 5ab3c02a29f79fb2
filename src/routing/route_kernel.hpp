#pragma once

#include <algorithm>
#include <cstdint>
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
/// test whose endpoints are not both flagged; only the rest probe the
/// exact link set, by binary search over its sorted keys. Entries naming
/// an AS index >= asCount cannot touch a route and are dropped. Compile
/// once per oracle build; immutable afterwards.
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
        return !std::binary_search(links_.begin(), links_.end(),
                                   linkKey(a, b));
    }

    /// Resident bytes: the flag array plus the disabled-link keys.
    [[nodiscard]] std::size_t memoryBytes() const {
        return flags_.size() + links_.size() * sizeof(std::uint64_t);
    }

private:
    static constexpr std::uint8_t kAsDisabled = 1;
    static constexpr std::uint8_t kLinkEndpoint = 2;

    static std::uint64_t linkKey(topo::AsIndex a, topo::AsIndex b) {
        const auto lo = static_cast<std::uint64_t>(a < b ? a : b);
        const auto hi = static_cast<std::uint64_t>(a < b ? b : a);
        return (hi << 32) | lo;
    }

    std::vector<std::uint8_t> flags_;  ///< per AS: kAsDisabled | kLinkEndpoint
    std::vector<std::uint64_t> links_; ///< sorted keys of disabled links
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
/// Contract: `next` / `klass` must arrive pre-filled with -1 /
/// RouteClass::None — the kernel writes only the nodes it reaches.
/// Every tie breaks by ASN, never by arrival order, so the output row is
/// a pure function of (topology, filter, dst): whichever thread, lane, or
/// storage policy runs this produces the same bytes.
void solveDestination(const topo::Topology& topology,
                      const CompiledFilter& filter, topo::AsIndex dst,
                      std::int32_t* next, std::uint8_t* klass,
                      DestScratch& scratch);

} // namespace aio::route::kernel
