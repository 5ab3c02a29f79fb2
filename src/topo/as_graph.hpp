#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "netbase/geo.hpp"
#include "netbase/ip.hpp"
#include "netbase/prefix_trie.hpp"
#include "netbase/region.hpp"

namespace aio::topo {

/// Autonomous system number.
using Asn = std::uint32_t;

/// Index of an AS inside a Topology (dense, 0-based).
using AsIndex = std::size_t;

/// Index of an IXP inside a Topology (dense, 0-based).
using IxpIndex = std::size_t;

/// Business role of an AS. The paper's core structural observation is the
/// *absence* of Tier1 (and scarcity of Tier2) inside Africa, so the role is
/// a first-class attribute rather than something derived.
enum class AsType {
    Tier1,           ///< settlement-free global transit (none in Africa)
    Tier2,           ///< regional transit provider
    AccessIsp,       ///< fixed-line eyeball network
    MobileOperator,  ///< cellular eyeball network (dominant in Africa)
    ContentProvider, ///< CDN / content network
    CloudProvider,   ///< public cloud (EU/US mostly; ZA in Africa)
    Enterprise,      ///< business / government network
    Education,       ///< NREN / campus network
};

[[nodiscard]] std::string_view asTypeName(AsType type);

/// True for the eyeball networks, whose users the paper measures: fixed
/// access ISPs and mobile operators.
[[nodiscard]] constexpr bool isEyeball(AsType type) {
    return type == AsType::AccessIsp || type == AsType::MobileOperator;
}

/// Static description of one AS.
struct AsInfo {
    Asn asn = 0;
    AsType type = AsType::AccessIsp;
    std::string countryCode;            ///< ISO alpha-2
    net::Region region = net::Region::WesternAfrica;
    net::GeoPoint location;             ///< main PoP location
    bool mobileDominant = false;        ///< >=65% mobile traffic (paper's
                                        ///< Cloudflare-Radar classification)
    std::vector<net::Prefix> prefixes;  ///< announced address space
    double trafficWeight = 1.0;         ///< relative eyeball traffic share
    bool hostsOffnetCache = false;      ///< serves CDN content locally
};

/// Policy class of an inter-AS adjacency.
enum class LinkKind {
    CustomerToProvider, ///< a = customer, b = provider
    PeerToPeer,         ///< settlement-free bilateral peering
};

/// One adjacency. `ixp` is set when the peering is established across an
/// IXP fabric (public peering); traceroutes then show the IXP LAN hop.
struct AsLink {
    AsIndex a = 0;
    AsIndex b = 0;
    LinkKind kind = LinkKind::PeerToPeer;
    std::optional<IxpIndex> ixp;
};

/// An Internet exchange point: a LAN prefix plus a member list.
struct Ixp {
    std::string name;
    std::string countryCode;
    net::Region region = net::Region::WesternAfrica;
    net::GeoPoint location;
    net::Prefix lanPrefix;
    std::vector<AsIndex> members;
    /// Most IXP LAN prefixes are not advertised in the global BGP table
    /// (RFC 7454 guidance) — the root cause of Table 1's poor IXP coverage.
    bool lanInGlobalTable = false;
    int yearEstablished = 2015;
    /// True when a content provider operates an off-net cache at this IXP
    /// (serves popular content locally, §2).
    bool hasContentCache = false;
};

/// The AS-level Internet: ASes, IXPs and policy-annotated adjacencies,
/// plus the lookup structures measurement code needs (prefix -> origin AS,
/// IXP LAN membership, per-country indices).
///
/// Build with addAs/addIxp/addLink, then call finalize() exactly once;
/// queries before finalize() throw PreconditionError.
class Topology {
public:
    Topology() = default;

    // ---- construction ----
    AsIndex addAs(AsInfo info);
    IxpIndex addIxp(Ixp ixp);

    /// Adds an adjacency. For CustomerToProvider `a` is the customer.
    /// Duplicate (a,b) adjacencies are rejected.
    void addLink(AsIndex a, AsIndex b, LinkKind kind,
                 std::optional<IxpIndex> ixp = std::nullopt);

    /// Registers `member` at `ixp` (idempotent) without creating peer
    /// links; the generator wires the actual peering mesh.
    void addIxpMember(IxpIndex ixp, AsIndex member);

    /// Freezes the topology and builds lookup indices.
    void finalize();
    [[nodiscard]] bool finalized() const { return finalized_; }

    // ---- AS queries ----
    [[nodiscard]] std::size_t asCount() const { return ases_.size(); }
    [[nodiscard]] const AsInfo& as(AsIndex index) const;
    [[nodiscard]] std::optional<AsIndex> indexOfAsn(Asn asn) const;
    /// Neighbors by relationship, each in ascending ASN order: views into
    /// the adjacency arena finalize() builds, valid while the topology
    /// lives.
    [[nodiscard]] std::span<const std::uint32_t>
    providersOf(AsIndex idx) const;
    [[nodiscard]] std::span<const std::uint32_t>
    customersOf(AsIndex idx) const;
    [[nodiscard]] std::span<const std::uint32_t> peersOf(AsIndex idx) const;
    /// IXPs where this AS is a member.
    [[nodiscard]] const std::vector<IxpIndex>& ixpsOf(AsIndex idx) const;

    [[nodiscard]] std::vector<AsIndex>
    asesInCountry(std::string_view iso2) const;
    [[nodiscard]] std::vector<AsIndex> asesInRegion(net::Region region) const;
    [[nodiscard]] std::vector<AsIndex> africanAses() const;

    // ---- link queries ----
    [[nodiscard]] const std::vector<AsLink>& links() const { return links_; }
    /// True when an adjacency (either kind, either direction) exists.
    /// Usable during construction, before finalize().
    [[nodiscard]] bool hasLink(AsIndex a, AsIndex b) const {
        return linkKeys_.contains(linkKey(a, b));
    }
    /// The IXP used by the peering between a and b, if any.
    [[nodiscard]] std::optional<IxpIndex> ixpBetween(AsIndex a,
                                                     AsIndex b) const;

    // ---- IXP queries ----
    [[nodiscard]] std::size_t ixpCount() const { return ixps_.size(); }
    [[nodiscard]] const Ixp& ixp(IxpIndex index) const;
    [[nodiscard]] std::vector<IxpIndex> africanIxps() const;

    // ---- address queries ----
    /// Longest-prefix-match origin AS of an address.
    [[nodiscard]] std::optional<AsIndex>
    originOf(net::Ipv4Address address) const;
    /// IXP whose LAN contains the address, if any.
    [[nodiscard]] std::optional<IxpIndex>
    ixpOfLanAddress(net::Ipv4Address address) const;
    /// Deterministic border-router address of an AS, varied by `salt` so
    /// different adjacencies show different interface IPs in traceroutes.
    [[nodiscard]] net::Ipv4Address routerAddress(AsIndex idx,
                                                 std::uint64_t salt) const;

    // ---- routing-kernel hot path ----
    // Inline views of the arenas finalize() builds, for the inner loops
    // of route::kernel and the sharded oracle's next-hop slots.
    // Unchecked: the caller guarantees finalized() and idx < asCount().

    /// Position of every AS's ASN in ascending ASN order, indexed by
    /// AsIndex: comparing ranks orders exactly as comparing ASNs.
    [[nodiscard]] std::span<const std::uint32_t> asnRanks() const noexcept {
        return asnRank_;
    }
    [[nodiscard]] std::span<const std::uint32_t>
    providersUnchecked(AsIndex idx) const noexcept {
        return relationSpan(idx, kProviders);
    }
    [[nodiscard]] std::span<const std::uint32_t>
    customersUnchecked(AsIndex idx) const noexcept {
        return relationSpan(idx, kCustomers);
    }
    [[nodiscard]] std::span<const std::uint32_t>
    peersUnchecked(AsIndex idx) const noexcept {
        return relationSpan(idx, kPeers);
    }
    /// AS idx's whole arena row: its providers, then customers, then
    /// peers, so each segment above is a contiguous slice of it.
    [[nodiscard]] std::span<const std::uint32_t>
    rowUnchecked(AsIndex idx) const noexcept {
        const std::uint32_t* bounds = adjBounds_.data() + kRelations * idx;
        return {adjArena_.data() + bounds[0], bounds[kRelations] - bounds[0]};
    }

private:
    void requireFinalized() const;
    void requireNotFinalized() const;

    // Segment order of one AS's row in the adjacency arena.
    static constexpr std::size_t kProviders = 0;
    static constexpr std::size_t kCustomers = 1;
    static constexpr std::size_t kPeers = 2;
    static constexpr std::size_t kRelations = 3;

    [[nodiscard]] std::span<const std::uint32_t>
    relationSpan(AsIndex idx, std::size_t relation) const noexcept {
        const std::uint32_t* bounds =
            adjBounds_.data() + kRelations * idx + relation;
        return {adjArena_.data() + bounds[0], bounds[1] - bounds[0]};
    }

    /// Unordered pair key for adjacency lookups.
    static std::uint64_t linkKey(AsIndex a, AsIndex b) {
        const auto lo = static_cast<std::uint64_t>(a < b ? a : b);
        const auto hi = static_cast<std::uint64_t>(a < b ? b : a);
        return (hi << 32) | lo;
    }

    std::vector<AsInfo> ases_;
    std::vector<Ixp> ixps_;
    std::vector<AsLink> links_;
    bool finalized_ = false;

    // Adjacency arena, filled by finalize(): AS i's row is its providers,
    // then customers, then peers, each segment in ascending ASN order;
    // segment r of row i spans [adjBounds_[3i + r], adjBounds_[3i + r + 1]).
    std::vector<std::uint32_t> adjBounds_; ///< 3n + 1 arena offsets
    std::vector<std::uint32_t> adjArena_;  ///< 2 entries per link
    std::vector<std::uint32_t> asnRank_;   ///< AsIndex -> ASN order
    std::vector<std::vector<IxpIndex>> memberIxps_;
    net::PrefixTrie<AsIndex> originTrie_;
    net::PrefixTrie<IxpIndex> ixpLanTrie_;
    std::vector<std::pair<Asn, AsIndex>> asnIndex_; // sorted for lookup
    std::unordered_set<std::uint64_t> linkKeys_;
    std::unordered_map<std::uint64_t, IxpIndex> linkIxp_;
};

} // namespace aio::topo
