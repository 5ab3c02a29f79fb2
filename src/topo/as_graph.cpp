#include "topo/as_graph.hpp"

#include <algorithm>

#include "netbase/error.hpp"

namespace aio::topo {

std::string_view asTypeName(AsType type) {
    switch (type) {
    case AsType::Tier1: return "Tier1";
    case AsType::Tier2: return "Tier2";
    case AsType::AccessIsp: return "AccessISP";
    case AsType::MobileOperator: return "Mobile";
    case AsType::ContentProvider: return "Content";
    case AsType::CloudProvider: return "Cloud";
    case AsType::Enterprise: return "Enterprise";
    case AsType::Education: return "Education";
    }
    return "?";
}

void Topology::requireFinalized() const {
    AIO_EXPECTS(finalized_, "topology must be finalize()d before queries");
}

void Topology::requireNotFinalized() const {
    AIO_EXPECTS(!finalized_, "topology is already finalized");
}

AsIndex Topology::addAs(AsInfo info) {
    requireNotFinalized();
    AIO_EXPECTS(info.asn != 0, "ASN 0 is reserved");
    ases_.push_back(std::move(info));
    return ases_.size() - 1;
}

IxpIndex Topology::addIxp(Ixp ixp) {
    requireNotFinalized();
    ixps_.push_back(std::move(ixp));
    return ixps_.size() - 1;
}

void Topology::addLink(AsIndex a, AsIndex b, LinkKind kind,
                       std::optional<IxpIndex> ixp) {
    requireNotFinalized();
    AIO_EXPECTS(a < ases_.size() && b < ases_.size(), "link endpoint OOB");
    AIO_EXPECTS(a != b, "self-links are not allowed");
    AIO_EXPECTS(!ixp || *ixp < ixps_.size(), "link IXP index OOB");
    const auto [it, inserted] = linkKeys_.insert(linkKey(a, b));
    AIO_EXPECTS(inserted, "duplicate adjacency");
    links_.push_back(AsLink{a, b, kind, ixp});
}

void Topology::addIxpMember(IxpIndex ixp, AsIndex member) {
    requireNotFinalized();
    AIO_EXPECTS(ixp < ixps_.size(), "IXP index OOB");
    AIO_EXPECTS(member < ases_.size(), "member index OOB");
    auto& members = ixps_[ixp].members;
    if (std::ranges::find(members, member) == members.end()) {
        members.push_back(member);
    }
}

void Topology::finalize() {
    requireNotFinalized();
    finalized_ = true;
    const std::size_t n = ases_.size();
    AIO_EXPECTS(n < (std::size_t{1} << 32) &&
                    2 * links_.size() < (std::size_t{1} << 32),
                "topology too large for 32-bit adjacency arena");

    for (std::size_t i = 0; i < n; ++i) {
        asnIndex_.emplace_back(ases_[i].asn, i);
    }
    std::ranges::sort(asnIndex_);
    for (std::size_t i = 1; i < asnIndex_.size(); ++i) {
        AIO_EXPECTS(asnIndex_[i - 1].first != asnIndex_[i].first,
                    "duplicate ASN in topology");
    }
    asnRank_.resize(n);
    for (std::size_t rank = 0; rank < n; ++rank) {
        asnRank_[asnIndex_[rank].second] = static_cast<std::uint32_t>(rank);
    }
    // Deterministic neighbor order (by ASN) so routing tie-breaks are
    // stable across runs regardless of construction order.
    const auto byAsn = [this](AsIndex lhs, AsIndex rhs) {
        return asnRank_[lhs] < asnRank_[rhs];
    };

    // Relation-split adjacency arena: count each (AS, relation) segment,
    // prefix-sum the counts into bounds, scatter, then sort each segment.
    adjBounds_.assign(kRelations * n + 1, 0);
    const auto slot = [](AsIndex as, std::size_t relation) {
        return kRelations * as + relation + 1;
    };
    for (const AsLink& link : links_) {
        if (link.kind == LinkKind::CustomerToProvider) {
            ++adjBounds_[slot(link.a, kProviders)];
            ++adjBounds_[slot(link.b, kCustomers)];
        } else {
            ++adjBounds_[slot(link.a, kPeers)];
            ++adjBounds_[slot(link.b, kPeers)];
        }
    }
    for (std::size_t i = 1; i < adjBounds_.size(); ++i) {
        adjBounds_[i] += adjBounds_[i - 1];
    }
    adjArena_.resize(adjBounds_.back());
    std::vector<std::uint32_t> cursor(adjBounds_.begin(),
                                      adjBounds_.end() - 1);
    const auto place = [&](AsIndex as, std::size_t relation,
                           AsIndex neighbor) {
        adjArena_[cursor[kRelations * as + relation]++] =
            static_cast<std::uint32_t>(neighbor);
    };
    for (const AsLink& link : links_) {
        if (link.kind == LinkKind::CustomerToProvider) {
            place(link.a, kProviders, link.b);
            place(link.b, kCustomers, link.a);
        } else {
            place(link.a, kPeers, link.b);
            place(link.b, kPeers, link.a);
        }
    }
    for (std::size_t s = 0; s + 1 < adjBounds_.size(); ++s) {
        std::sort(adjArena_.begin() + adjBounds_[s],
                  adjArena_.begin() + adjBounds_[s + 1], byAsn);
    }

    for (const AsLink& link : links_) {
        if (link.ixp) {
            linkIxp_.emplace(linkKey(link.a, link.b), *link.ixp);
        }
    }

    memberIxps_.assign(n, {});
    for (std::size_t i = 0; i < ixps_.size(); ++i) {
        std::ranges::sort(ixps_[i].members, byAsn);
        for (const AsIndex member : ixps_[i].members) {
            memberIxps_[member].push_back(i);
        }
        ixpLanTrie_.insert(ixps_[i].lanPrefix, i);
    }

    for (std::size_t i = 0; i < n; ++i) {
        for (const net::Prefix& prefix : ases_[i].prefixes) {
            originTrie_.insert(prefix, i);
        }
    }
}

const AsInfo& Topology::as(AsIndex index) const {
    AIO_EXPECTS(index < ases_.size(), "AS index OOB");
    return ases_[index];
}

std::optional<AsIndex> Topology::indexOfAsn(Asn asn) const {
    requireFinalized();
    const auto it = std::ranges::lower_bound(
        asnIndex_, asn, {}, [](const auto& entry) { return entry.first; });
    if (it == asnIndex_.end() || it->first != asn) {
        return std::nullopt;
    }
    return it->second;
}

std::span<const std::uint32_t> Topology::providersOf(AsIndex idx) const {
    requireFinalized();
    AIO_EXPECTS(idx < ases_.size(), "AS index OOB");
    return providersUnchecked(idx);
}

std::span<const std::uint32_t> Topology::customersOf(AsIndex idx) const {
    requireFinalized();
    AIO_EXPECTS(idx < ases_.size(), "AS index OOB");
    return customersUnchecked(idx);
}

std::span<const std::uint32_t> Topology::peersOf(AsIndex idx) const {
    requireFinalized();
    AIO_EXPECTS(idx < ases_.size(), "AS index OOB");
    return peersUnchecked(idx);
}

const std::vector<IxpIndex>& Topology::ixpsOf(AsIndex idx) const {
    requireFinalized();
    AIO_EXPECTS(idx < ases_.size(), "AS index OOB");
    return memberIxps_[idx];
}

std::vector<AsIndex> Topology::asesInCountry(std::string_view iso2) const {
    std::vector<AsIndex> out;
    for (std::size_t i = 0; i < ases_.size(); ++i) {
        if (ases_[i].countryCode == iso2) {
            out.push_back(i);
        }
    }
    return out;
}

std::vector<AsIndex> Topology::asesInRegion(net::Region region) const {
    std::vector<AsIndex> out;
    for (std::size_t i = 0; i < ases_.size(); ++i) {
        if (ases_[i].region == region) {
            out.push_back(i);
        }
    }
    return out;
}

std::vector<AsIndex> Topology::africanAses() const {
    std::vector<AsIndex> out;
    for (std::size_t i = 0; i < ases_.size(); ++i) {
        if (net::isAfrican(ases_[i].region)) {
            out.push_back(i);
        }
    }
    return out;
}

std::optional<IxpIndex> Topology::ixpBetween(AsIndex a, AsIndex b) const {
    requireFinalized();
    const auto it = linkIxp_.find(linkKey(a, b));
    if (it == linkIxp_.end()) {
        return std::nullopt;
    }
    return it->second;
}

const Ixp& Topology::ixp(IxpIndex index) const {
    AIO_EXPECTS(index < ixps_.size(), "IXP index OOB");
    return ixps_[index];
}

std::vector<IxpIndex> Topology::africanIxps() const {
    std::vector<IxpIndex> out;
    for (std::size_t i = 0; i < ixps_.size(); ++i) {
        if (net::isAfrican(ixps_[i].region)) {
            out.push_back(i);
        }
    }
    return out;
}

std::optional<AsIndex> Topology::originOf(net::Ipv4Address address) const {
    requireFinalized();
    return originTrie_.lookup(address);
}

std::optional<IxpIndex>
Topology::ixpOfLanAddress(net::Ipv4Address address) const {
    requireFinalized();
    return ixpLanTrie_.lookup(address);
}

net::Ipv4Address Topology::routerAddress(AsIndex idx,
                                         std::uint64_t salt) const {
    requireFinalized();
    AIO_EXPECTS(idx < ases_.size(), "AS index OOB");
    const auto& prefixes = ases_[idx].prefixes;
    AIO_EXPECTS(!prefixes.empty(), "AS announces no prefixes");
    // Deterministic hash spread over the AS's address space.
    std::uint64_t h = salt * 0x9e3779b97f4a7c15ULL + ases_[idx].asn;
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 32;
    const net::Prefix& prefix = prefixes[h % prefixes.size()];
    return prefix.addressAt((h >> 8) % prefix.size());
}

} // namespace aio::topo
