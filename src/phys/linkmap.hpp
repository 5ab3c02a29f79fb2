#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "netbase/rng.hpp"
#include "phys/cable.hpp"
#include "topo/as_graph.hpp"

namespace aio::phys {

/// Physical medium carrying an AS-level adjacency.
enum class MediumKind {
    Terrestrial, ///< domestic or cross-border fibre
    Subsea,      ///< one or two submarine cables
    Satellite,   ///< fallback where no cable serves the pair
};

/// Physical realisation of one AS adjacency.
struct PhysicalPath {
    MediumKind medium = MediumKind::Terrestrial;
    std::vector<CableId> cables; ///< carriers; the link survives while at
                                 ///< least one carrier survives
};

/// Options controlling how AS links are mapped onto cables.
struct LinkMapConfig {
    /// Probability a same-region intra-African international link is
    /// terrestrial ("poor terrestrial connectivity" keeps this low, §2).
    double terrestrialProb = 0.3;
    /// Probability a subsea link provisions a backup cable at all.
    double backupProb = 0.5;
    /// Probability the backup rides the SAME corridor as the primary —
    /// the correlated-backup failure mode legislation ignores (§5.1).
    double backupSameCorridorProb = 0.85;

    [[nodiscard]] bool operator==(const LinkMapConfig&) const = default;
};

/// Maps every inter-AS adjacency of a topology to its physical carriers.
///
/// Landlocked countries reach the sea through a fixed coastal gateway
/// (Rwanda via Tanzania/Kenya, Ethiopia via Djibouti, ...), so a cable cut
/// at the gateway disconnects the hinterland too — part of the paper's
/// "magnitude of impact" story.
class PhysicalLinkMap {
public:
    PhysicalLinkMap(const topo::Topology& topology,
                    const CableRegistry& registry, net::Rng& rng,
                    LinkMapConfig config = {});

    [[nodiscard]] const PhysicalPath& forLink(topo::AsIndex a,
                                              topo::AsIndex b) const;

    /// All AS adjacencies that ride the given cable (as primary or backup).
    [[nodiscard]] std::vector<std::pair<topo::AsIndex, topo::AsIndex>>
    linksUsingCable(CableId cable) const;

    /// AS adjacencies that are DOWN when every cable in `cuts` is severed
    /// (i.e. subsea links whose carriers are all cut), in topology link
    /// order. Walks a flat list of the subsea links against one flag per
    /// cable, so a call reads no hash table per link.
    [[nodiscard]] std::vector<std::pair<topo::AsIndex, topo::AsIndex>>
    failedLinks(const std::unordered_set<CableId>& cuts) const;

    /// Coastal gateway country used for subsea access from `iso2`
    /// (identity for coastal countries).
    [[nodiscard]] static std::string_view
    coastalGateway(std::string_view iso2);

    [[nodiscard]] const CableRegistry& registry() const { return *registry_; }
    [[nodiscard]] const topo::Topology& topology() const { return *topo_; }

private:
    static std::uint64_t key(topo::AsIndex a, topo::AsIndex b) {
        const auto lo = static_cast<std::uint64_t>(a < b ? a : b);
        const auto hi = static_cast<std::uint64_t>(a < b ? b : a);
        return (hi << 32) | lo;
    }

    PhysicalPath assign(const topo::AsLink& link, net::Rng& rng) const;

    const topo::Topology* topo_;
    const CableRegistry* registry_;
    LinkMapConfig config_;
    std::unordered_map<std::uint64_t, PhysicalPath> paths_;

    /// A subsea link and its carriers, carriers_[first, first + count).
    struct SubseaLink {
        topo::AsIndex a = 0;
        topo::AsIndex b = 0;
        std::uint32_t first = 0;
        std::uint32_t count = 0;
    };
    std::vector<SubseaLink> subsea_; ///< topology link order
    std::vector<CableId> carriers_;
};

} // namespace aio::phys
