#include "phys/linkmap.hpp"

#include <algorithm>

#include "netbase/error.hpp"

namespace aio::phys {

std::string_view PhysicalLinkMap::coastalGateway(std::string_view iso2) {
    // Landlocked country -> coastal neighbour carrying its subsea access.
    struct Gateway {
        std::string_view from;
        std::string_view via;
    };
    static constexpr Gateway kGateways[] = {
        {"BF", "CI"}, {"ML", "SN"}, {"NE", "BJ"}, {"TD", "CM"},
        {"CF", "CM"}, {"SS", "KE"}, {"ET", "DJ"}, {"UG", "KE"},
        {"RW", "TZ"}, {"BI", "TZ"}, {"MW", "MZ"}, {"ZM", "ZA"},
        {"ZW", "ZA"}, {"BW", "ZA"}, {"LS", "ZA"}, {"SZ", "MZ"},
    };
    for (const Gateway& g : kGateways) {
        if (g.from == iso2) {
            return g.via;
        }
    }
    return iso2;
}

PhysicalLinkMap::PhysicalLinkMap(const topo::Topology& topology,
                                 const CableRegistry& registry,
                                 net::Rng& rng, LinkMapConfig config)
    : topo_(&topology), registry_(&registry), config_(config) {
    AIO_EXPECTS(topology.finalized(), "topology must be finalized");
    for (const topo::AsLink& link : topology.links()) {
        paths_.emplace(key(link.a, link.b), assign(link, rng));
    }
    for (const topo::AsLink& link : topology.links()) {
        const PhysicalPath& path = forLink(link.a, link.b);
        if (path.medium != MediumKind::Subsea || path.cables.empty()) {
            continue;
        }
        subsea_.push_back({link.a, link.b,
                           static_cast<std::uint32_t>(carriers_.size()),
                           static_cast<std::uint32_t>(path.cables.size())});
        carriers_.insert(carriers_.end(), path.cables.begin(),
                         path.cables.end());
    }
}

PhysicalPath PhysicalLinkMap::assign(const topo::AsLink& link,
                                     net::Rng& rng) const {
    const topo::AsInfo& a = topo_->as(link.a);
    const topo::AsInfo& b = topo_->as(link.b);
    PhysicalPath path;

    if (a.countryCode == b.countryCode) {
        path.medium = MediumKind::Terrestrial;
        return path;
    }

    const bool bothAfrican =
        net::isAfrican(a.region) && net::isAfrican(b.region);
    if (bothAfrican && a.region == b.region &&
        rng.bernoulli(config_.terrestrialProb)) {
        path.medium = MediumKind::Terrestrial;
        return path;
    }

    // Candidate cables via the coastal gateways of both endpoints. Links
    // to non-African endpoints accept any cable from the African gateway
    // to Europe (transit towards the global core is via the EU shore).
    const auto gwA = coastalGateway(a.countryCode);
    const auto gwB = coastalGateway(b.countryCode);
    std::vector<CableId> candidates;
    if (bothAfrican) {
        candidates = registry_->cablesServing(gwA, gwB);
    } else {
        const auto& african = net::isAfrican(a.region) ? gwA : gwB;
        candidates = registry_->cablesToEurope(african);
    }
    if (candidates.empty()) {
        // No cable serves the pair: satellite or long terrestrial haul.
        path.medium =
            bothAfrican ? MediumKind::Terrestrial : MediumKind::Satellite;
        return path;
    }

    path.medium = MediumKind::Subsea;
    // Capacity contracts concentrate on legacy systems: weight primary
    // selection by cable age, which is why the 2024 cuts of 2002-2012-era
    // cables were so damaging despite newer diverse systems existing.
    std::vector<double> weights;
    weights.reserve(candidates.size());
    for (const CableId c : candidates) {
        weights.push_back(static_cast<double>(
            std::max(1, 2026 - registry_->cable(c).readyForService)));
    }
    const CableId primary = candidates[rng.weightedIndex(weights)];
    path.cables.push_back(primary);
    if (candidates.size() > 1 && rng.bernoulli(config_.backupProb)) {
        // Backup provisioning: legislation requires "a" backup but not
        // corridor diversity, so most backups are correlated (§5.1).
        const CorridorId primaryCorridor =
            registry_->cable(primary).corridor;
        std::vector<CableId> sameCorridor;
        std::vector<CableId> diverse;
        for (const CableId c : candidates) {
            if (c == primary) continue;
            (registry_->cable(c).corridor == primaryCorridor ? sameCorridor
                                                             : diverse)
                .push_back(c);
        }
        const bool preferSame = rng.bernoulli(config_.backupSameCorridorProb);
        const std::vector<CableId>& pool =
            preferSame ? (sameCorridor.empty() ? diverse : sameCorridor)
                       : (diverse.empty() ? sameCorridor : diverse);
        if (!pool.empty()) {
            path.cables.push_back(rng.pick(pool));
        }
    }
    return path;
}

const PhysicalPath& PhysicalLinkMap::forLink(topo::AsIndex a,
                                             topo::AsIndex b) const {
    const auto it = paths_.find(key(a, b));
    AIO_EXPECTS(it != paths_.end(), "no physical path for this adjacency");
    return it->second;
}

std::vector<std::pair<topo::AsIndex, topo::AsIndex>>
PhysicalLinkMap::linksUsingCable(CableId cable) const {
    std::vector<std::pair<topo::AsIndex, topo::AsIndex>> out;
    for (const topo::AsLink& link : topo_->links()) {
        const PhysicalPath& path = forLink(link.a, link.b);
        if (std::ranges::find(path.cables, cable) != path.cables.end()) {
            out.emplace_back(link.a, link.b);
        }
    }
    return out;
}

std::vector<std::pair<topo::AsIndex, topo::AsIndex>>
PhysicalLinkMap::failedLinks(const std::unordered_set<CableId>& cuts) const {
    // Every carrier is a registry id; others cut nothing this map routes.
    std::vector<std::uint8_t> cut(registry_->cableCount(), 0);
    for (const CableId cable : cuts) {
        if (cable < cut.size()) {
            cut[cable] = 1;
        }
    }
    std::vector<std::pair<topo::AsIndex, topo::AsIndex>> out;
    for (const SubseaLink& link : subsea_) {
        const auto first = carriers_.begin() + link.first;
        if (std::all_of(first, first + link.count,
                        [&](CableId c) { return cut[c] != 0; })) {
            out.emplace_back(link.a, link.b);
        }
    }
    return out;
}

} // namespace aio::phys
