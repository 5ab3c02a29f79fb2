#include "dns/resolver.hpp"

#include <algorithm>

#include "netbase/error.hpp"

namespace aio::dns {

bool isAfricanResolverClass(ResolverClass cls) {
    return cls == ResolverClass::LocalInCountry ||
           cls == ResolverClass::OtherAfricanCountry ||
           cls == ResolverClass::CloudInAfrica;
}

DnsConfig DnsConfig::defaults() {
    DnsConfig cfg;
    // Calibrated to the §5.2 observations: many regions rely on
    // other-country and cloud resolvers; Southern Africa is the most
    // self-sufficient; African cloud resolution is centralized in ZA.
    cfg.africa[0] = ResolverProfile{.localInCountry = 0.45, // Northern
                                    .otherAfricanCountry = 0.05,
                                    .cloudInAfrica = 0.05,
                                    .cloudOffshore = 0.35,
                                    .ispOffshore = 0.10};
    cfg.africa[1] = ResolverProfile{.localInCountry = 0.20, // Western
                                    .otherAfricanCountry = 0.15,
                                    .cloudInAfrica = 0.10,
                                    .cloudOffshore = 0.40,
                                    .ispOffshore = 0.15};
    cfg.africa[2] = ResolverProfile{.localInCountry = 0.30, // Eastern
                                    .otherAfricanCountry = 0.12,
                                    .cloudInAfrica = 0.13,
                                    .cloudOffshore = 0.35,
                                    .ispOffshore = 0.10};
    cfg.africa[3] = ResolverProfile{.localInCountry = 0.15, // Central
                                    .otherAfricanCountry = 0.20,
                                    .cloudInAfrica = 0.10,
                                    .cloudOffshore = 0.40,
                                    .ispOffshore = 0.15};
    cfg.africa[4] = ResolverProfile{.localInCountry = 0.55, // Southern
                                    .otherAfricanCountry = 0.05,
                                    .cloudInAfrica = 0.20,
                                    .cloudOffshore = 0.18,
                                    .ispOffshore = 0.02};
    return cfg;
}

namespace {

const ResolverProfile& profileFor(const DnsConfig& cfg, net::Region region) {
    const auto regions = net::africanRegions();
    for (std::size_t i = 0; i < regions.size(); ++i) {
        if (regions[i] == region) {
            return cfg.africa[i];
        }
    }
    throw net::PreconditionError{"not an African region"};
}

} // namespace

ResolverEcosystem::ResolverEcosystem(const topo::Topology& topology,
                                     DnsConfig config, std::uint64_t seed)
    : topo_(&topology) {
    AIO_EXPECTS(topology.finalized(), "topology must be finalized");
    assignments_.resize(topology.asCount());

    // Candidate pools.
    std::vector<topo::AsIndex> zaClouds;
    std::vector<topo::AsIndex> offshoreClouds;
    std::vector<topo::AsIndex> euIsps;
    std::vector<topo::AsIndex> africanOperators;
    for (topo::AsIndex i = 0; i < topology.asCount(); ++i) {
        const auto& info = topology.as(i);
        if (info.type == topo::AsType::CloudProvider) {
            (net::isAfrican(info.region) ? zaClouds : offshoreClouds)
                .push_back(i);
        } else if (info.region == net::Region::Europe &&
                   (info.type == topo::AsType::AccessIsp ||
                    info.type == topo::AsType::Tier2)) {
            euIsps.push_back(i);
        } else if (net::isAfrican(info.region) &&
                   topo::isEyeball(info.type)) {
            africanOperators.push_back(i);
        }
    }
    AIO_EXPECTS(!offshoreClouds.empty() && !euIsps.empty(),
                "topology lacks offshore resolver hosts");

    net::Rng rng{seed};
    for (topo::AsIndex i = 0; i < topology.asCount(); ++i) {
        const auto& info = topology.as(i);
        if (!net::isAfrican(info.region) || !topo::isEyeball(info.type)) {
            continue;
        }
        const ResolverProfile& profile = profileFor(config, info.region);
        const double weights[] = {
            profile.localInCountry, profile.otherAfricanCountry,
            profile.cloudInAfrica, profile.cloudOffshore,
            profile.ispOffshore};
        ResolverAssignment assignment;
        assignment.cls = static_cast<ResolverClass>(rng.weightedIndex(
            std::span<const double>{weights, 5}));
        switch (assignment.cls) {
        case ResolverClass::LocalInCountry:
            // The operator (or a sibling in the same country) runs it.
            assignment.resolverAs = i;
            break;
        case ResolverClass::OtherAfricanCountry: {
            topo::AsIndex pick = i;
            for (int attempt = 0; attempt < 16; ++attempt) {
                const auto candidate = rng.pick(africanOperators);
                if (topology.as(candidate).countryCode != info.countryCode) {
                    pick = candidate;
                    break;
                }
            }
            assignment.resolverAs = pick;
            if (pick == i) {
                assignment.cls = ResolverClass::LocalInCountry;
            }
            break;
        }
        case ResolverClass::CloudInAfrica:
            if (zaClouds.empty()) {
                assignment.cls = ResolverClass::CloudOffshore;
                assignment.resolverAs = rng.pick(offshoreClouds);
            } else {
                assignment.resolverAs = rng.pick(zaClouds);
            }
            break;
        case ResolverClass::CloudOffshore:
            assignment.resolverAs = rng.pick(offshoreClouds);
            break;
        case ResolverClass::IspOffshore:
            assignment.resolverAs = rng.pick(euIsps);
            break;
        }
        assignments_[i] = assignment;
    }
}

std::optional<ResolverAssignment>
ResolverEcosystem::resolverOf(topo::AsIndex client) const {
    AIO_EXPECTS(client < assignments_.size(), "AS index OOB");
    return assignments_[client];
}

std::map<ResolverClass, double>
ResolverEcosystem::classShares(net::Region region) const {
    std::map<ResolverClass, double> shares;
    double total = 0.0;
    for (topo::AsIndex i = 0; i < topo_->asCount(); ++i) {
        if (topo_->as(i).region != region || !assignments_[i]) {
            continue;
        }
        // Per-network shares (one vote per eyeball AS): the heavy-tailed
        // traffic weights would otherwise let a single incumbent dominate
        // the regional picture.
        shares[assignments_[i]->cls] += 1.0;
        total += 1.0;
    }
    if (total > 0.0) {
        for (auto& [cls, value] : shares) {
            value /= total;
        }
    }
    return shares;
}

} // namespace aio::dns
