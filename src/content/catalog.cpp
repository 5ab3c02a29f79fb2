#include "content/catalog.hpp"

#include <algorithm>

#include "netbase/error.hpp"

namespace aio::content {

std::string_view hostingClassName(HostingClass cls) {
    switch (cls) {
    case HostingClass::LocalDatacenter: return "local datacenter";
    case HostingClass::IxpOffnetCache: return "IXP off-net cache";
    case HostingClass::AfricanRegionalDc: return "African regional DC";
    case HostingClass::EuropeDc: return "Europe DC";
    case HostingClass::NorthAmericaDc: return "N. America DC";
    }
    return "?";
}

bool isAfricanHosting(HostingClass cls) {
    return cls == HostingClass::LocalDatacenter ||
           cls == HostingClass::IxpOffnetCache ||
           cls == HostingClass::AfricanRegionalDc;
}

ContentConfig ContentConfig::defaults() {
    ContentConfig cfg;
    // Calibrated to §4.2: ~30% of content local overall; Southern Africa
    // most localized, Western least.
    cfg.africa[0] = HostingProfile{.localDatacenter = 0.12, // Northern
                                   .ixpOffnetCache = 0.08,
                                   .africanRegionalDc = 0.04,
                                   .europeDc = 0.58,
                                   .northAmericaDc = 0.18};
    cfg.africa[1] = HostingProfile{.localDatacenter = 0.06, // Western
                                   .ixpOffnetCache = 0.09,
                                   .africanRegionalDc = 0.03,
                                   .europeDc = 0.60,
                                   .northAmericaDc = 0.22};
    cfg.africa[2] = HostingProfile{.localDatacenter = 0.14, // Eastern
                                   .ixpOffnetCache = 0.16,
                                   .africanRegionalDc = 0.08,
                                   .europeDc = 0.44,
                                   .northAmericaDc = 0.18};
    cfg.africa[3] = HostingProfile{.localDatacenter = 0.07, // Central
                                   .ixpOffnetCache = 0.09,
                                   .africanRegionalDc = 0.06,
                                   .europeDc = 0.58,
                                   .northAmericaDc = 0.20};
    cfg.africa[4] = HostingProfile{.localDatacenter = 0.30, // Southern
                                   .ixpOffnetCache = 0.15,
                                   .africanRegionalDc = 0.08,
                                   .europeDc = 0.32,
                                   .northAmericaDc = 0.15};
    return cfg;
}

namespace {
const HostingProfile& profileFor(const ContentConfig& cfg,
                                 net::Region region) {
    const auto regions = net::africanRegions();
    for (std::size_t i = 0; i < regions.size(); ++i) {
        if (regions[i] == region) {
            return cfg.africa[i];
        }
    }
    throw net::PreconditionError{"not an African region"};
}
} // namespace

ContentCatalog::ContentCatalog(const topo::Topology& topology,
                               ContentConfig config, std::uint64_t seed)
    : topo_(&topology), config_(config) {
    AIO_EXPECTS(topology.finalized(), "topology must be finalized");
    AIO_EXPECTS(config.sitesPerCountry > 0, "sitesPerCountry must be > 0");

    // Host pools.
    std::vector<topo::AsIndex> euHosts;
    std::vector<topo::AsIndex> naHosts;
    std::vector<topo::AsIndex> zaHosts;
    std::vector<topo::AsIndex> contentProviders;
    for (topo::AsIndex i = 0; i < topology.asCount(); ++i) {
        const auto& info = topology.as(i);
        const bool hosty = info.type == topo::AsType::CloudProvider ||
                           info.type == topo::AsType::ContentProvider;
        if (!hosty) continue;
        if (info.type == topo::AsType::ContentProvider) {
            contentProviders.push_back(i);
        }
        if (info.region == net::Region::Europe) {
            euHosts.push_back(i);
        } else if (info.region == net::Region::NorthAmerica) {
            naHosts.push_back(i);
        } else if (net::isAfrican(info.region)) {
            zaHosts.push_back(i);
        }
    }
    AIO_EXPECTS(!euHosts.empty() && !naHosts.empty(),
                "topology lacks offshore hosting");

    net::Rng rng{seed};
    for (const auto* country : net::CountryTable::world().african()) {
        const HostingProfile& profile = profileFor(config_, country->region);
        // IXPs with caches usable by this country: in-country first, then
        // same-region.
        std::vector<topo::IxpIndex> cacheIxps;
        std::vector<topo::IxpIndex> regionalCacheIxps;
        for (const topo::IxpIndex ix : topology.africanIxps()) {
            if (!topology.ixp(ix).hasContentCache) continue;
            if (topology.ixp(ix).countryCode == country->iso2) {
                cacheIxps.push_back(ix);
            } else if (topology.ixp(ix).region == country->region) {
                regionalCacheIxps.push_back(ix);
            }
        }
        const auto domestic = topology.asesInCountry(country->iso2);

        std::vector<Website> sites;
        sites.reserve(static_cast<std::size_t>(config_.sitesPerCountry));
        for (int rank = 0; rank < config_.sitesPerCountry; ++rank) {
            Website site;
            site.domain = "site" + std::to_string(rank + 1) + "." +
                          std::string{country->iso2};
            // Zipf-ish popularity.
            site.popularity = 1.0 / (1.0 + rank);
            const double weights[] = {
                profile.localDatacenter, profile.ixpOffnetCache,
                profile.africanRegionalDc, profile.europeDc,
                profile.northAmericaDc};
            auto cls = static_cast<HostingClass>(rng.weightedIndex(
                std::span<const double>{weights, 5}));

            // Feasibility fallbacks: no domestic AS -> no local hosting;
            // no cache IXP in reach -> Europe.
            if (cls == HostingClass::LocalDatacenter && domestic.empty()) {
                cls = HostingClass::EuropeDc;
            }
            if (cls == HostingClass::IxpOffnetCache && cacheIxps.empty() &&
                regionalCacheIxps.empty()) {
                cls = HostingClass::EuropeDc;
            }
            if (cls == HostingClass::AfricanRegionalDc && zaHosts.empty()) {
                cls = HostingClass::EuropeDc;
            }
            site.hosting = cls;
            switch (cls) {
            case HostingClass::LocalDatacenter:
                site.hostAs = rng.pick(domestic);
                break;
            case HostingClass::IxpOffnetCache: {
                site.cacheIxp = !cacheIxps.empty()
                                    ? rng.pick(cacheIxps)
                                    : rng.pick(regionalCacheIxps);
                // Served by the content provider present at the cache; if
                // membership lacks one, any content provider AS.
                topo::AsIndex host = contentProviders.empty()
                                         ? rng.pick(euHosts)
                                         : rng.pick(contentProviders);
                for (const topo::AsIndex member :
                     topology.ixp(*site.cacheIxp).members) {
                    if (topology.as(member).type ==
                        topo::AsType::ContentProvider) {
                        host = member;
                        break;
                    }
                }
                site.hostAs = host;
                break;
            }
            case HostingClass::AfricanRegionalDc:
                site.hostAs = rng.pick(zaHosts);
                break;
            case HostingClass::EuropeDc:
                site.hostAs = rng.pick(euHosts);
                break;
            case HostingClass::NorthAmericaDc:
                site.hostAs = rng.pick(naHosts);
                break;
            }
            sites.push_back(std::move(site));
        }
        catalogs_.emplace(std::string{country->iso2}, std::move(sites));
    }
}

const std::vector<Website>&
ContentCatalog::sitesFor(std::string_view countryCode) const {
    const auto it = catalogs_.find(countryCode);
    if (it == catalogs_.end()) {
        throw net::NotFoundError{"no catalog for country '" +
                                 std::string{countryCode} + "'"};
    }
    return it->second;
}

LocalityAnalyzer::LocalityAnalyzer(const ContentCatalog& catalog)
    : catalog_(&catalog) {}

double LocalityAnalyzer::localShare(net::Region region) const {
    double local = 0.0;
    double total = 0.0;
    for (const auto* country : net::CountryTable::world().inRegion(region)) {
        for (const Website& site : catalog_->sitesFor(country->iso2)) {
            total += site.popularity;
            if (isAfricanHosting(site.hosting)) {
                local += site.popularity;
            }
        }
    }
    return total == 0.0 ? 0.0 : local / total;
}

double LocalityAnalyzer::overallLocalShare() const {
    double local = 0.0;
    double total = 0.0;
    for (const net::Region region : net::africanRegions()) {
        for (const auto* country :
             net::CountryTable::world().inRegion(region)) {
            for (const Website& site : catalog_->sitesFor(country->iso2)) {
                total += site.popularity;
                if (isAfricanHosting(site.hosting)) {
                    local += site.popularity;
                }
            }
        }
    }
    return total == 0.0 ? 0.0 : local / total;
}

} // namespace aio::content
