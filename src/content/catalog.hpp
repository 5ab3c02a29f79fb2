#pragma once

#include <array>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "netbase/rng.hpp"
#include "topo/as_graph.hpp"

namespace aio::content {

/// Where the content of a popular website is actually served from for a
/// given country's users (the ISOC Pulse methodology, §3/§4.2).
enum class HostingClass {
    LocalDatacenter,  ///< hosted in the users' own country
    IxpOffnetCache,   ///< CDN off-net cache at an African IXP
    AfricanRegionalDc,///< African DC in another country (mostly ZA)
    EuropeDc,         ///< served from Europe
    NorthAmericaDc,   ///< served from the US
};

[[nodiscard]] std::string_view hostingClassName(HostingClass cls);
[[nodiscard]] bool isAfricanHosting(HostingClass cls);

/// One entry of a country's top-sites list.
struct Website {
    std::string domain;
    HostingClass hosting = HostingClass::EuropeDc;
    topo::AsIndex hostAs = 0;             ///< AS serving the content
    std::optional<topo::IxpIndex> cacheIxp; ///< for IxpOffnetCache
    double popularity = 1.0;              ///< Zipf-ish weight
};

/// Regional hosting-class mix for locally popular content.
struct HostingProfile {
    double localDatacenter = 0.1;
    double ixpOffnetCache = 0.1;
    double africanRegionalDc = 0.05;
    double europeDc = 0.55;
    double northAmericaDc = 0.2;

    [[nodiscard]] bool operator==(const HostingProfile&) const = default;
};

struct ContentConfig {
    int sitesPerCountry = 200; ///< scaled stand-in for the top-1000 list
    std::array<HostingProfile, 5> africa; ///< africanRegions() order
    static ContentConfig defaults();

    [[nodiscard]] bool operator==(const ContentConfig&) const = default;
};

/// Per-country top-site catalogs with hosting assignments.
class ContentCatalog {
public:
    ContentCatalog(const topo::Topology& topology, ContentConfig config,
                   std::uint64_t seed);

    [[nodiscard]] const std::vector<Website>&
    sitesFor(std::string_view countryCode) const;

    [[nodiscard]] const topo::Topology& topology() const { return *topo_; }
    [[nodiscard]] const ContentConfig& config() const { return config_; }

private:
    const topo::Topology* topo_;
    ContentConfig config_;
    std::map<std::string, std::vector<Website>, std::less<>> catalogs_;
};

/// Figure 2b: popularity-weighted share of content served from within
/// Africa, per region and overall.
class LocalityAnalyzer {
public:
    explicit LocalityAnalyzer(const ContentCatalog& catalog);

    /// Popularity-weighted African-hosted share for one region.
    [[nodiscard]] double localShare(net::Region region) const;

    /// Continent-wide popularity-weighted African-hosted share.
    [[nodiscard]] double overallLocalShare() const;

private:
    const ContentCatalog* catalog_;
};

} // namespace aio::content
