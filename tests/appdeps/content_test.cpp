#include "content/catalog.hpp"

#include <gtest/gtest.h>

#include "netbase/error.hpp"
#include "routing/path_oracle.hpp"
#include "topo/generator.hpp"

namespace aio::content {
namespace {

struct World {
    topo::Topology topo;
    route::PathOracle oracle;
    ContentCatalog catalog;

    World()
        : topo(topo::TopologyGenerator{topo::GeneratorConfig::defaults()}
                   .generate()),
          oracle(topo), catalog(topo, ContentConfig::defaults(), 47) {}
};

World& world() {
    static World w;
    return w;
}

/// Popularity-weighted share of a country's top sites whose host AS is
/// reachable from `client` under the given routing state.
double reachableShare(const ContentCatalog& catalog, topo::AsIndex client,
                      std::string_view countryCode,
                      const route::RouteOracle& oracle) {
    double ok = 0.0;
    double total = 0.0;
    for (const Website& site : catalog.sitesFor(countryCode)) {
        total += site.popularity;
        if (oracle.reachable(client, site.hostAs)) {
            ok += site.popularity;
        }
    }
    return total == 0.0 ? 0.0 : ok / total;
}

TEST(ContentCatalog, EveryAfricanCountryHasACatalog) {
    auto& w = world();
    for (const auto* country : net::CountryTable::world().african()) {
        const auto& sites = w.catalog.sitesFor(country->iso2);
        EXPECT_EQ(sites.size(), 200U);
    }
    EXPECT_THROW(w.catalog.sitesFor("XX"), net::NotFoundError);
}

TEST(ContentCatalog, HostingAssignmentsAreConsistent) {
    auto& w = world();
    for (const auto* country : net::CountryTable::world().african()) {
        for (const Website& site : w.catalog.sitesFor(country->iso2)) {
            const auto& host = w.topo.as(site.hostAs);
            switch (site.hosting) {
            case HostingClass::LocalDatacenter:
                EXPECT_EQ(host.countryCode, country->iso2);
                break;
            case HostingClass::IxpOffnetCache:
                ASSERT_TRUE(site.cacheIxp.has_value());
                EXPECT_TRUE(w.topo.ixp(*site.cacheIxp).hasContentCache);
                break;
            case HostingClass::AfricanRegionalDc:
                EXPECT_TRUE(net::isAfrican(host.region));
                break;
            case HostingClass::EuropeDc:
                EXPECT_EQ(host.region, net::Region::Europe);
                break;
            case HostingClass::NorthAmericaDc:
                EXPECT_EQ(host.region, net::Region::NorthAmerica);
                break;
            }
        }
    }
}

TEST(ContentCatalog, PopularityIsZipfLike) {
    auto& w = world();
    const auto& sites = w.catalog.sitesFor("NG");
    EXPECT_GT(sites[0].popularity, sites[10].popularity);
    EXPECT_GT(sites[10].popularity, sites[100].popularity);
}

TEST(LocalityAnalyzer, PaperShapeHolds) {
    auto& w = world();
    const LocalityAnalyzer analyzer{w.catalog};
    const double overall = analyzer.overallLocalShare();
    // §4.2: only ~30% of content local to Africa.
    EXPECT_GT(overall, 0.18);
    EXPECT_LT(overall, 0.42);
    // Southern most local, Western least.
    const double southern = analyzer.localShare(net::Region::SouthernAfrica);
    const double western = analyzer.localShare(net::Region::WesternAfrica);
    const double eastern = analyzer.localShare(net::Region::EasternAfrica);
    EXPECT_GT(southern, eastern);
    EXPECT_GT(eastern, western);
}

TEST(LocalityAnalyzer, EverythingReachableOnHealthyNetwork) {
    auto& w = world();
    const auto clients = w.topo.asesInCountry("GH");
    ASSERT_FALSE(clients.empty());
    EXPECT_NEAR(reachableShare(w.catalog, clients[0], "GH", w.oracle), 1.0,
                1e-9);
}

TEST(LocalityAnalyzer, IsolationKillsOffshoreContentOnly) {
    auto& w = world();
    const auto clients = w.topo.asesInCountry("GH");
    ASSERT_FALSE(clients.empty());
    const auto client = clients[0];
    // Cut every link of the client except domestic ones.
    route::LinkFilter filter;
    for (const auto& link : w.topo.links()) {
        if (link.a != client && link.b != client) continue;
        const auto other = link.a == client ? link.b : link.a;
        if (w.topo.as(other).countryCode != "GH") {
            filter.disableLink(link.a, link.b);
        }
    }
    const route::PathOracle cut{w.topo, filter};
    const double share = reachableShare(w.catalog, client, "GH", cut);
    EXPECT_LT(share, reachableShare(w.catalog, client, "GH", w.oracle));
}

} // namespace
} // namespace aio::content
