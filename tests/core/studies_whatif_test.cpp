#include <gtest/gtest.h>

#include "core/studies.hpp"
#include "routing/path_oracle.hpp"
#include "topo/generator.hpp"
#include "whatif_reference.hpp"

namespace aio::core {
namespace {

struct World {
    topo::Topology topo;
    route::PathOracle oracle;
    Substrate substrate;

    World()
        : topo(topo::TopologyGenerator{topo::GeneratorConfig::defaults()}
                   .generate()),
          oracle(topo),
          substrate(topo, phys::CableRegistry::africanDefaults(),
                    dns::DnsConfig::defaults(),
                    content::ContentConfig::defaults()) {}
};

World& world() {
    static World w;
    return w;
}

TEST(ConnectivityStudies, DetourShapeMatchesPaper) {
    auto& w = world();
    const ConnectivityStudies studies{w.topo, w.oracle};
    net::Rng rng{1};
    const auto report = studies.detourStudy(4000, rng);
    // A non-trivial share of intra-African routes leaves the continent.
    EXPECT_GT(report.overallDetourShare, 0.3);
    EXPECT_LT(report.overallDetourShare, 0.9);
    // Southern Africa detours least (most mature peering).
    double southern = 0.0;
    double western = 0.0;
    for (const auto& row : report.byRegion) {
        if (row.region == net::Region::SouthernAfrica) {
            southern = row.detourShare;
        }
        if (row.region == net::Region::WesternAfrica) {
            western = row.detourShare;
        }
    }
    EXPECT_LT(southern, western);
    // Only ~40% of detours attributable to EU Tier-1 / EU IXP (§4.1).
    EXPECT_GT(report.euTier1OrIxpShare(), 0.2);
    EXPECT_LT(report.euTier1OrIxpShare(), 0.6);
    // Attribution shares sum to one.
    double total = 0.0;
    for (const auto& [cls, share] : report.attribution) {
        total += share;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ConnectivityStudies, IxpPrevalenceShapeMatchesPaper) {
    auto& w = world();
    const ConnectivityStudies studies{w.topo, w.oracle};
    net::Rng rng{2};
    const auto report = studies.ixpPrevalence(800, rng);
    // Overall only a modest share of routes crosses an African IXP.
    EXPECT_GT(report.overallShare, 0.02);
    EXPECT_LT(report.overallShare, 0.45);
    double northern = 1.0;
    double central = 0.0;
    for (const auto& row : report.byRegion) {
        if (row.region == net::Region::NorthernAfrica) {
            northern = row.ixpShare;
        }
        if (row.region == net::Region::CentralAfrica) {
            central = row.ixpShare;
        }
    }
    // Northern Africa's IXPs barely show up; Central leads (Fig. 3).
    EXPECT_LT(northern, 0.1);
    EXPECT_GT(central, northern);
    for (const auto& row : report.byRegion) {
        if (row.region == net::Region::CentralAfrica) continue;
        EXPECT_GE(central, row.ixpShare) << net::regionName(row.region);
    }
}

// The paper's what-ifs, each a ScenarioSpec overlay on the default world
// checked against the status quo through the per-scenario reference.

const std::vector<std::string>& march2024() {
    static const std::vector<std::string> cables = {"WACS", "MainOne",
                                                    "SAT-3", "ACE"};
    return cables;
}

TEST(WhatIfEngine, DiverseCableSoftensCorridorCut) {
    const Substrate& baseline = world().substrate;
    const auto before = reference::assess(
        baseline, reference::cutEvent(baseline, march2024()));

    // Add a second geographically diverse west-coast system.
    phys::SubseaCable diverse;
    diverse.name = "WestShield";
    diverse.corridor = baseline.registry()
                           .cable(baseline.registry().byName("Equiano"))
                           .corridor;
    diverse.readyForService = 2026;
    diverse.capacityTbps = 100.0;
    for (const auto code : {"PT", "MA", "SN", "CI", "GH", "NG", "CM", "AO",
                            "NA", "ZA"}) {
        phys::LandingStation station;
        station.countryCode = code;
        station.location =
            net::CountryTable::world().byCode(code).centroid;
        diverse.landings.push_back(station);
    }
    ScenarioSpec upgrade;
    upgrade.cablesAdded = {diverse};
    const Substrate upgraded = reference::overlaid(baseline, upgrade);
    const auto after = reference::assess(
        upgraded, reference::cutEvent(upgraded, march2024()));

    EXPECT_LE(after.impactedCountries().size(),
              before.impactedCountries().size());
    EXPECT_GE(before.impactedCountries().size(), 3U);
}

TEST(WhatIfEngine, DnsLocalizationMandateReducesDnsFailures) {
    const Substrate& baseline = world().substrate;

    // Mandate: shift Western Africa's resolution fully local.
    auto localized = dns::DnsConfig::defaults();
    localized.africa[1] = dns::ResolverProfile{.localInCountry = 0.95,
                                               .otherAfricanCountry = 0.05,
                                               .cloudInAfrica = 0.0,
                                               .cloudOffshore = 0.0,
                                               .ispOffshore = 0.0};
    ScenarioSpec mandate;
    mandate.dnsOverride = localized;
    const Substrate mandated = reference::overlaid(baseline, mandate);

    // Worst DNS failure over the Western-Africa blast radius.
    const auto failShare = [](const Substrate& substrate) {
        const auto report = reference::assess(
            substrate, reference::cutEvent(substrate, march2024()));
        double worst = 0.0;
        for (const auto code : {"GH", "NG", "CI", "SN"}) {
            worst = std::max(worst, reference::dnsFailureShare(report, code));
        }
        return worst;
    };
    EXPECT_LE(failShare(mandated), failShare(baseline));
}

TEST(WhatIfEngine, ContentLocalizationMovesTheLocalityNeedle) {
    const Substrate& baseline = world().substrate;
    auto localized = content::ContentConfig::defaults();
    for (auto& profile : localized.africa) {
        profile.localDatacenter += 0.3;
        profile.europeDc = std::max(0.0, profile.europeDc - 0.3);
    }
    ScenarioSpec mandate;
    mandate.contentOverride = localized;
    const Substrate mandated = reference::overlaid(baseline, mandate);
    EXPECT_GT(reference::contentLocalShare(mandated),
              reference::contentLocalShare(baseline) + 0.1);
}

// An overlay re-derives a Substrate, so the changed layer is validated
// like any other bundle before anything is scored: as a value by
// ScenarioSpec::validate, and by the Substrate constructor the overlay
// is built through.
TEST(WhatIfEngine, DerivedEngineValidatesItsLayers) {
    const Substrate& baseline = world().substrate;
    auto broken = dns::DnsConfig::defaults();
    broken.africa[1].cloudOffshore += 0.5; // shares now sum to 1.5
    ScenarioSpec spec;
    spec.name = "broken-dns";
    spec.cutCables = march2024();
    spec.dnsOverride = broken;
    EXPECT_EQ(spec.validate(baseline).error().kind,
              net::Error::Kind::Precondition);
    EXPECT_THROW((void)reference::overlaid(baseline, spec),
                 net::PreconditionError);
}

// A cut scenario compiles against the registry: a spec with no cable and
// no overlay has nothing to damage, and an unknown cable is a NotFound
// error, whether the spec is validated or compiled directly.
TEST(WhatIfEngine, CutEventValidation) {
    const Substrate& substrate = world().substrate;
    ScenarioSpec none;
    none.name = "none";
    EXPECT_EQ(none.validate(substrate).error().kind,
              net::Error::Kind::Precondition);

    ScenarioSpec bogus;
    bogus.name = "bogus";
    bogus.cutCables = {"NoSuchCable"};
    EXPECT_EQ(bogus.validate(substrate).error().kind,
              net::Error::Kind::NotFound);
    EXPECT_THROW((void)reference::cutEvent(substrate, {"NoSuchCable"}),
                 net::NotFoundError);
}

} // namespace
} // namespace aio::core
