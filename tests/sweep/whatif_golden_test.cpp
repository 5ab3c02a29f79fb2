// Golden outputs for the what-if derivation chain and the sweep's overlay
// lane. The other what-if suites compare one path with another (an
// engine against a sweep, a cached engine against an uncached one), so a
// rewrite that moved both sides in lockstep would pass them all. These
// values were recorded from the reference implementation and pin the
// absolute output: impact-report digests, content locality and Ghana's
// DNS failure share from a base engine and from every derived engine,
// and the per-scenario reports and aggregates of an overlay-only sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/whatif.hpp"
#include "persist/bytes.hpp"
#include "sweep/scenario_sweep.hpp"
#include "topo/generator.hpp"

namespace aio::sweep {
namespace {

topo::GeneratorConfig tinyConfig(std::uint64_t seed) {
    auto config = topo::GeneratorConfig::defaults();
    config.seed = seed;
    for (auto& profile : config.africa) {
        profile.asPerMillionPeople *= 0.4;
        profile.minAsesPerCountry = 1;
        profile.ixpCount = std::max(1, profile.ixpCount / 2);
    }
    config.europe.accessPerCountry = 2;
    config.northAmerica.accessPerCountry = 2;
    config.southAmerica.accessPerCountry = 2;
    config.asiaPacific.accessPerCountry = 2;
    return config;
}

const topo::Topology& world() {
    static const topo::Topology topo =
        topo::TopologyGenerator{tinyConfig(42)}.generate();
    return topo;
}

core::Substrate makeSubstrate() {
    return core::Substrate{world(), phys::CableRegistry::africanDefaults(),
                           dns::DnsConfig::defaults(),
                           content::ContentConfig::defaults()};
}

phys::SubseaCable goldenCable() {
    phys::SubseaCable cable;
    cable.name = "GoldenWest";
    for (const auto code : {"PT", "GH", "NG"}) {
        cable.landings.push_back(phys::LandingStation{
            std::string{code},
            net::CountryTable::world().byCode(code).centroid});
    }
    return cable;
}

/// Western Africa resolves almost entirely in-country.
dns::DnsConfig localizedDns() {
    auto config = dns::DnsConfig::defaults();
    config.africa[1] = dns::ResolverProfile{.localInCountry = 0.95,
                                            .otherAfricanCountry = 0.05,
                                            .cloudInAfrica = 0.0,
                                            .cloudOffshore = 0.0,
                                            .ispOffshore = 0.0};
    return config;
}

/// Every African region moves 30 points of hosting from Europe home.
content::ContentConfig localizedContent() {
    auto config = content::ContentConfig::defaults();
    for (auto& profile : config.africa) {
        profile.localDatacenter += 0.3;
        profile.europeDc -= 0.3;
    }
    return config;
}

phys::LinkMapConfig diverseLinkMap() {
    phys::LinkMapConfig config;
    config.terrestrialProb = 0.6;
    config.backupProb = 0.9;
    config.backupSameCorridorProb = 0.2;
    return config;
}

void fold(persist::ByteWriter& out, const outage::ImpactReport& report) {
    out.u8(static_cast<std::uint8_t>(report.event.type));
    out.f64(report.event.durationDays);
    out.u64(report.event.cutCables.size());
    for (const phys::CableId id : report.event.cutCables) {
        out.u64(id);
    }
    out.u64(report.countries.size());
    for (const outage::CountryImpact& impact : report.countries) {
        out.str(impact.country);
        out.f64(impact.pageLoadLoss);
        out.f64(impact.dnsFailureShare);
        out.f64(impact.effectiveOutageDays);
    }
}

struct EngineOutputs {
    std::uint64_t reportDigest = 0; ///< west + east corridor cuts
    double contentLocalShare = 0.0;
    double ghanaDnsFailure = 0.0; ///< under the west corridor cut
};

EngineOutputs outputsOf(const core::WhatIfEngine& engine) {
    const std::vector<std::string> west = {"WACS", "MainOne", "SAT-3",
                                           "ACE"};
    const std::vector<std::string> east = {"SEACOM", "EASSy"};
    const outage::OutageEvent westCut = engine.makeCutEvent(west);
    persist::ByteWriter out;
    fold(out, engine.assess(westCut));
    fold(out, engine.assess(engine.makeCutEvent(east)));
    return {persist::fnv1a64(out.bytes()), engine.contentLocalShare(),
            engine.dnsFailureShare("GH", westCut)};
}

void expectOutputs(const core::WhatIfEngine& engine,
                   const EngineOutputs& golden) {
    const EngineOutputs got = outputsOf(engine);
    EXPECT_EQ(got.reportDigest, golden.reportDigest)
        << std::hex << "0x" << got.reportDigest;
    EXPECT_EQ(got.contentLocalShare, golden.contentLocalShare)
        << std::hexfloat << got.contentLocalShare;
    EXPECT_EQ(got.ghanaDnsFailure, golden.ghanaDnsFailure)
        << std::hexfloat << got.ghanaDnsFailure;
}

TEST(WhatIfGolden, BaseEngineOverASubstrate) {
    const core::Substrate substrate = makeSubstrate();
    expectOutputs(core::WhatIfEngine{substrate},
                  {0xa519d5b46157bd05ULL, 0x1.2565c84174beap-2,
                   0x1.5555555555556p-1});
}

TEST(WhatIfGolden, DerivedEngines) {
    const core::Substrate substrate = makeSubstrate();
    const core::WhatIfEngine base{substrate};
    {
        SCOPED_TRACE("withCable");
        expectOutputs(base.withCable(goldenCable()),
                      {0x43bcb4ab58f43f4aULL, 0x1.2565c84174beap-2,
                       0x1.5555555555556p-1});
    }
    {
        SCOPED_TRACE("withDnsConfig");
        expectOutputs(base.withDnsConfig(localizedDns()),
                      {0xcec247db9ce434afULL, 0x1.2565c84174beap-2, 0x0p+0});
    }
    {
        SCOPED_TRACE("withContentConfig");
        expectOutputs(base.withContentConfig(localizedContent()),
                      {0xfd3bcab6b7e0c3f7ULL, 0x1.2e97c7e55e438p-1,
                       0x1.5555555555556p-1});
    }
    {
        SCOPED_TRACE("withLinkMapConfig");
        expectOutputs(base.withLinkMapConfig(diverseLinkMap()),
                      {0xadffe0855ead7109ULL, 0x1.2565c84174beap-2, 0x0p+0});
    }
    {
        SCOPED_TRACE("withCable then withDnsConfig");
        expectOutputs(
            base.withCable(goldenCable()).withDnsConfig(localizedDns()),
            {0xa98f4e461e5fc0f9ULL, 0x1.2565c84174beap-2, 0x0p+0});
    }
}

TEST(WhatIfGolden, OverlaySweepWithAggregates) {
    const core::Substrate substrate = makeSubstrate();

    core::ScenarioSpec buildOut;
    buildOut.name = "build-out";
    buildOut.cablesAdded = {goldenCable()};

    core::ScenarioSpec addedCut;
    addedCut.name = "cut-added-cable";
    addedCut.cablesAdded = {goldenCable()};
    addedCut.cutCables = {"GoldenWest", "WACS"};
    addedCut.repairDays = 14.0;
    addedCut.dnsOverride = localizedDns();

    core::ScenarioSpec linkCut;
    linkCut.name = "cut-diverse-links";
    linkCut.cutCables = {"SEACOM", "EASSy"};
    linkCut.linkMapOverride = diverseLinkMap();

    SweepOptions options;
    options.scenarioAggregates = true;
    const ScenarioSweepEngine engine{substrate, options};
    const SweepResult result = engine.run(
        std::vector<core::ScenarioSpec>{buildOut, addedCut, linkCut});
    ASSERT_EQ(result.scenarios.size(), 3u);
    EXPECT_EQ(result.stats.overlayScenarios, 3u);

    persist::ByteWriter out;
    for (const ScenarioResult& scenario : result.scenarios) {
        ASSERT_TRUE(scenario.outcome.hasValue()) << scenario.scenario;
        ASSERT_TRUE(scenario.aggregates.has_value()) << scenario.scenario;
        out.str(scenario.scenario);
        fold(out, scenario.outcome.value());
        out.f64(scenario.aggregates->meanPageLoadLoss);
        out.f64(scenario.aggregates->resolutionDays);
        out.f64(scenario.aggregates->detourShare);
        out.f64(scenario.aggregates->contentLocalShare);
    }
    const std::uint64_t digest = persist::fnv1a64(out.bytes());
    EXPECT_EQ(digest, 0xcd89508bd96cbe4cULL) << std::hex << "0x" << digest;
}

} // namespace
} // namespace aio::sweep
