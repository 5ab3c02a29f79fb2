// Golden outputs for the what-if derivation chain and the sweep's plain
// and overlay lanes. The other what-if suites compare one path with
// another (an engine against a sweep, a cached engine against an
// uncached one, one recompute mode against the other), so a rewrite that
// moved both sides in lockstep would pass them all. These values were
// recorded from the reference implementation and pin the absolute
// output: impact-report digests, content locality and Ghana's DNS
// failure share from a base engine and from every derived engine, and
// the per-scenario reports, aggregates and batch statistics of a
// plain-scenario sweep (dense and sharded) and an overlay-only sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/whatif.hpp"
#include "exec/worker_pool.hpp"
#include "persist/bytes.hpp"
#include "routing/oracle_cache.hpp"
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

/// fnv1a64 over every scenario's name, report and aggregates, in batch
/// order.
std::uint64_t sweepDigest(const SweepResult& result) {
    persist::ByteWriter out;
    for (const ScenarioResult& scenario : result.scenarios) {
        EXPECT_TRUE(scenario.outcome.hasValue()) << scenario.scenario;
        EXPECT_TRUE(scenario.aggregates.has_value()) << scenario.scenario;
        if (!scenario.outcome.hasValue() || !scenario.aggregates) {
            continue;
        }
        out.str(scenario.scenario);
        fold(out, scenario.outcome.value());
        out.f64(scenario.aggregates->meanPageLoadLoss);
        out.f64(scenario.aggregates->resolutionDays);
        out.f64(scenario.aggregates->detourShare);
        out.f64(scenario.aggregates->contentLocalShare);
    }
    return persist::fnv1a64(out.bytes());
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
    const std::uint64_t digest = sweepDigest(result);
    EXPECT_EQ(digest, 0xcd89508bd96cbe4cULL) << std::hex << "0x" << digest;
}

/// Overlay-free scenarios: single-cable cuts, the four-cable west
/// corridor, the same cut sets again (repeated, permuted, duplicated)
/// and one power outage over two countries.
std::vector<core::ScenarioSpec> plainBatch() {
    std::vector<core::ScenarioSpec> specs;
    const auto cut = [&specs](std::string name,
                              std::vector<std::string> cables,
                              double repairDays) {
        core::ScenarioSpec spec;
        spec.name = std::move(name);
        spec.cutCables = std::move(cables);
        spec.repairDays = repairDays;
        specs.push_back(std::move(spec));
    };
    cut("wacs", {"WACS"}, 14.0);
    cut("seacom", {"SEACOM"}, 21.0);
    cut("eassy", {"EASSy"}, 30.0);
    cut("2africa", {"2Africa"}, 21.0);
    cut("west-corridor", {"WACS", "MainOne", "SAT-3", "ACE"}, 21.0);
    cut("wacs-again", {"WACS"}, 30.0);
    cut("west-corridor-permuted", {"ACE", "SAT-3", "WACS", "MainOne", "ACE"},
        14.0);
    cut("seacom-eassy", {"SEACOM", "EASSy"}, 21.0);
    cut("eassy-seacom", {"EASSy", "SEACOM"}, 21.0);

    core::ScenarioSpec power;
    power.name = "power-ng-gh";
    power.eventType = outage::OutageType::PowerOutage;
    power.countries = {"NG", "GH"};
    power.repairDays = 3.0;
    specs.push_back(std::move(power));
    return specs;
}

struct PlainSweepPin {
    std::uint64_t digest = 0;
    std::size_t scenarios = 0;
    std::size_t dedupHits = 0;
    std::size_t incrementalBuilds = 0;
    std::size_t errors = 0;
};

void expectPlainSweep(const core::Substrate& substrate,
                      const PlainSweepPin& golden) {
    SweepOptions options;
    options.scenarioAggregates = true;
    const SweepResult result =
        ScenarioSweepEngine{substrate, options}.run(plainBatch());
    EXPECT_EQ(result.stats.overlayScenarios, 0u);
    const std::uint64_t digest = sweepDigest(result);
    EXPECT_EQ(digest, golden.digest) << std::hex << "0x" << digest;
    EXPECT_EQ(result.stats.scenarios, golden.scenarios);
    EXPECT_EQ(result.stats.dedupHits, golden.dedupHits);
    EXPECT_EQ(result.stats.incrementalBuilds, golden.incrementalBuilds);
    EXPECT_EQ(result.stats.errors, golden.errors);
}

TEST(WhatIfGolden, PlainCutSweepDense) {
    exec::WorkerPool pool{2};
    route::OracleCache cache{world(), 64, &pool};
    core::Substrate::Options options;
    options.pool = &pool;
    options.oracleCache = &cache;
    const core::Substrate substrate{
        world(), phys::CableRegistry::africanDefaults(),
        dns::DnsConfig::defaults(), content::ContentConfig::defaults(),
        options};
    expectPlainSweep(substrate, {0x0012829a4dfb1d9dULL, 10, 3, 7, 0});
}

TEST(WhatIfGolden, PlainCutSweepSharded) {
    core::Substrate::Options options;
    options.impact.routeStorage = route::StoragePolicy::Sharded;
    const core::Substrate substrate{
        world(), phys::CableRegistry::africanDefaults(),
        dns::DnsConfig::defaults(), content::ContentConfig::defaults(),
        options};
    expectPlainSweep(substrate, {0x0012829a4dfb1d9dULL, 10, 3, 7, 0});
}

} // namespace
} // namespace aio::sweep
