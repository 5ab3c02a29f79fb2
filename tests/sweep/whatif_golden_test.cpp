// Golden outputs for the what-if derivation chain and the sweep's plain
// and overlay lanes. The other what-if suites compare one path with
// another (the sweep against the per-scenario reference, a cached
// assessment against an uncached one, one recompute mode against the
// other), so a rewrite that moved both sides in lockstep would pass them
// all. These values were recorded from the reference implementation and
// pin the absolute output: impact-report digests, content locality and
// Ghana's DNS failure share on a base substrate and on every overlay
// substrate the reference derives; the reports assess() gives
// country-scoped and offshore events; and the per-scenario reports,
// aggregates and batch statistics of a plain-scenario sweep, a catalog
// sweep (each dense and sharded) and an overlay-only sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "../core/whatif_reference.hpp"
#include "exec/worker_pool.hpp"
#include "persist/bytes.hpp"
#include "plan/textio.hpp"
#include "routing/oracle_cache.hpp"
#include "scenario/catalog.hpp"
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

EngineOutputs outputsOf(const core::Substrate& substrate) {
    namespace ref = core::reference;
    const outage::ImpactReport west = ref::assess(
        substrate,
        ref::cutEvent(substrate, {"WACS", "MainOne", "SAT-3", "ACE"}));
    persist::ByteWriter out;
    fold(out, west);
    fold(out, ref::assess(substrate,
                          ref::cutEvent(substrate, {"SEACOM", "EASSy"})));
    return {persist::fnv1a64(out.bytes()), ref::contentLocalShare(substrate),
            ref::dnsFailureShare(west, "GH")};
}

void expectOutputs(const core::Substrate& substrate,
                   const EngineOutputs& golden) {
    const EngineOutputs got = outputsOf(substrate);
    EXPECT_EQ(got.reportDigest, golden.reportDigest)
        << std::hex << "0x" << got.reportDigest;
    EXPECT_EQ(got.contentLocalShare, golden.contentLocalShare)
        << std::hexfloat << got.contentLocalShare;
    EXPECT_EQ(got.ghanaDnsFailure, golden.ghanaDnsFailure)
        << std::hexfloat << got.ghanaDnsFailure;
}

TEST(WhatIfGolden, BaseEngineOverASubstrate) {
    expectOutputs(makeSubstrate(), {0xa519d5b46157bd05ULL,
                                    0x1.2565c84174beap-2,
                                    0x1.5555555555556p-1});
}

/// Each overlay substrate the reference derives: one override per spec,
/// and a cable plus a DNS override carried by one spec.
TEST(WhatIfGolden, DerivedEngines) {
    const core::Substrate substrate = makeSubstrate();
    core::ScenarioSpec cable;
    cable.cablesAdded = {goldenCable()};
    core::ScenarioSpec dns;
    dns.dnsOverride = localizedDns();
    core::ScenarioSpec content;
    content.contentOverride = localizedContent();
    core::ScenarioSpec linkMap;
    linkMap.linkMapOverride = diverseLinkMap();
    core::ScenarioSpec cableAndDns = cable;
    cableAndDns.dnsOverride = localizedDns();
    {
        SCOPED_TRACE("cablesAdded");
        expectOutputs(core::reference::overlaid(substrate, cable),
                      {0x43bcb4ab58f43f4aULL, 0x1.2565c84174beap-2,
                       0x1.5555555555556p-1});
    }
    {
        SCOPED_TRACE("dnsOverride");
        expectOutputs(core::reference::overlaid(substrate, dns),
                      {0xcec247db9ce434afULL, 0x1.2565c84174beap-2, 0x0p+0});
    }
    {
        SCOPED_TRACE("contentOverride");
        expectOutputs(core::reference::overlaid(substrate, content),
                      {0xfd3bcab6b7e0c3f7ULL, 0x1.2e97c7e55e438p-1,
                       0x1.5555555555556p-1});
    }
    {
        SCOPED_TRACE("linkMapOverride");
        expectOutputs(core::reference::overlaid(substrate, linkMap),
                      {0xadffe0855ead7109ULL, 0x1.2565c84174beap-2, 0x0p+0});
    }
    {
        SCOPED_TRACE("cablesAdded and dnsOverride in one spec");
        expectOutputs(core::reference::overlaid(substrate, cableAndDns),
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

core::Substrate policySubstrate(route::StoragePolicy policy,
                                exec::WorkerPool* pool) {
    core::Substrate::Options options;
    options.impact.routeStorage = policy;
    options.pool = pool;
    return core::Substrate{world(), phys::CableRegistry::africanDefaults(),
                           dns::DnsConfig::defaults(),
                           content::ContentConfig::defaults(), options};
}

outage::OutageEvent countryEvent(outage::OutageType type,
                                 std::vector<std::string> countries,
                                 net::MacroRegion region, double days) {
    outage::OutageEvent event;
    event.type = type;
    event.macroRegion = region;
    event.durationDays = days;
    event.countries = std::move(countries);
    return event;
}

struct CountryEventPin {
    std::uint64_t shutdown = 0;
    std::uint64_t routingIncident = 0;
    std::uint64_t offshore = 0; ///< a non-African event
};

/// assess() on the country-scoped event classes the sweep batches above
/// do not carry: a government shutdown (every AS of the country
/// withdrawn), a routing incident (a sampled share of the countries'
/// links flapped) and an event outside the modelled cable plant. The
/// shutdown's report lists five countries and the incident's ten.
void expectCountryEvents(const core::Substrate& substrate,
                         const CountryEventPin& golden) {
    const auto digestOf = [&substrate](const outage::OutageEvent& event) {
        persist::ByteWriter out;
        fold(out, core::reference::assess(substrate, event));
        return persist::fnv1a64(out.bytes());
    };
    const std::uint64_t shutdown = digestOf(
        countryEvent(outage::OutageType::GovernmentShutdown, {"NG"},
                     net::MacroRegion::Africa, 5.0));
    const std::uint64_t routingIncident = digestOf(
        countryEvent(outage::OutageType::RoutingIncident, {"KE", "ZA"},
                     net::MacroRegion::Africa, 2.0));
    const std::uint64_t offshore = digestOf(
        countryEvent(outage::OutageType::PowerOutage, {"PT", "ES"},
                     net::MacroRegion::Europe, 1.5));
    EXPECT_EQ(shutdown, golden.shutdown) << std::hex << "0x" << shutdown;
    EXPECT_EQ(routingIncident, golden.routingIncident)
        << std::hex << "0x" << routingIncident;
    EXPECT_EQ(offshore, golden.offshore) << std::hex << "0x" << offshore;
}

TEST(WhatIfGolden, CountryScopedEventsDense) {
    expectCountryEvents(policySubstrate(route::StoragePolicy::Dense, nullptr),
                        {0xbec50e6d7582dbfcULL, 0x0b3bb2cbe4a44da1ULL,
                         0xf0316a873adc8e6bULL});
}

TEST(WhatIfGolden, CountryScopedEventsSharded) {
    expectCountryEvents(
        policySubstrate(route::StoragePolicy::Sharded, nullptr),
        {0xbec50e6d7582dbfcULL, 0x0b3bb2cbe4a44da1ULL,
         0xf0316a873adc8e6bULL});
}

/// The benchmark catalog's shape at a fixed timeline: the March 2024
/// cascade (west corridor, a grid-collapse power phase over NG+GH, then
/// SEACOM on the west repair tail), the west corridor's phased recovery,
/// and a 50-draw correlated Monte-Carlo block.
scenario::ScenarioCatalog goldenCatalog() {
    scenario::ScenarioCatalog catalog;
    scenario::CascadeTemplate march;
    march.name = "march-2024";
    scenario::PhaseSpec west;
    west.name = "west-cut";
    west.cutCables = {"WACS", "MainOne", "SAT-3", "ACE"};
    west.durationDays = 35.0;
    march.phases.push_back(west);
    scenario::PhaseSpec grid;
    grid.name = "grid-collapse";
    grid.type = outage::OutageType::PowerOutage;
    grid.countries = {"NG", "GH"};
    grid.startDay = 2.0;
    grid.durationDays = 2.0;
    march.phases.push_back(grid);
    scenario::PhaseSpec east;
    east.name = "east-cut";
    east.cutCables = {"SEACOM"};
    east.startDay = 6.0;
    east.durationDays = 20.0;
    march.phases.push_back(east);
    catalog.add(march);

    catalog.add(scenario::CascadeTemplate::phasedRecovery(
        "west-repair", {"WACS", "MainOne", "SAT-3", "ACE"}, 10.0));

    scenario::SampledTemplate sampled;
    sampled.name = "mc";
    sampled.config.seed = 2024;
    sampled.config.count = 50;
    sampled.config.importanceBoost = 2.0;
    sampled.config.correlation.sameCorridorProb = 0.02;
    sampled.config.correlation.sharedLandingProb = 0.002;
    sampled.config.repairMeanDays = 21.0;
    catalog.add(sampled);
    return catalog;
}

struct CatalogSweepPin {
    std::uint64_t digest = 0;
    std::size_t scenarios = 0;
    std::size_t dedupHits = 0;
    std::size_t incrementalBuilds = 0;
    std::size_t dirtyDestinations = 0;
    std::size_t errors = 0;
    double totalWeight = 0.0;
    double meanPageLoadLoss = 0.0;
    double meanResolutionDays = 0.0;
    double meanImpactedCountries = 0.0;
    double meanDetourShare = 0.0;
    double meanContentLocalShare = 0.0;
};

/// The catalog rendered to text and parsed back, compiled and swept on
/// the substrate's 2-lane pool with scenario aggregates on.
void expectCatalogSweep(const core::Substrate& substrate,
                        const CatalogSweepPin& golden) {
    const std::string text =
        plan::renderCatalog(goldenCatalog()).valueOrRaise();
    const auto batch =
        plan::parseCatalog(text).valueOrRaise().compile(substrate);
    ASSERT_TRUE(batch.hasValue()) << batch.error().message;
    SweepOptions options;
    options.scenarioAggregates = true;
    const BatchSweepResult result =
        ScenarioSweepEngine{substrate, options}.runBatch(batch.value());
    const SweepStats& stats = result.sweep.stats;
    const std::uint64_t digest = sweepDigest(result.sweep);
    EXPECT_EQ(digest, golden.digest) << std::hex << "0x" << digest;
    EXPECT_EQ(stats.scenarios, golden.scenarios);
    EXPECT_EQ(stats.dedupHits, golden.dedupHits);
    EXPECT_EQ(stats.incrementalBuilds, golden.incrementalBuilds);
    EXPECT_EQ(stats.fullBuilds, 0u);
    EXPECT_EQ(stats.dirtyDestinations, golden.dirtyDestinations);
    EXPECT_EQ(stats.errors, golden.errors);
    EXPECT_EQ(stats.overlayScenarios, 0u);

    const WeightedAggregate& agg = result.aggregate;
    EXPECT_EQ(agg.scored, golden.scenarios);
    EXPECT_EQ(agg.errors, golden.errors);
    EXPECT_EQ(agg.totalWeight, golden.totalWeight)
        << std::hexfloat << agg.totalWeight;
    EXPECT_EQ(agg.meanPageLoadLoss, golden.meanPageLoadLoss)
        << std::hexfloat << agg.meanPageLoadLoss;
    EXPECT_EQ(agg.meanResolutionDays, golden.meanResolutionDays)
        << std::hexfloat << agg.meanResolutionDays;
    EXPECT_EQ(agg.meanImpactedCountries, golden.meanImpactedCountries)
        << std::hexfloat << agg.meanImpactedCountries;
    EXPECT_EQ(agg.meanDetourShare, golden.meanDetourShare)
        << std::hexfloat << agg.meanDetourShare;
    EXPECT_EQ(agg.meanContentLocalShare, golden.meanContentLocalShare)
        << std::hexfloat << agg.meanContentLocalShare;
}

TEST(WhatIfGolden, CatalogSweepDense) {
    exec::WorkerPool pool{2};
    expectCatalogSweep(
        policySubstrate(route::StoragePolicy::Dense, &pool),
        {0x1b93ac446d50729cULL, 57, 26, 31, 12958, 0,
         0x1.c545ad627459bp+5, 0x1.39ad8c2b7783dp-2, 0x1.5b7e2e379b29bp+3,
         0x1.49d20684e5bap+2, 0x1.de4f9a7283cf8p-1, 0x1.2565c84174be9p-2});
}

TEST(WhatIfGolden, CatalogSweepSharded) {
    exec::WorkerPool pool{2};
    expectCatalogSweep(
        policySubstrate(route::StoragePolicy::Sharded, &pool),
        {0x1b93ac446d50729cULL, 57, 26, 31, 7435, 0,
         0x1.c545ad627459bp+5, 0x1.39ad8c2b7783dp-2, 0x1.5b7e2e379b29bp+3,
         0x1.49d20684e5bap+2, 0x1.de4f9a7283cf8p-1, 0x1.2565c84174be9p-2});
}

} // namespace
} // namespace aio::sweep
