// Differential harness for the batched scenario sweep: across a seed x
// topology-size x cut-set grid and 1/2/8-thread pools, every sweep
// outcome must equal — ImpactReport::operator==, i.e. bitwise on every
// double — the per-scenario full recompute of the test reference
// (ImpactAnalyzer::assess on the scenario's own Substrate). This is the
// contract that makes cut-set dedupe, the shared oracle cache,
// destination-major scoring and the overlay lane safe to use at all.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "../core/whatif_reference.hpp"
#include "exec/worker_pool.hpp"
#include "netbase/rng.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "routing/oracle_cache.hpp"
#include "sweep/scenario_sweep.hpp"
#include "topo/generator.hpp"

namespace aio::sweep {
namespace {

topo::GeneratorConfig sizedConfig(std::uint64_t seed, bool small) {
    auto config = topo::GeneratorConfig::defaults();
    config.seed = seed;
    if (small) {
        for (auto& profile : config.africa) {
            profile.asPerMillionPeople *= 0.4;
            profile.minAsesPerCountry = 1;
            profile.ixpCount = std::max(1, profile.ixpCount / 2);
        }
        config.europe.accessPerCountry = 2;
        config.northAmerica.accessPerCountry = 2;
        config.southAmerica.accessPerCountry = 2;
        config.asiaPacific.accessPerCountry = 2;
    }
    return config;
}

const std::vector<std::string>& cablePool() {
    static const std::vector<std::string> pool = {
        "WACS", "MainOne", "SAT-3",   "ACE",     "Glo-1",  "SEACOM",
        "EASSy", "EIG",    "AAE-1",   "Equiano", "2Africa"};
    return pool;
}

/// Overlapping random cut sets: 1-4 cables each from a pool of 11, so a
/// batch of N scenarios collides heavily (the dedupe path gets real
/// work) while still exercising many distinct degraded states.
std::vector<core::ScenarioSpec> cutGrid(std::uint64_t seed,
                                        std::size_t count) {
    net::Rng rng{seed * 7919 + 5};
    const auto& pool = cablePool();
    std::vector<core::ScenarioSpec> specs;
    specs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        core::ScenarioSpec spec;
        spec.name = "cut-" + std::to_string(i);
        const std::size_t k = 1 + rng.uniformInt(4);
        for (std::size_t c = 0; c < k; ++c) {
            const std::string& cable = pool[rng.uniformInt(pool.size())];
            if (std::ranges::find(spec.cutCables, cable) ==
                spec.cutCables.end()) {
                spec.cutCables.push_back(cable);
            }
        }
        spec.repairDays =
            std::vector<double>{14.0, 21.0, 30.0}[rng.uniformInt(3)];
        specs.push_back(std::move(spec));
    }
    return specs;
}

/// The per-scenario full-recompute reference: each spec assessed on its
/// own (on the substrate's baseline, or on an overlay substrate derived
/// for it alone), no cache, no batching.
std::vector<outage::ImpactReport>
referenceReports(const core::Substrate& substrate,
                 std::span<const core::ScenarioSpec> specs) {
    std::vector<outage::ImpactReport> reports;
    reports.reserve(specs.size());
    for (const core::ScenarioSpec& spec : specs) {
        reports.push_back(
            core::reference::report(substrate, spec).valueOrRaise());
    }
    return reports;
}

void expectMatchesReference(const SweepResult& result,
                            const std::vector<outage::ImpactReport>& refs,
                            const std::string& label) {
    ASSERT_EQ(result.scenarios.size(), refs.size()) << label;
    for (std::size_t i = 0; i < refs.size(); ++i) {
        ASSERT_TRUE(result.scenarios[i].outcome.hasValue())
            << label << " scenario " << i;
        EXPECT_TRUE(result.scenarios[i].outcome.value() == refs[i])
            << label << ": report mismatch at scenario " << i << " ("
            << result.scenarios[i].scenario << ")";
    }
}

void runGridPoint(std::uint64_t seed, bool small, std::size_t batch) {
    const topo::Topology topo =
        topo::TopologyGenerator{sizedConfig(seed, small)}.generate();
    const auto specs = cutGrid(seed, batch);

    const core::Substrate plainSubstrate{
        topo, phys::CableRegistry::africanDefaults(),
        dns::DnsConfig::defaults(), content::ContentConfig::defaults()};
    const auto refs = referenceReports(plainSubstrate, specs);
    const std::string label =
        "seed=" + std::to_string(seed) + (small ? " small" : " default");

    // Sequential, no accelerators: incremental and full reference mode.
    {
        const ScenarioSweepEngine engine{plainSubstrate};
        expectMatchesReference(engine.run(specs), refs, label + " seq");
        const ScenarioSweepEngine full{
            plainSubstrate, SweepOptions{.mode = RecomputeMode::Full}};
        expectMatchesReference(full.run(specs), refs, label + " seq-full");
    }

    // Pooled + cached, across thread counts; second run hits the warm
    // cache and must still be identical.
    for (const int threads : {1, 2, 8}) {
        exec::WorkerPool pool{threads};
        route::OracleCache cache{topo, 64, &pool};
        obs::MetricsRegistry metrics;
        core::Substrate::Options options;
        options.oracleCache = &cache;
        options.pool = &pool;
        options.metrics = &metrics;
        const core::Substrate substrate{
            topo, phys::CableRegistry::africanDefaults(),
            dns::DnsConfig::defaults(), content::ContentConfig::defaults(),
            options};
        const ScenarioSweepEngine engine{substrate};
        const std::string tlabel =
            label + " threads=" + std::to_string(threads);
        expectMatchesReference(engine.run(specs), refs, tlabel + " cold");
        expectMatchesReference(engine.run(specs), refs, tlabel + " warm");
    }

    // Pooled without a cache, across thread counts: the states are scored
    // destination-major, with no oracle built. The small grid also runs
    // it under the sharded policy. A one-state batch (the west corridor)
    // has only its destination rows to split across the lanes.
    std::vector<core::ScenarioSpec> oneState(1);
    oneState[0].name = "west-corridor";
    oneState[0].cutCables = {"WACS", "MainOne", "SAT-3", "ACE"};
    const auto oneStateRefs = referenceReports(plainSubstrate, oneState);
    std::vector<route::StoragePolicy> policies = {route::StoragePolicy::Dense};
    if (small) {
        policies.push_back(route::StoragePolicy::Sharded);
    }
    for (const route::StoragePolicy policy : policies) {
        for (const int threads : {1, 2, 8}) {
            exec::WorkerPool pool{threads};
            obs::ManualClock clock;
            obs::MetricsRegistry metrics{&clock};
            core::Substrate::Options options;
            options.pool = &pool;
            options.metrics = &metrics;
            options.impact.routeStorage = policy;
            const core::Substrate substrate{
                topo, phys::CableRegistry::africanDefaults(),
                dns::DnsConfig::defaults(),
                content::ContentConfig::defaults(), options};
            const ScenarioSweepEngine engine{substrate};
            const std::string tlabel =
                label + " cacheless threads=" + std::to_string(threads) +
                (policy == route::StoragePolicy::Dense ? " dense"
                                                       : " sharded");
            expectMatchesReference(engine.run(specs), refs, tlabel);
            const SweepResult single = engine.run(oneState);
            expectMatchesReference(single, oneStateRefs,
                                   tlabel + " one state");
            EXPECT_EQ(single.stats.incrementalBuilds, 1U) << tlabel;
            EXPECT_EQ(single.stats.dirtyDestinations,
                      substrate.analyzer().plannedDestinations())
                << tlabel;
            EXPECT_EQ(
                metrics.histogram("sweep.build_seconds").snapshot().count,
                0U)
                << tlabel << ": a cacheless plain sweep builds no oracle";
        }
    }
}

TEST(SweepEquivalence, SmallTopologyGrid) {
    for (const std::uint64_t seed : {3ULL, 11ULL}) {
        runGridPoint(seed, /*small=*/true, /*batch=*/24);
    }
}

TEST(SweepEquivalence, DefaultTopologyGrid) {
    runGridPoint(20250704, /*small=*/false, /*batch=*/10);
}

TEST(SweepEquivalence, DedupeSharesOraclesAcrossRepeatedCutSets) {
    const topo::Topology topo =
        topo::TopologyGenerator{sizedConfig(7, true)}.generate();
    const core::Substrate substrate{
        topo, phys::CableRegistry::africanDefaults(),
        dns::DnsConfig::defaults(), content::ContentConfig::defaults()};

    // 16 scenarios over 4 distinct cut sets.
    std::vector<core::ScenarioSpec> specs;
    for (int i = 0; i < 16; ++i) {
        core::ScenarioSpec spec;
        spec.name = "dup-" + std::to_string(i);
        spec.cutCables = {cablePool()[static_cast<std::size_t>(i % 4)]};
        specs.push_back(std::move(spec));
    }
    const ScenarioSweepEngine engine{substrate};
    const SweepResult result = engine.run(specs);
    EXPECT_EQ(result.stats.scenarios, 16U);
    EXPECT_EQ(result.stats.incrementalBuilds, 4U);
    EXPECT_EQ(result.stats.dedupHits, 12U);
    EXPECT_EQ(result.stats.errors, 0U);
    EXPECT_GT(result.stats.dirtyDestinations, 0U);
    // Identical cut sets must yield identical reports.
    for (int i = 4; i < 16; ++i) {
        EXPECT_TRUE(result.scenarios[static_cast<std::size_t>(i)].outcome
                        .value() ==
                    result.scenarios[static_cast<std::size_t>(i % 4)]
                        .outcome.value());
    }
}

TEST(SweepEquivalence, MalformedScenariosDegradeOnlyTheirSlot) {
    const topo::Topology topo =
        topo::TopologyGenerator{sizedConfig(9, true)}.generate();
    const core::Substrate substrate{
        topo, phys::CableRegistry::africanDefaults(),
        dns::DnsConfig::defaults(), content::ContentConfig::defaults()};

    std::vector<core::ScenarioSpec> specs(5);
    specs[0].name = "good";
    specs[0].cutCables = {"WACS", "ACE"};
    specs[1].name = "unknown-cable";
    specs[1].cutCables = {"Atlantis-9"};
    specs[2].name = "empty-cut";
    specs[3].name = "good-again";
    specs[3].cutCables = {"WACS", "ACE"};
    specs[4].name = "bad-dns-override";
    specs[4].cutCables = {"WACS"};
    auto badDns = dns::DnsConfig::defaults();
    badDns.africa[0].cloudOffshore += 0.5; // shares no longer sum to 1
    specs[4].dnsOverride = badDns;

    const ScenarioSweepEngine engine{substrate};
    const SweepResult result = engine.run(specs);
    ASSERT_EQ(result.scenarios.size(), 5U);
    EXPECT_TRUE(result.scenarios[0].outcome.hasValue());
    ASSERT_FALSE(result.scenarios[1].outcome.hasValue());
    EXPECT_EQ(result.scenarios[1].outcome.error().kind,
              net::Error::Kind::NotFound);
    ASSERT_FALSE(result.scenarios[2].outcome.hasValue());
    EXPECT_EQ(result.scenarios[2].outcome.error().kind,
              net::Error::Kind::Precondition);
    EXPECT_TRUE(result.scenarios[3].outcome.hasValue());
    EXPECT_TRUE(result.scenarios[0].outcome.value() ==
                result.scenarios[3].outcome.value());
    // The malformed override is caught at validation, never inside an
    // overlay lane (where it would re-derive layers from bad shares).
    ASSERT_FALSE(result.scenarios[4].outcome.hasValue());
    EXPECT_EQ(result.scenarios[4].outcome.error().kind,
              net::Error::Kind::Precondition);
    EXPECT_EQ(result.stats.overlayScenarios, 0U);
    EXPECT_EQ(result.stats.errors, 3U);
}

TEST(SweepEquivalence, OverlayScenariosMatchPerScenarioEngines) {
    const topo::Topology topo =
        topo::TopologyGenerator{sizedConfig(13, true)}.generate();
    const core::Substrate substrate{
        topo, phys::CableRegistry::africanDefaults(),
        dns::DnsConfig::defaults(), content::ContentConfig::defaults()};

    phys::SubseaCable shield;
    shield.name = "TestShield";
    shield.readyForService = 2026;
    shield.capacityTbps = 100.0;
    for (const auto code : {"PT", "SN", "CI", "GH", "NG", "ZA"}) {
        shield.landings.push_back(phys::LandingStation{
            std::string{code},
            net::CountryTable::world().byCode(code).centroid});
    }

    std::vector<core::ScenarioSpec> specs(3);
    specs[0].name = "plain";
    specs[0].cutCables = {"WACS", "MainOne", "SAT-3", "ACE"};
    specs[1].name = "with-shield";
    specs[1].cutCables = {"WACS", "MainOne", "SAT-3", "ACE"};
    specs[1].cablesAdded = {shield};
    specs[2].name = "cut-the-added-cable";
    specs[2].cutCables = {"TestShield", "WACS"};
    specs[2].cablesAdded = {shield};
    auto localized = dns::DnsConfig::defaults();
    for (auto& profile : localized.africa) {
        profile = dns::ResolverProfile{0.6, 0.1, 0.2, 0.05, 0.05};
    }
    specs[1].dnsOverride = localized;

    // The other two override kinds, each under a corridor cut: hosting
    // moved home from Europe, and a link map with more terrestrial and
    // backup links.
    std::vector<core::ScenarioSpec> overrides(2);
    overrides[0].name = "content-at-home";
    overrides[0].cutCables = {"WACS", "MainOne", "SAT-3", "ACE"};
    auto hosting = content::ContentConfig::defaults();
    for (auto& profile : hosting.africa) {
        profile.localDatacenter += 0.3;
        profile.europeDc -= 0.3;
    }
    overrides[0].contentOverride = hosting;
    overrides[1].name = "diverse-links";
    overrides[1].cutCables = {"SEACOM", "EASSy"};
    overrides[1].linkMapOverride = phys::LinkMapConfig{
        .terrestrialProb = 0.6, .backupProb = 0.9,
        .backupSameCorridorProb = 0.2};

    const auto refs = referenceReports(substrate, specs);
    const auto overrideRefs = referenceReports(substrate, overrides);
    for (const int threads : {1, 4}) {
        exec::WorkerPool pool{threads};
        core::Substrate::Options options;
        options.pool = &pool;
        const core::Substrate pooled{
            topo, phys::CableRegistry::africanDefaults(),
            dns::DnsConfig::defaults(), content::ContentConfig::defaults(),
            options};
        const ScenarioSweepEngine engine{pooled};
        const std::string label = "overlay threads=" + std::to_string(threads);
        const SweepResult result = engine.run(specs);
        expectMatchesReference(result, refs, label);
        EXPECT_EQ(result.stats.overlayScenarios, 2U);
        const SweepResult overridden = engine.run(overrides);
        expectMatchesReference(overridden, overrideRefs,
                               label + " content/link-map");
        EXPECT_EQ(overridden.stats.overlayScenarios, 2U);
    }
}

TEST(SweepEquivalence, ShardedStoragePolicyIsByteIdentical) {
    // The whole sweep stack — ImpactAnalyzer, ScenarioSweepEngine,
    // OracleCache — runs unmodified behind the Substrate's storage-policy
    // switch, and every report must stay bitwise equal to the
    // dense-policy reference.
    const topo::Topology topo =
        topo::TopologyGenerator{sizedConfig(7, true)}.generate();
    const auto specs = cutGrid(7, 16);

    const core::Substrate dense{
        topo, phys::CableRegistry::africanDefaults(),
        dns::DnsConfig::defaults(), content::ContentConfig::defaults()};
    const auto refs = referenceReports(dense, specs);

    // Sharded substrate, no accelerators: incremental + full modes.
    core::Substrate::Options options;
    options.impact.routeStorage = route::StoragePolicy::Sharded;
    const core::Substrate sharded{
        topo, phys::CableRegistry::africanDefaults(),
        dns::DnsConfig::defaults(), content::ContentConfig::defaults(),
        options};
    EXPECT_EQ(sharded.storagePolicy(), route::StoragePolicy::Sharded);
    const ScenarioSweepEngine engine{sharded};
    const SweepResult result = engine.run(specs);
    expectMatchesReference(result, refs, "sharded seq");
    EXPECT_GT(result.stats.dirtyDestinations, 0U)
        << "lazy sharded builds still report the rows scoring solved";
    const ScenarioSweepEngine full{
        sharded, SweepOptions{.mode = RecomputeMode::Full}};
    expectMatchesReference(full.run(specs), refs, "sharded full");

    // Sharded substrate with a sharded cache and a pool; the second run
    // hits the warm cache and must still be identical.
    exec::WorkerPool pool{4};
    route::OracleCacheConfig cacheConfig;
    cacheConfig.policy = route::StoragePolicy::Sharded;
    route::OracleCache cache{topo, 64, &pool, nullptr, cacheConfig};
    core::Substrate::Options accel;
    accel.impact.routeStorage = route::StoragePolicy::Sharded;
    accel.oracleCache = &cache;
    accel.pool = &pool;
    const core::Substrate cached{
        topo, phys::CableRegistry::africanDefaults(),
        dns::DnsConfig::defaults(), content::ContentConfig::defaults(),
        accel};
    const ScenarioSweepEngine cachedEngine{cached};
    expectMatchesReference(cachedEngine.run(specs), refs, "sharded cold");
    expectMatchesReference(cachedEngine.run(specs), refs, "sharded warm");
}

TEST(SweepEquivalence, MismatchedCachePolicyIsRejected) {
    // A dense-policy cache wired into a sharded-policy substrate would
    // silently build dense oracles on every miss; the bundle validation
    // refuses the disagreement up front.
    const topo::Topology topo =
        topo::TopologyGenerator{sizedConfig(3, true)}.generate();
    route::OracleCache denseCache{topo, 4};
    core::Substrate::Options options;
    options.impact.routeStorage = route::StoragePolicy::Sharded;
    options.oracleCache = &denseCache;

    const auto attempt = core::Substrate::tryCreate(
        topo, phys::CableRegistry::africanDefaults(),
        dns::DnsConfig::defaults(), content::ContentConfig::defaults(),
        options);
    ASSERT_FALSE(attempt.hasValue());
    EXPECT_EQ(attempt.error().kind, net::Error::Kind::Precondition);
    EXPECT_THROW((core::Substrate{topo,
                                  phys::CableRegistry::africanDefaults(),
                                  dns::DnsConfig::defaults(),
                                  content::ContentConfig::defaults(),
                                  options}),
                 net::PreconditionError);
}

} // namespace
} // namespace aio::sweep
