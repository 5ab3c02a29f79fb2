// Satellite contract of the scenario work: cut lists are canonicalized
// (resolved against the registry, sorted by id, deduplicated) before any
// digesting or filter construction, so permuted or duplicated lists are
// ONE scenario to the dedupe cache and produce byte-identical reports —
// including the canonical event echoed back in ImpactReport::event.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/substrate.hpp"
#include "netbase/rng.hpp"
#include "sweep/scenario_sweep.hpp"
#include "topo/generator.hpp"

namespace aio::sweep {
namespace {

topo::GeneratorConfig smallConfig(std::uint64_t seed) {
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

core::Substrate smallSubstrate(const topo::Topology& topo) {
    return core::Substrate{topo, phys::CableRegistry::africanDefaults(),
                           dns::DnsConfig::defaults(),
                           content::ContentConfig::defaults()};
}

TEST(CutCanonicalization, CanonicalCutSetSortsAndDedupes) {
    const auto registry = phys::CableRegistry::africanDefaults();
    const std::vector<std::string> messy = {"SEACOM", "WACS", "SEACOM",
                                            "ACE",    "WACS", "MainOne"};
    const auto cuts = core::canonicalCutSet(registry, messy);
    ASSERT_TRUE(cuts.hasValue());
    ASSERT_EQ(cuts.value().size(), 4U);
    EXPECT_TRUE(std::ranges::is_sorted(cuts.value()));
    EXPECT_EQ(std::ranges::adjacent_find(cuts.value()), cuts.value().end());
    for (const char* name : {"WACS", "MainOne", "ACE", "SEACOM"}) {
        EXPECT_TRUE(std::ranges::find(cuts.value(), registry.byName(name)) !=
                    cuts.value().end())
            << name;
    }
}

TEST(CutCanonicalization, CanonicalCutSetNamesTheUnknownCable) {
    const auto registry = phys::CableRegistry::africanDefaults();
    const std::vector<std::string> names = {"WACS", "Atlantis-9"};
    const auto cuts = core::canonicalCutSet(registry, names);
    ASSERT_FALSE(cuts.hasValue());
    EXPECT_EQ(cuts.error().kind, net::Error::Kind::NotFound);
    EXPECT_NE(cuts.error().message.find("Atlantis-9"), std::string::npos);
}

TEST(CutCanonicalization, PermutedAndDuplicatedListsMakeTheSameEvent) {
    const auto registry = phys::CableRegistry::africanDefaults();
    core::ScenarioSpec sorted;
    sorted.name = "sorted";
    sorted.cutCables = {"WACS", "SAT-3", "MainOne", "ACE"};
    core::ScenarioSpec shuffled = sorted;
    shuffled.name = "shuffled";
    shuffled.cutCables = {"ACE", "MainOne", "WACS", "SAT-3"};
    core::ScenarioSpec duplicated = sorted;
    duplicated.name = "duplicated";
    duplicated.cutCables = {"ACE",  "ACE",   "MainOne", "WACS",
                            "WACS", "SAT-3", "ACE"};

    const auto a = sorted.makeEvent(registry);
    const auto b = shuffled.makeEvent(registry);
    const auto c = duplicated.makeEvent(registry);
    ASSERT_TRUE(a.hasValue());
    ASSERT_TRUE(b.hasValue());
    ASSERT_TRUE(c.hasValue());
    EXPECT_TRUE(a.value() == b.value());
    EXPECT_TRUE(a.value() == c.value());
    EXPECT_TRUE(std::ranges::is_sorted(a.value().cutCables));
    EXPECT_EQ(a.value().cutCables.size(), 4U);
}

TEST(CutCanonicalization, SweepDedupesPermutedListsToOneOracle) {
    const topo::Topology topo =
        topo::TopologyGenerator{smallConfig(17)}.generate();
    const core::Substrate substrate = smallSubstrate(topo);

    std::vector<core::ScenarioSpec> specs(3);
    specs[0].name = "sorted";
    specs[0].cutCables = {"WACS", "MainOne", "ACE"};
    specs[1].name = "permuted";
    specs[1].cutCables = {"ACE", "WACS", "MainOne"};
    specs[2].name = "duplicated";
    specs[2].cutCables = {"MainOne", "ACE", "ACE", "WACS", "MainOne"};

    const ScenarioSweepEngine engine{substrate};
    const SweepResult result = engine.run(specs);
    ASSERT_EQ(result.scenarios.size(), 3U);
    EXPECT_EQ(result.stats.errors, 0U);
    // One canonical cut set => one incremental build, two dedupe hits.
    EXPECT_EQ(result.stats.incrementalBuilds, 1U);
    EXPECT_EQ(result.stats.dedupHits, 2U);
    for (const ScenarioResult& scenario : result.scenarios) {
        ASSERT_TRUE(scenario.outcome.hasValue()) << scenario.scenario;
        // The report echoes the canonical event: sorted, deduplicated.
        const auto& cut = scenario.outcome.value().event.cutCables;
        EXPECT_TRUE(std::ranges::is_sorted(cut)) << scenario.scenario;
        EXPECT_EQ(cut.size(), 3U) << scenario.scenario;
        EXPECT_TRUE(scenario.outcome.value() ==
                    result.scenarios[0].outcome.value())
            << scenario.scenario;
    }
}

TEST(CutCanonicalization, RandomPermutationsAreByteIdenticalProperty) {
    const topo::Topology topo =
        topo::TopologyGenerator{smallConfig(5)}.generate();
    const core::Substrate substrate = smallSubstrate(topo);
    const ScenarioSweepEngine engine{substrate};

    const std::vector<std::string> base = {"WACS", "SAT-3", "MainOne",
                                           "ACE",  "Glo-1"};
    core::ScenarioSpec reference;
    reference.name = "reference";
    reference.cutCables = base;
    const SweepResult refRun =
        engine.run(std::vector<core::ScenarioSpec>{reference});
    ASSERT_TRUE(refRun.scenarios[0].outcome.hasValue());
    const outage::ImpactReport& refReport = refRun.scenarios[0].outcome.value();
    net::Rng refFilterRng{0};
    const auto refDigest =
        substrate.analyzer().filterFor(refReport.event, refFilterRng).digest();

    net::Rng rng{2024};
    for (int round = 0; round < 12; ++round) {
        core::ScenarioSpec spec;
        spec.name = "round-" + std::to_string(round);
        spec.cutCables = base;
        rng.shuffle(spec.cutCables);
        // Random duplicates on top of the permutation.
        const std::size_t dups = rng.uniformInt(4);
        for (std::size_t d = 0; d < dups; ++d) {
            spec.cutCables.push_back(base[rng.uniformInt(base.size())]);
        }
        const auto event = spec.makeEvent(substrate.registry());
        ASSERT_TRUE(event.hasValue()) << spec.name;
        // Identical filter digest => the sweep's dedupe treats it as the
        // same scenario...
        net::Rng filterRng{0};
        EXPECT_EQ(substrate.analyzer().filterFor(event.value(), filterRng)
                      .digest(),
                  refDigest)
            << spec.name;
        // ... and the full outcome is byte-identical.
        const SweepResult run =
            engine.run(std::vector<core::ScenarioSpec>{spec});
        ASSERT_TRUE(run.scenarios[0].outcome.hasValue()) << spec.name;
        EXPECT_TRUE(run.scenarios[0].outcome.value() == refReport)
            << spec.name;
    }
}

} // namespace
} // namespace aio::sweep
