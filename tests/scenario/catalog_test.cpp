// ScenarioCatalog: declarative templates (cascades with phase timelines
// and repair tails, phased recoveries, build-out futures) compiling into
// weighted ScenarioSpec batches — and the add-only contract fix that
// unblocked them: a cut-free overlay scenario validates, sweeps, and
// scores against its own augmented baseline.

#include "scenario/catalog.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "../core/whatif_reference.hpp"
#include "netbase/error.hpp"
#include "topo/generator.hpp"

namespace aio::scenario {
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

phys::SubseaCable shieldCable() {
    phys::SubseaCable shield;
    shield.name = "TestShield";
    shield.readyForService = 2026;
    shield.capacityTbps = 100.0;
    for (const auto code : {"PT", "SN", "CI", "GH", "NG", "ZA"}) {
        shield.landings.push_back(phys::LandingStation{
            std::string{code},
            net::CountryTable::world().byCode(code).centroid});
    }
    return shield;
}

/// The §5.1 compound shape: a corridor cut whose multi-week repair tail
/// carries a power outage and a second cut.
CascadeTemplate marchCascade() {
    CascadeTemplate cascade;
    cascade.name = "march-2024";
    PhaseSpec first;
    first.name = "west-cut";
    first.type = outage::OutageType::CableCut;
    first.cutCables = {"WACS", "MainOne", "SAT-3", "ACE"};
    first.startDay = 0.0;
    first.durationDays = 35.0;
    cascade.phases.push_back(first);
    PhaseSpec second;
    second.name = "grid-collapse";
    second.type = outage::OutageType::PowerOutage;
    second.countries = {"NG", "GH"};
    second.startDay = 2.0;
    second.durationDays = 1.5;
    cascade.phases.push_back(second);
    PhaseSpec third;
    third.name = "east-cut";
    third.type = outage::OutageType::CableCut;
    third.cutCables = {"SEACOM"};
    third.startDay = 5.0;
    third.durationDays = 20.0;
    cascade.phases.push_back(third);
    return cascade;
}

TEST(ScenarioCatalog, CascadeCompilesTimelineAndCumulativeCuts) {
    const topo::Topology topo =
        topo::TopologyGenerator{smallConfig(7)}.generate();
    const core::Substrate substrate = smallSubstrate(topo);

    ScenarioCatalog catalog;
    auto cascade = marchCascade();
    cascade.weight = 2.5;
    catalog.add(cascade);
    const auto batch = catalog.compile(substrate);
    ASSERT_TRUE(batch.hasValue()) << batch.error().message;
    ASSERT_EQ(batch.value().entries.size(), 3U);

    const auto& entries = batch.value().entries;
    EXPECT_EQ(entries[0].spec.name, "march-2024@west-cut");
    EXPECT_EQ(entries[1].spec.name, "march-2024@grid-collapse");
    EXPECT_EQ(entries[2].spec.name, "march-2024@east-cut");
    for (const sweep::WeightedSpec& entry : entries) {
        EXPECT_DOUBLE_EQ(entry.weight, 2.5);
    }
    // Phase 2 is country-scoped, carries no cuts.
    EXPECT_EQ(entries[1].spec.eventType, outage::OutageType::PowerOutage);
    EXPECT_TRUE(entries[1].spec.cutCables.empty());
    EXPECT_EQ(entries[1].spec.countries,
              (std::vector<std::string>{"NG", "GH"}));
    EXPECT_DOUBLE_EQ(entries[1].spec.startDay, 2.0);
    EXPECT_DOUBLE_EQ(entries[1].spec.repairDays, 1.5);
    // Phase 3 starts on day 5, inside phase 1's [0, 35) repair window:
    // cumulative cuts ride along (SEACOM plus the four west cables).
    EXPECT_EQ(entries[2].spec.cutCables.size(), 5U);
    for (const char* name :
         {"SEACOM", "WACS", "MainOne", "SAT-3", "ACE"}) {
        EXPECT_TRUE(std::ranges::find(entries[2].spec.cutCables,
                                      std::string{name}) !=
                    entries[2].spec.cutCables.end())
            << name;
    }
    // Every phase's fault-taxonomy bridge agrees with the event class.
    EXPECT_EQ(cascade.phases[0].faultClass(),
              resilience::FaultClass::TransitLoss);
    EXPECT_EQ(cascade.phases[1].faultClass(),
              resilience::FaultClass::PowerLoss);
}

TEST(ScenarioCatalog, ExpiredRepairWindowsDropOutOfLaterPhases) {
    const topo::Topology topo =
        topo::TopologyGenerator{smallConfig(7)}.generate();
    const core::Substrate substrate = smallSubstrate(topo);

    CascadeTemplate cascade;
    cascade.name = "short-tail";
    PhaseSpec first;
    first.name = "cut";
    first.cutCables = {"WACS"};
    first.startDay = 0.0;
    first.durationDays = 3.0; // repaired before the next phase
    cascade.phases.push_back(first);
    PhaseSpec second;
    second.name = "late-cut";
    second.cutCables = {"SEACOM"};
    second.startDay = 10.0;
    second.durationDays = 20.0;
    cascade.phases.push_back(second);

    ScenarioCatalog catalog;
    catalog.add(cascade);
    const auto batch = catalog.compile(substrate);
    ASSERT_TRUE(batch.hasValue());
    EXPECT_EQ(batch.value().entries[1].spec.cutCables,
              (std::vector<std::string>{"SEACOM"}));
}

TEST(ScenarioCatalog, PhasedRecoveryShrinksTheCutSet) {
    const topo::Topology topo =
        topo::TopologyGenerator{smallConfig(7)}.generate();
    const core::Substrate substrate = smallSubstrate(topo);

    const auto recovery = CascadeTemplate::phasedRecovery(
        "west-repair", {"WACS", "MainOne", "ACE"}, 7.0);
    EXPECT_FALSE(recovery.cumulativeCuts);
    ASSERT_EQ(recovery.phases.size(), 3U);
    EXPECT_EQ(recovery.phases[0].cutCables,
              (std::vector<std::string>{"WACS", "MainOne", "ACE"}));
    EXPECT_EQ(recovery.phases[1].cutCables,
              (std::vector<std::string>{"MainOne", "ACE"}));
    EXPECT_EQ(recovery.phases[2].cutCables,
              (std::vector<std::string>{"ACE"}));
    EXPECT_DOUBLE_EQ(recovery.phases[1].startDay, 7.0);
    EXPECT_DOUBLE_EQ(recovery.phases[2].startDay, 14.0);
    EXPECT_DOUBLE_EQ(recovery.phases[0].durationDays, 21.0);
    EXPECT_DOUBLE_EQ(recovery.phases[2].durationDays, 7.0);

    ScenarioCatalog catalog;
    catalog.add(recovery);
    const auto batch = catalog.compile(substrate);
    ASSERT_TRUE(batch.hasValue());
    ASSERT_EQ(batch.value().entries.size(), 3U);

    // Sweeping the recovery: impact eases as cables come back.
    const sweep::ScenarioSweepEngine engine{substrate};
    const auto result = engine.run(batch.value().specs());
    ASSERT_EQ(result.stats.errors, 0U);
    const auto loss = [&](std::size_t i) {
        double sum = 0.0;
        for (const auto& impact :
             result.scenarios[i].outcome.value().countries) {
            sum += impact.pageLoadLoss;
        }
        return sum;
    };
    EXPECT_GE(loss(0), loss(2));

    EXPECT_THROW(CascadeTemplate::phasedRecovery("bad", {}, 7.0),
                 net::PreconditionError);
    EXPECT_THROW(CascadeTemplate::phasedRecovery("bad", {"WACS"}, 0.0),
                 net::PreconditionError);
}

TEST(ScenarioCatalog, AddOnlyBuildoutValidatesAndSweeps) {
    // The regression this PR fixes: an add-only overlay (cables added,
    // nothing cut) used to be rejected by ScenarioSpec::validate. It now
    // compiles, sweeps, and scores against the augmented baseline.
    const topo::Topology topo =
        topo::TopologyGenerator{smallConfig(13)}.generate();
    const core::Substrate substrate = smallSubstrate(topo);

    BuildoutTemplate buildout;
    buildout.name = "shield-future";
    buildout.cablesAdded = {shieldCable()};
    auto localized = content::ContentConfig::defaults();
    for (auto& profile : localized.africa) {
        profile = content::HostingProfile{0.5, 0.2, 0.2, 0.07, 0.03};
    }
    buildout.contentOverride = localized;

    CascadeTemplate cut;
    cut.name = "west-cut";
    PhaseSpec phase;
    phase.name = "only";
    phase.cutCables = {"WACS", "MainOne", "SAT-3", "ACE"};
    cut.phases.push_back(phase);

    ScenarioCatalog catalog;
    catalog.add(buildout);
    catalog.add(cut);
    const auto batch = catalog.compile(substrate);
    ASSERT_TRUE(batch.hasValue()) << batch.error().message;
    // compile() emits cascades before buildouts: the damage scenario is
    // entry 0, the add-only future entry 1.
    ASSERT_EQ(batch.value().entries.size(), 2U);
    ASSERT_EQ(batch.value().entries[1].spec.name, "shield-future");
    const core::ScenarioSpec& addOnly = batch.value().entries[1].spec;
    EXPECT_TRUE(addOnly.addOnly());
    EXPECT_TRUE(addOnly.hasOverlay());
    EXPECT_TRUE(addOnly.validate(substrate).hasValue());

    sweep::SweepOptions options;
    options.scenarioAggregates = true;
    const sweep::ScenarioSweepEngine engine{substrate, options};
    const auto result = engine.runBatch(batch.value());
    ASSERT_EQ(result.sweep.stats.errors, 0U);
    EXPECT_EQ(result.sweep.stats.overlayScenarios, 1U);

    const auto& future = result.sweep.scenarios[1];
    const auto& damage = result.sweep.scenarios[0];
    ASSERT_TRUE(future.outcome.hasValue());
    // No damage: the add-only future reports no impacted countries and a
    // zero-duration event.
    EXPECT_TRUE(future.outcome.value().countries.empty());
    EXPECT_DOUBLE_EQ(future.outcome.value().event.durationDays, 0.0);
    EXPECT_TRUE(future.outcome.value().event.cutCables.empty());
    // ... while the aggregates still describe its (augmented) world, and
    // the content mandate moves the locality share.
    ASSERT_TRUE(future.aggregates.has_value());
    ASSERT_TRUE(damage.aggregates.has_value());
    EXPECT_GT(future.aggregates->contentLocalShare,
              damage.aggregates->contentLocalShare);
    EXPECT_DOUBLE_EQ(future.aggregates->meanPageLoadLoss, 0.0);
    EXPECT_GT(damage.aggregates->meanPageLoadLoss, 0.0);
    // The weighted aggregate blends both scenarios.
    EXPECT_EQ(result.aggregate.scored, 2U);
    EXPECT_GT(result.aggregate.meanContentLocalShare, 0.0);
}

TEST(ScenarioCatalog, CompiledPhasesMatchPerScenarioEngines) {
    // Differential: every compiled non-overlay spec must score exactly
    // as the per-scenario reference assesses it on the same substrate.
    const topo::Topology topo =
        topo::TopologyGenerator{smallConfig(11)}.generate();
    const core::Substrate substrate = smallSubstrate(topo);

    ScenarioCatalog catalog;
    catalog.add(marchCascade());
    catalog.add(CascadeTemplate::phasedRecovery(
        "recovery", {"SEACOM", "EASSy"}, 10.0));
    const auto batch = catalog.compile(substrate);
    ASSERT_TRUE(batch.hasValue()) << batch.error().message;

    const sweep::ScenarioSweepEngine engine{substrate};
    const auto result = engine.run(batch.value().specs());
    ASSERT_EQ(result.stats.errors, 0U);

    for (std::size_t i = 0; i < batch.value().entries.size(); ++i) {
        const core::ScenarioSpec& spec = batch.value().entries[i].spec;
        const auto event = spec.makeEvent(substrate.registry());
        ASSERT_TRUE(event.hasValue()) << spec.name;
        EXPECT_TRUE(result.scenarios[i].outcome.value() ==
                    core::reference::assess(substrate, event.value()))
            << spec.name;
    }
}

TEST(ScenarioCatalog, EntryOrderDoesNotChangeSampledDraws) {
    // The sampled template's draw streams are keyed by (seed, tag,
    // index): adding templates before/after it must not perturb any
    // drawn scenario.
    const topo::Topology topo =
        topo::TopologyGenerator{smallConfig(7)}.generate();
    const core::Substrate substrate = smallSubstrate(topo);

    SampledTemplate mc;
    mc.name = "mc";
    mc.config.seed = 404;
    mc.config.count = 32;
    mc.config.importanceBoost = 2.0;

    ScenarioCatalog first;
    first.add(mc);
    first.add(marchCascade());

    ScenarioCatalog second;
    second.add(CascadeTemplate::phasedRecovery("other", {"WACS"}, 5.0));
    BuildoutTemplate buildout;
    buildout.name = "shield";
    buildout.cablesAdded = {shieldCable()};
    second.add(buildout);
    second.add(mc);

    const auto pick = [](const sweep::ScenarioBatch& batch) {
        std::vector<sweep::WeightedSpec> out;
        for (const sweep::WeightedSpec& entry : batch.entries) {
            if (entry.spec.name.starts_with("mc#")) {
                out.push_back(entry);
            }
        }
        return out;
    };
    const auto batchA = first.compile(substrate);
    const auto batchB = second.compile(substrate);
    ASSERT_TRUE(batchA.hasValue());
    ASSERT_TRUE(batchB.hasValue());
    const auto drawsA = pick(batchA.value());
    const auto drawsB = pick(batchB.value());
    ASSERT_EQ(drawsA.size(), 32U);
    ASSERT_EQ(drawsA.size(), drawsB.size());
    for (std::size_t i = 0; i < drawsA.size(); ++i) {
        EXPECT_EQ(drawsA[i].spec.name, drawsB[i].spec.name);
        EXPECT_EQ(drawsA[i].spec.cutCables, drawsB[i].spec.cutCables);
        EXPECT_DOUBLE_EQ(drawsA[i].spec.repairDays,
                         drawsB[i].spec.repairDays);
        EXPECT_DOUBLE_EQ(drawsA[i].weight, drawsB[i].weight);
    }
}

TEST(ScenarioCatalog, CompileRejectsMalformedTemplates) {
    const topo::Topology topo =
        topo::TopologyGenerator{smallConfig(7)}.generate();
    const core::Substrate substrate = smallSubstrate(topo);

    const auto expectRejects = [&](ScenarioCatalog& catalog,
                                   const std::string& needle) {
        const auto batch = catalog.compile(substrate);
        ASSERT_FALSE(batch.hasValue()) << needle;
        EXPECT_NE(batch.error().message.find(needle), std::string::npos)
            << batch.error().message;
    };

    {
        // Duplicate template names across kinds.
        ScenarioCatalog catalog;
        catalog.add(CascadeTemplate::phasedRecovery("dup", {"WACS"}, 5.0));
        BuildoutTemplate buildout;
        buildout.name = "dup";
        buildout.cablesAdded = {shieldCable()};
        catalog.add(buildout);
        expectRejects(catalog, "duplicate");
    }
    {
        // A phase timeline running backwards.
        CascadeTemplate cascade;
        cascade.name = "backwards";
        PhaseSpec a;
        a.name = "late";
        a.cutCables = {"WACS"};
        a.startDay = 10.0;
        PhaseSpec b;
        b.name = "early";
        b.cutCables = {"ACE"};
        b.startDay = 2.0;
        cascade.phases = {a, b};
        ScenarioCatalog catalog;
        catalog.add(cascade);
        expectRejects(catalog, "non-decreasing");
    }
    {
        // An unknown cable is caught at compile time, template named.
        CascadeTemplate cascade;
        cascade.name = "typo";
        PhaseSpec phase;
        phase.name = "only";
        phase.cutCables = {"Atlantis-9"};
        cascade.phases = {phase};
        ScenarioCatalog catalog;
        catalog.add(cascade);
        expectRejects(catalog, "template 'typo'");
    }
    {
        // Phaseless cascades and bad weights.
        CascadeTemplate empty;
        empty.name = "empty";
        ScenarioCatalog catalog;
        catalog.add(empty);
        expectRejects(catalog, "phase");
    }
    {
        CascadeTemplate cascade =
            CascadeTemplate::phasedRecovery("w", {"WACS"}, 5.0);
        cascade.weight = 0.0;
        ScenarioCatalog catalog;
        catalog.add(cascade);
        expectRejects(catalog, "weight");
    }
    {
        // Sampler config problems surface with the template's name.
        SampledTemplate mc;
        mc.name = "mc";
        mc.config.importanceBoost = 0.5;
        ScenarioCatalog catalog;
        catalog.add(mc);
        expectRejects(catalog, "template 'mc'");
    }
    {
        // A country-scoped phase needs countries the topology knows.
        CascadeTemplate cascade;
        cascade.name = "ghost";
        PhaseSpec phase;
        phase.name = "only";
        phase.type = outage::OutageType::GovernmentShutdown;
        phase.countries = {"XX"};
        cascade.phases = {phase};
        ScenarioCatalog catalog;
        catalog.add(cascade);
        expectRejects(catalog, "template 'ghost'");
    }
}

} // namespace
} // namespace aio::scenario
