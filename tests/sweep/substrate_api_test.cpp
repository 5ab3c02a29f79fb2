// The Substrate and ScenarioSpec entry points: a bad bundle or a bad
// spec fails as a value with the right Error kind (and throws from the
// throwing spellings), specs compile cable names into events as values,
// and a Substrate's derived layers stay valid through moves.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "../core/whatif_reference.hpp"
#include "netbase/error.hpp"
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

struct World {
    topo::Topology topo;
    World()
        : topo(topo::TopologyGenerator{smallConfig(42)}.generate()) {}
};

World& world() {
    static World w;
    return w;
}

core::Substrate makeSubstrate() {
    return core::Substrate{world().topo,
                           phys::CableRegistry::africanDefaults(),
                           dns::DnsConfig::defaults(),
                           content::ContentConfig::defaults()};
}

TEST(ApiMigration, SubstrateValidationFailsAsValues) {
    auto badDns = dns::DnsConfig::defaults();
    badDns.africa[0].cloudOffshore += 0.5; // shares no longer sum to 1
    const auto result = core::Substrate::tryCreate(
        world().topo, phys::CableRegistry::africanDefaults(), badDns,
        content::ContentConfig::defaults());
    ASSERT_FALSE(result.hasValue());
    EXPECT_EQ(result.error().kind, net::Error::Kind::Precondition);
    EXPECT_THROW((core::Substrate{world().topo,
                                  phys::CableRegistry::africanDefaults(),
                                  badDns,
                                  content::ContentConfig::defaults()}),
                 net::PreconditionError);

    auto badContent = content::ContentConfig::defaults();
    badContent.sitesPerCountry = 0;
    ASSERT_FALSE(core::Substrate::tryCreate(
                     world().topo, phys::CableRegistry::africanDefaults(),
                     dns::DnsConfig::defaults(), badContent)
                     .hasValue());
}

TEST(ApiMigration, TryCreateSubstrateSurvivesMoves) {
    auto created = core::Substrate::tryCreate(
        world().topo, phys::CableRegistry::africanDefaults(),
        dns::DnsConfig::defaults(), content::ContentConfig::defaults());
    ASSERT_TRUE(created.hasValue());
    // tryCreate's Expected return already move-constructed the substrate
    // once; move it twice more (construction + assignment) before using
    // it, so any derived-layer pointer into the moved-from shell blows
    // up here rather than in production.
    core::Substrate substrate = std::move(created).value();
    core::Substrate parked = makeSubstrate();
    parked = std::move(substrate);

    // The link map's registry pointer must track the substrate's own
    // registry through every move.
    EXPECT_EQ(&parked.linkMap().registry(), &parked.registry());

    // assess() on a cable cut walks the recovery check through
    // linkMap().registry() — the exact dereference a dangling pointer
    // would turn into a use-after-free.
    const auto reference = makeSubstrate();
    const auto event =
        core::reference::cutEvent(parked, {"WACS", "MainOne", "ACE"});
    EXPECT_TRUE(core::reference::assess(parked, event) ==
                core::reference::assess(reference, event));
}

TEST(ApiMigration, MakeEventReturnsErrorsAsValues) {
    const auto substrate = makeSubstrate();

    core::ScenarioSpec unknown;
    unknown.name = "unknown";
    unknown.cutCables = {"WACS", "Atlantis-9"};
    const auto bad = unknown.makeEvent(substrate.registry());
    ASSERT_FALSE(bad.hasValue());
    EXPECT_EQ(bad.error().kind, net::Error::Kind::NotFound);
    EXPECT_THROW((void)unknown.makeEvent(substrate.registry()).valueOrRaise(),
                 net::NotFoundError);

    // A cut with no cable and no overlay has no damage surface; validate
    // refuses it before anything compiles it.
    core::ScenarioSpec empty;
    empty.name = "empty";
    const auto refused = empty.validate(substrate);
    ASSERT_FALSE(refused.hasValue());
    EXPECT_EQ(refused.error().kind, net::Error::Kind::Precondition);

    core::ScenarioSpec good;
    good.name = "good";
    good.cutCables = {"WACS"};
    good.repairDays = 10.0;
    const auto event = good.makeEvent(substrate.registry());
    ASSERT_TRUE(event.hasValue());
    EXPECT_EQ(event.value().cutCables.size(), 1U);
    EXPECT_DOUBLE_EQ(event.value().durationDays, 10.0);
}

TEST(ApiMigration, ScenarioSpecValidateCatchesBadSpecs) {
    const auto substrate = makeSubstrate();

    core::ScenarioSpec good;
    good.name = "ok";
    good.cutCables = {"WACS"};
    EXPECT_TRUE(good.validate(substrate).hasValue());

    core::ScenarioSpec unnamed = good;
    unnamed.name.clear();
    EXPECT_EQ(unnamed.validate(substrate).error().kind,
              net::Error::Kind::Precondition);

    core::ScenarioSpec badRepair = good;
    badRepair.repairDays = -3.0;
    EXPECT_FALSE(badRepair.validate(substrate).hasValue());
    badRepair.repairDays = 0.0;
    EXPECT_FALSE(badRepair.validate(substrate).hasValue());

    core::ScenarioSpec unknownCut = good;
    unknownCut.cutCables = {"Atlantis-9"};
    EXPECT_EQ(unknownCut.validate(substrate).error().kind,
              net::Error::Kind::NotFound);

    // A cut cable may resolve against the scenario's own added cables.
    core::ScenarioSpec addedCut = good;
    phys::SubseaCable added;
    added.name = "Hypothetical";
    for (const auto code : {"PT", "NG"}) {
        added.landings.push_back(phys::LandingStation{
            std::string{code},
            net::CountryTable::world().byCode(code).centroid});
    }
    addedCut.cablesAdded = {added};
    addedCut.cutCables = {"Hypothetical"};
    EXPECT_TRUE(addedCut.validate(substrate).hasValue());

    core::ScenarioSpec dupAdded = addedCut;
    dupAdded.cablesAdded.push_back(added);
    EXPECT_FALSE(dupAdded.validate(substrate).hasValue());
}

TEST(ApiMigration, ScenarioSpecValidateChecksOverrides) {
    const auto substrate = makeSubstrate();

    core::ScenarioSpec good;
    good.name = "ok";
    good.cutCables = {"WACS"};

    // Each override obeys the same rules Substrate::validate enforces
    // on the base bundle.
    core::ScenarioSpec badDns = good;
    auto dnsOverride = dns::DnsConfig::defaults();
    dnsOverride.africa[0].cloudOffshore += 0.5; // shares no longer sum to 1
    badDns.dnsOverride = dnsOverride;
    EXPECT_EQ(badDns.validate(substrate).error().kind,
              net::Error::Kind::Precondition);

    core::ScenarioSpec badContent = good;
    auto contentOverride = content::ContentConfig::defaults();
    contentOverride.sitesPerCountry = 0;
    badContent.contentOverride = contentOverride;
    EXPECT_FALSE(badContent.validate(substrate).hasValue());

    core::ScenarioSpec badLink = good;
    phys::LinkMapConfig linkOverride;
    linkOverride.backupProb = 1.5;
    badLink.linkMapOverride = linkOverride;
    EXPECT_FALSE(badLink.validate(substrate).hasValue());

    // Well-formed overrides still pass.
    core::ScenarioSpec localized = good;
    auto okDns = dns::DnsConfig::defaults();
    for (auto& profile : okDns.africa) {
        profile = dns::ResolverProfile{0.6, 0.1, 0.2, 0.05, 0.05};
    }
    localized.dnsOverride = okDns;
    localized.contentOverride = content::ContentConfig::defaults();
    localized.linkMapOverride = phys::LinkMapConfig{};
    EXPECT_TRUE(localized.validate(substrate).hasValue());
}

} // namespace
} // namespace aio::sweep
