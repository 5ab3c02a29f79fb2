#include "resilience/fault.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "netbase/error.hpp"
#include "topo/generator.hpp"

namespace aio::resilience {
namespace {

core::Probe makeProbe(const std::string& id, const std::string& country,
                      double availability) {
    core::Probe probe;
    probe.id = id;
    probe.countryCode = country;
    probe.availability = availability;
    probe.pricing.kind = core::PricingModel::Kind::FlatPerMb;
    probe.pricing.perMbUsd = 0.01;
    probe.monthlyBudgetUsd = 1.0;
    return probe;
}

core::ProbeFleet smallFleet(std::size_t count, double availability = 0.8) {
    core::ProbeFleet fleet;
    for (std::size_t i = 0; i < count; ++i) {
        fleet.add(makeProbe("p" + std::to_string(i), "RW", availability));
    }
    return fleet;
}

bool sameWindows(const FaultPlan& a, const FaultPlan& b) {
    if (a.probeCount() != b.probeCount()) {
        return false;
    }
    for (std::size_t p = 0; p < a.probeCount(); ++p) {
        const auto& wa = a.windowsFor(p);
        const auto& wb = b.windowsFor(p);
        if (wa.size() != wb.size()) {
            return false;
        }
        for (std::size_t i = 0; i < wa.size(); ++i) {
            if (wa[i].cls != wb[i].cls ||
                wa[i].startHour != wb[i].startHour ||
                wa[i].endHour != wb[i].endHour) {
                return false;
            }
        }
    }
    return true;
}

TEST(FaultPlan, GenerationIsDeterministicForAFixedSeed) {
    const auto fleet = smallFleet(40);
    FaultPlanConfig config;
    net::Rng rngA{99};
    net::Rng rngB{99};
    const auto planA = FaultPlan::generate(fleet, config, rngA);
    const auto planB = FaultPlan::generate(fleet, config, rngB);
    EXPECT_TRUE(sameWindows(planA, planB));
    EXPECT_GT(planA.windowCount(), 0U);
}

TEST(FaultPlan, ZeroIntensityYieldsNoFaults) {
    const auto fleet = smallFleet(40);
    FaultPlanConfig config;
    config.intensity = 0.0;
    net::Rng rng{7};
    const auto plan = FaultPlan::generate(fleet, config, rng);
    EXPECT_TRUE(plan.empty());
}

TEST(FaultPlan, HigherIntensityInjectsMoreDowntime) {
    const auto fleet = smallFleet(60);
    FaultPlanConfig mild;
    mild.intensity = 0.5;
    FaultPlanConfig harsh;
    harsh.intensity = 4.0;
    net::Rng rngA{11};
    net::Rng rngB{11};
    const auto few = FaultPlan::generate(fleet, mild, rngA);
    const auto many = FaultPlan::generate(fleet, harsh, rngB);
    EXPECT_GT(many.windowCount(), few.windowCount());
}

TEST(FaultPlan, PerfectAvailabilityProbesGetNoPowerFaults) {
    const auto fleet = smallFleet(30, 1.0);
    FaultPlanConfig config;
    config.permanentFailureProb = 0.0;
    net::Rng rng{5};
    const auto plan = FaultPlan::generate(fleet, config, rng);
    EXPECT_TRUE(plan.empty());
}

TEST(FaultPlan, RejectsDegenerateWindows) {
    auto plan = FaultPlan::none(2);
    EXPECT_THROW(plan.addWindow(5, {FaultClass::PowerLoss, 0.0, 1.0}),
                 net::PreconditionError);
    EXPECT_THROW(plan.addWindow(0, {FaultClass::PowerLoss, 2.0, 2.0}),
                 net::PreconditionError);
    plan.addWindow(0, {FaultClass::PowerLoss, 0.0, 1.0});
    EXPECT_EQ(plan.windowCount(), 1U);
}

TEST(FaultInjector, StatusFollowsWindows) {
    const auto fleet = smallFleet(2);
    auto plan = FaultPlan::none(2);
    plan.addWindow(0, {FaultClass::PowerLoss, 2.0, 4.0});
    plan.addWindow(0, {FaultClass::TransitLoss, 6.0, 8.0});
    plan.addWindow(1, {FaultClass::PermanentFailure, 3.0, kNeverEnds});
    const FaultInjector injector{fleet, plan};

    EXPECT_EQ(injector.statusAt(0, 1.0), ProbeStatus::Up);
    EXPECT_EQ(injector.statusAt(0, 3.0), ProbeStatus::PowerDown);
    EXPECT_EQ(injector.statusAt(0, 5.0), ProbeStatus::Up);
    EXPECT_EQ(injector.statusAt(0, 7.0), ProbeStatus::TransitDown);
    EXPECT_EQ(injector.statusAt(1, 2.9), ProbeStatus::Up);
    EXPECT_EQ(injector.statusAt(1, 3.0), ProbeStatus::Dead);
    EXPECT_EQ(injector.statusAt(1, 1000.0), ProbeStatus::Dead);
}

TEST(FaultInjector, RequireUpClassifiesTransientVsPermanent) {
    const auto fleet = smallFleet(2);
    auto plan = FaultPlan::none(2);
    plan.addWindow(0, {FaultClass::PowerLoss, 0.0, 10.0});
    plan.addWindow(1, {FaultClass::PermanentFailure, 0.0, kNeverEnds});
    const FaultInjector injector{fleet, plan};
    EXPECT_THROW(injector.requireUp(0, 5.0), net::TransientError);
    EXPECT_NO_THROW(injector.requireUp(0, 11.0));
    EXPECT_THROW(injector.requireUp(1, 5.0), net::PreconditionError);
}

TEST(FaultInjector, BundleExhaustionIsStickyAndMetered) {
    core::ProbeFleet fleet;
    fleet.add(makeProbe("p0", "RW", 1.0)); // $1 at $0.01/MB = 100 MB
    FaultInjector injector{fleet, FaultPlan::none(1)};

    EXPECT_TRUE(injector.chargeTask(0, 60.0, false));
    EXPECT_EQ(injector.statusAt(0, 0.0), ProbeStatus::Up);
    // 60 + 60 MB would cost $1.20 > $1: the SIM runs dry.
    EXPECT_FALSE(injector.chargeTask(0, 60.0, false));
    EXPECT_EQ(injector.statusAt(0, 0.0), ProbeStatus::BundleDry);
    // Sticky: even a tiny charge is refused afterwards.
    EXPECT_FALSE(injector.chargeTask(0, 0.001, false));
    EXPECT_DOUBLE_EQ(injector.spentUsd(0), 0.6);
    EXPECT_EQ(injector.exhaustedCount(), 1);
}

TEST(FaultInjector, BudgetFractionScalesTheCampaignBudget) {
    core::ProbeFleet fleet;
    fleet.add(makeProbe("p0", "RW", 1.0));
    const auto plan = FaultPlan::none(1);
    FaultInjector injector{fleet, plan, 0.1}; // $0.10 => 10 MB
    EXPECT_FALSE(injector.chargeTask(0, 20.0, false));
    FaultInjector fullInjector{fleet, plan, 1.0};
    EXPECT_TRUE(fullInjector.chargeTask(0, 20.0, false));
}

TEST(FaultPlan, OutageOverlayHitsProbesInAffectedCountries) {
    const auto topo =
        topo::TopologyGenerator{topo::GeneratorConfig::defaults()}
            .generate();
    const auto registry = phys::CableRegistry::africanDefaults();
    net::Rng mapRng{3};
    const phys::PhysicalLinkMap linkMap{topo, registry, mapRng};
    core::ProbeFleet fleet;
    fleet.add(makeProbe("rw", "RW", 1.0));
    fleet.add(makeProbe("ke", "KE", 1.0));

    outage::OutageEvent blackout;
    blackout.type = outage::OutageType::PowerOutage;
    blackout.startDay = 0.5;
    blackout.durationDays = 1.0;
    blackout.countries = {"KE"};
    EXPECT_TRUE(blackout.activeAtDay(1.0));
    EXPECT_FALSE(blackout.activeAtDay(2.0));

    auto plan = FaultPlan::none(2);
    plan.overlayOutages(std::vector{blackout}, fleet, linkMap,
                        FaultPlanConfig{});
    EXPECT_TRUE(plan.windowsFor(0).empty());
    ASSERT_EQ(plan.windowsFor(1).size(), 1U);
    const FaultWindow& window = plan.windowsFor(1).front();
    EXPECT_EQ(window.cls, FaultClass::PowerLoss);
    EXPECT_DOUBLE_EQ(window.startHour, 12.0);
    EXPECT_DOUBLE_EQ(window.endHour, 36.0);
}

TEST(FaultPlan, EventsOutsideTheCampaignWindowAreIgnored) {
    const auto topo =
        topo::TopologyGenerator{topo::GeneratorConfig::defaults()}
            .generate();
    const auto registry = phys::CableRegistry::africanDefaults();
    net::Rng mapRng{3};
    const phys::PhysicalLinkMap linkMap{topo, registry, mapRng};
    core::ProbeFleet fleet;
    fleet.add(makeProbe("ke", "KE", 1.0));

    outage::OutageEvent late;
    late.type = outage::OutageType::GovernmentShutdown;
    late.startDay = 30.0; // way past a 72-hour campaign starting at day 0
    late.durationDays = 3.0;
    late.countries = {"KE"};
    auto plan = FaultPlan::none(1);
    plan.overlayOutages(std::vector{late}, fleet, linkMap,
                        FaultPlanConfig{});
    EXPECT_TRUE(plan.empty());
}

TEST(FaultTaxonomy, OutageTypesMapToFaultClasses) {
    // The shared outage -> fault bridge the scenario catalog's phase
    // specs and the campaign overlay both use: power events take probes
    // down as PowerLoss, every connectivity-class event as TransitLoss.
    EXPECT_EQ(faultClassFor(outage::OutageType::PowerOutage),
              FaultClass::PowerLoss);
    EXPECT_EQ(faultClassFor(outage::OutageType::CableCut),
              FaultClass::TransitLoss);
    EXPECT_EQ(faultClassFor(outage::OutageType::GovernmentShutdown),
              FaultClass::TransitLoss);
    EXPECT_EQ(faultClassFor(outage::OutageType::RoutingIncident),
              FaultClass::TransitLoss);
}

TEST(FaultPlan, CableCutOverlayOnlyProducesTransitLoss) {
    const auto topo =
        topo::TopologyGenerator{topo::GeneratorConfig::defaults()}
            .generate();
    const auto registry = phys::CableRegistry::africanDefaults();
    net::Rng mapRng{3};
    const phys::PhysicalLinkMap linkMap{topo, registry, mapRng};
    net::Rng fleetRng{4};
    const auto fleet = core::ProbeFleet::observatory(topo, fleetRng);

    // Sever the entire cable plant: the worst possible corridor event.
    outage::OutageEvent cut;
    cut.type = outage::OutageType::CableCut;
    cut.startDay = 0.0;
    cut.durationDays = 21.0;
    for (phys::CableId c = 0; c < registry.cableCount(); ++c) {
        cut.cutCables.push_back(c);
    }
    auto plan = FaultPlan::none(fleet.size());
    plan.overlayOutages(std::vector{cut}, fleet, linkMap,
                        FaultPlanConfig{});
    EXPECT_GT(plan.windowCount(), 0U);
    for (std::size_t p = 0; p < plan.probeCount(); ++p) {
        for (const FaultWindow& window : plan.windowsFor(p)) {
            EXPECT_EQ(window.cls, FaultClass::TransitLoss);
        }
    }
}

TEST(FaultInjector, MeterRestoreRoundTrips) {
    const auto fleet = smallFleet(3);
    FaultInjector injector{fleet, FaultPlan::none(fleet.size())};
    EXPECT_TRUE(injector.chargeTask(0, 10.0, false));
    const auto states = injector.meterStates();
    FaultInjector fresh{fleet, FaultPlan::none(fleet.size())};
    fresh.restoreMeterStates(states);
    EXPECT_DOUBLE_EQ(fresh.spentUsd(0), injector.spentUsd(0));
}

TEST(FaultInjector, MeterRestoreRejectsNonFiniteAndNegativeVolumes) {
    const auto fleet = smallFleet(2);
    FaultInjector injector{fleet, FaultPlan::none(fleet.size())};
    auto states = injector.meterStates();
    states[0].peakMb = -1.0;
    EXPECT_THROW(injector.restoreMeterStates(states),
                 net::PreconditionError);
    states[0].peakMb = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(injector.restoreMeterStates(states),
                 net::PreconditionError);
}

TEST(FaultInjector, MeterRestoreRejectsConsumptionRewind) {
    const auto fleet = smallFleet(2);
    FaultInjector injector{fleet, FaultPlan::none(fleet.size())};
    EXPECT_TRUE(injector.chargeTask(0, 20.0, false));
    auto states = injector.meterStates();
    states[0].peakMb = 5.0; // snapshot from an earlier point in time
    EXPECT_THROW(injector.restoreMeterStates(states),
                 net::PreconditionError);
    // The refused restore must leave the meter untouched.
    EXPECT_DOUBLE_EQ(injector.spentUsd(0), 0.2);
}

TEST(FaultInjector, MeterRestoreRejectsClearingStickyExhaustion) {
    const auto fleet = smallFleet(1); // $1 budget, $0.01/MB
    FaultInjector injector{fleet, FaultPlan::none(fleet.size())};
    EXPECT_FALSE(injector.chargeTask(0, 500.0, false)); // goes dry
    ASSERT_EQ(injector.exhaustedCount(), 1);
    auto states = injector.meterStates();
    states[0].exhausted = false;
    EXPECT_THROW(injector.restoreMeterStates(states),
                 net::PreconditionError);
    EXPECT_EQ(injector.exhaustedCount(), 1);
}

TEST(StreamFaultConfig, ValidateRejectsBadKnobs) {
    StreamFaultConfig config;
    EXPECT_NO_THROW(config.validate());
    config.dropProb = 1.5;
    EXPECT_THROW(config.validate(), net::PreconditionError);
    config = StreamFaultConfig{};
    config.maxSkewDays = -0.1;
    EXPECT_THROW(config.validate(), net::PreconditionError);
    config = StreamFaultConfig{};
    config.churnReconnects = -1;
    EXPECT_THROW(config.validate(), net::PreconditionError);
}

TEST(StreamFaultInjector, ScheduleIsDeterministicForAFixedSeed) {
    StreamFaultConfig config;
    config.dropProb = 0.1;
    config.duplicateProb = 0.1;
    config.reorderProb = 0.1;
    config.churnBurstProb = 0.5;
    const std::vector<std::uint64_t> probes{0, 1, 2, 3, 4, 5, 6, 7};
    net::Rng rngA{21};
    net::Rng rngB{21};
    const StreamFaultInjector a{config, probes, 30.0, rngA};
    const StreamFaultInjector b{config, probes, 30.0, rngB};
    EXPECT_EQ(a.reconnectCount(), b.reconnectCount());
    for (const std::uint64_t probe : probes) {
        const auto daysA = a.reconnectDaysFor(probe);
        const auto daysB = b.reconnectDaysFor(probe);
        ASSERT_EQ(daysA.size(), daysB.size());
        for (std::size_t i = 0; i < daysA.size(); ++i) {
            EXPECT_DOUBLE_EQ(daysA[i], daysB[i]);
        }
    }
    for (int i = 0; i < 100; ++i) {
        const auto fateA = a.fateFor(rngA);
        const auto fateB = b.fateFor(rngB);
        EXPECT_EQ(fateA.dropped, fateB.dropped);
        EXPECT_EQ(fateA.duplicate, fateB.duplicate);
        EXPECT_DOUBLE_EQ(fateA.delayDays, fateB.delayDays);
    }
}

TEST(StreamFaultInjector, SessionAdvancesAcrossReconnects) {
    StreamFaultConfig config;
    config.churnBurstProb = 1.0;
    config.churnReconnects = 3;
    const std::vector<std::uint64_t> probes{7};
    net::Rng rng{5};
    const StreamFaultInjector injector{config, probes, 30.0, rng};
    const auto days = injector.reconnectDaysFor(7);
    ASSERT_EQ(days.size(), 3U);
    EXPECT_EQ(injector.sessionAt(7, 0.0), 0U);
    EXPECT_EQ(injector.sessionAt(7, 30.0), 3U);
    EXPECT_EQ(injector.sessionAt(7, days[0]), 1U);
}

TEST(StreamFaultInjector, SkewBoundIsRespected) {
    StreamFaultConfig config;
    config.dropProb = 0.3;
    config.reorderProb = 0.3;
    config.duplicateProb = 0.3;
    config.maxSkewDays = 0.5;
    const std::vector<std::uint64_t> probes{0};
    net::Rng rng{11};
    const StreamFaultInjector injector{config, probes, 30.0, rng};
    for (int i = 0; i < 500; ++i) {
        const auto fate = injector.fateFor(rng);
        if (!fate.late) {
            EXPECT_LE(fate.delayDays, config.maxSkewDays);
        }
        EXPECT_LE(fate.duplicateDelayDays, config.maxSkewDays);
    }
}

TEST(StreamFaultInjector, UnknownProbeIsRefused) {
    const std::vector<std::uint64_t> probes{1};
    net::Rng rng{3};
    const StreamFaultInjector injector{StreamFaultConfig{}, probes, 10.0,
                                       rng};
    EXPECT_THROW((void)injector.reconnectDaysFor(99),
                 net::PreconditionError);
}

} // namespace
} // namespace aio::resilience
