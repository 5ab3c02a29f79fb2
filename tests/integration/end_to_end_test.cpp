// Integration tests: whole-stack scenarios that exercise the generation,
// routing, physical, measurement, dependency and observatory layers
// together — the pipelines the bench harness runs, with invariants
// asserted at each joint.

#include <gtest/gtest.h>

#include <set>

#include "core/observatory.hpp"
#include "core/setcover.hpp"
#include "core/studies.hpp"
#include "../core/whatif_reference.hpp"
#include "measure/scanner.hpp"
#include "outage/radar.hpp"
#include "routing/path_oracle.hpp"
#include "topo/generator.hpp"

namespace aio {
namespace {

struct World {
    topo::Topology topo;
    route::PathOracle oracle;
    measure::TracerouteEngine engine;
    phys::CableRegistry registry;
    net::Rng mapRng;
    phys::PhysicalLinkMap linkMap;
    dns::ResolverEcosystem resolvers;
    content::ContentCatalog catalog;
    outage::ImpactAnalyzer analyzer;

    World()
        : topo(topo::TopologyGenerator{topo::GeneratorConfig::defaults()}
                   .generate()),
          oracle(topo), engine(topo, oracle),
          registry(phys::CableRegistry::africanDefaults()), mapRng(5),
          linkMap(topo, registry, mapRng),
          resolvers(topo, dns::DnsConfig::defaults(), 31),
          catalog(topo, content::ContentConfig::defaults(), 47),
          analyzer(topo, linkMap, resolvers, catalog) {}
};

World& world() {
    static World w;
    return w;
}

TEST(EndToEnd, March2024CutPropagatesThroughEveryLayer) {
    auto& w = world();
    // Physical: the event fails subsea links.
    outage::OutageEvent event;
    event.type = outage::OutageType::CableCut;
    event.macroRegion = net::MacroRegion::Africa;
    event.durationDays = 21.0;
    for (const auto name : {"WACS", "MainOne", "SAT-3", "ACE"}) {
        event.cutCables.push_back(w.registry.byName(name));
    }
    net::Rng rng{1};
    const auto filter = w.analyzer.filterFor(event, rng);
    EXPECT_GT(filter.disabledLinkCount(), 20U);

    // Routing: reachability shrinks but never violates valley-freeness.
    const route::PathOracle degraded{w.topo, filter};
    int lost = 0;
    const auto african = w.topo.africanAses();
    for (std::size_t i = 0; i < african.size(); i += 5) {
        for (std::size_t j = 2; j < african.size(); j += 37) {
            const bool before = w.oracle.reachable(african[i], african[j]);
            const bool after = degraded.reachable(african[i], african[j]);
            EXPECT_TRUE(before || !after) << "reachability appeared";
            lost += (before && !after) ? 1 : 0;
        }
    }
    EXPECT_GT(lost, 0);

    // Dependencies: page loads fail where DNS or content went dark.
    const auto report = w.analyzer.assess(event, rng);
    EXPECT_GE(report.impactedCountries().size(), 5U);

    // Detection: Radar recovers the event for a hard-hit country.
    const outage::RadarMonitor radar{w.topo};
    std::string hardest;
    double worst = 0.0;
    for (const auto& impact : report.countries) {
        if (impact.pageLoadLoss > worst &&
            impact.effectiveOutageDays > 1.0) {
            worst = impact.pageLoadLoss;
            hardest = impact.country;
        }
    }
    ASSERT_FALSE(hardest.empty());
    const auto series = radar.seriesFor(hardest, 60.0, {report}, rng);
    EXPECT_FALSE(radar.detect(series).empty());
}

TEST(EndToEnd, ObservatoryCampaignConsistentWithSetCover) {
    auto& w = world();
    // Set-cover says these ASNs see every IXP; a campaign launched from
    // probes in exactly those ASes should detect most of them.
    const core::VantageSelector selector{w.topo};
    const auto cover = selector.minimalIxpCover();
    ASSERT_TRUE(cover.complete);

    core::ProbeFleet fleet;
    int serial = 0;
    for (const auto as : cover.chosenAses) {
        core::Probe probe;
        probe.id = "cover-" + std::to_string(++serial);
        probe.hostAs = as;
        probe.countryCode = w.topo.as(as).countryCode;
        probe.availability = 1.0;
        fleet.add(std::move(probe));
    }
    const measure::IxpDetector detector{
        w.topo, measure::IxpKnowledgeBase::full(w.topo)};
    const core::Observatory obs{w.topo, w.engine, detector,
                                std::move(fleet)};
    net::Rng rng{2};
    const auto result = obs.runIxpDiscovery(rng);
    // Probing customers of members from member ASes crosses most fabrics.
    EXPECT_GT(result.africanIxpCount(w.topo), 50U);
}

TEST(EndToEnd, ScannerIxpGapExplainedByBgpAbsence) {
    auto& w = world();
    // The CAIDA-style hitlist can only ever see advertised LANs: its IXP
    // coverage is bounded by the advertised share — the §6.1 root cause.
    net::Rng rng{3};
    const measure::ResponsivenessModel model{
        w.topo, measure::ResponsivenessConfig{}, 77};
    const measure::HitlistBuilder builder{w.topo, model};
    const measure::PingScanner ping{w.topo, model};
    const auto caida = builder.buildCaidaStyle(rng);
    const auto outcome = ping.scan(caida);

    std::size_t advertised = 0;
    for (const auto ix : w.topo.africanIxps()) {
        advertised += w.topo.ixp(ix).lanInGlobalTable ? 1 : 0;
    }
    std::size_t observedAfrican = 0;
    for (const auto ix : outcome.observedIxps) {
        EXPECT_TRUE(w.topo.ixp(ix).lanInGlobalTable);
        observedAfrican += net::isAfrican(w.topo.ixp(ix).region) ? 1 : 0;
    }
    EXPECT_LE(observedAfrican, advertised);
}

core::Substrate defaultSubstrate(const World& w) {
    return core::Substrate{w.topo, w.registry, dns::DnsConfig::defaults(),
                           content::ContentConfig::defaults()};
}

TEST(EndToEnd, WhatIfPipelineIsDeterministic) {
    auto& w = world();
    const core::Substrate substrateA = defaultSubstrate(w);
    const core::Substrate substrateB = defaultSubstrate(w);
    namespace ref = core::reference;
    const std::vector<std::string> cut = {"SEACOM", "EASSy"};
    const auto ra = ref::assess(substrateA, ref::cutEvent(substrateA, cut));
    const auto rb = ref::assess(substrateB, ref::cutEvent(substrateB, cut));
    ASSERT_EQ(ra.countries.size(), rb.countries.size());
    for (std::size_t i = 0; i < ra.countries.size(); ++i) {
        EXPECT_EQ(ra.countries[i].country, rb.countries[i].country);
        EXPECT_DOUBLE_EQ(ra.countries[i].pageLoadLoss,
                         rb.countries[i].pageLoadLoss);
        EXPECT_DOUBLE_EQ(ra.countries[i].effectiveOutageDays,
                         rb.countries[i].effectiveOutageDays);
    }
}

TEST(EndToEnd, EastCoastCutHitsEasternAfrica) {
    auto& w = world();
    const core::Substrate substrate = defaultSubstrate(w);
    namespace ref = core::reference;
    const auto report = ref::assess(
        substrate, ref::cutEvent(substrate, {"SEACOM", "EASSy", "EIG",
                                             "AAE-1", "DARE1"}));
    std::set<net::Region> hitRegions;
    for (const auto& country : report.impactedCountries()) {
        hitRegions.insert(
            net::CountryTable::world().byCode(country).region);
    }
    EXPECT_TRUE(hitRegions.contains(net::Region::EasternAfrica));
    // The west-coast cut and east-coast cut hit different sets.
    const auto westReport = ref::assess(
        substrate,
        ref::cutEvent(substrate, {"WACS", "MainOne", "SAT-3", "ACE"}));
    const auto westImpacted = westReport.impactedCountries();
    const auto eastImpacted = report.impactedCountries();
    const std::set<std::string> west(westImpacted.begin(),
                                     westImpacted.end());
    const std::set<std::string> east(eastImpacted.begin(),
                                     eastImpacted.end());
    EXPECT_NE(west, east);
}

TEST(EndToEnd, FullRadarPipelineOverTwoYearWindow) {
    auto& w = world();
    outage::OutageConfig cfg;
    cfg.windowYears = 0.5; // keep the test fast
    const outage::OutageEngine engine{w.topo, w.registry, cfg};
    net::Rng rng{4};
    const auto events = engine.generateWindow(rng);
    std::vector<outage::ImpactReport> impacts;
    for (const auto& event : events) {
        if (event.macroRegion == net::MacroRegion::Africa) {
            impacts.push_back(w.analyzer.assess(event, rng));
        }
    }
    ASSERT_FALSE(impacts.empty());
    const outage::RadarMonitor radar{w.topo};
    const auto detections =
        radar.detectAll(cfg.windowYears * 365.0, impacts, rng);
    // Every detection corresponds to a country that some event impacted.
    std::set<std::string> impactedCountries;
    for (const auto& report : impacts) {
        for (const auto& impact : report.countries) {
            if (impact.effectiveOutageDays > 0.0) {
                impactedCountries.insert(impact.country);
            }
        }
    }
    for (const auto& detection : detections) {
        EXPECT_TRUE(impactedCountries.contains(detection.country))
            << detection.country << " detected without ground truth";
    }
}

} // namespace
} // namespace aio
