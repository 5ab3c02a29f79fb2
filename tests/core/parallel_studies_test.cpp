// Concurrency-facing coverage at the study/engine level: the detour and
// IXP-prevalence aggregates must be identical whatever thread count built
// the oracle, and a what-if cable-cut sweep must replay identically
// through a warm scenario cache (with the expected hit/miss accounting).

#include <gtest/gtest.h>

#include <vector>

#include "core/studies.hpp"
#include "exec/worker_pool.hpp"
#include "routing/oracle_cache.hpp"
#include "routing/path_oracle.hpp"
#include "topo/generator.hpp"
#include "whatif_reference.hpp"

namespace aio::core {
namespace {

const topo::Topology& sharedTopology() {
    static const topo::Topology topo =
        topo::TopologyGenerator{topo::GeneratorConfig::defaults()}
            .generate();
    return topo;
}

void expectSameDetourReport(const DetourReport& a, const DetourReport& b) {
    EXPECT_EQ(a.totalPairs, b.totalPairs);
    EXPECT_EQ(a.overallDetourShare, b.overallDetourShare);
    ASSERT_EQ(a.byRegion.size(), b.byRegion.size());
    for (std::size_t i = 0; i < a.byRegion.size(); ++i) {
        EXPECT_EQ(a.byRegion[i].region, b.byRegion[i].region);
        EXPECT_EQ(a.byRegion[i].pairs, b.byRegion[i].pairs);
        EXPECT_EQ(a.byRegion[i].detourShare, b.byRegion[i].detourShare);
    }
    EXPECT_EQ(a.attribution, b.attribution);
}

void expectSameIxpReport(const IxpPrevalenceReport& a,
                         const IxpPrevalenceReport& b) {
    EXPECT_EQ(a.overallShare, b.overallShare);
    ASSERT_EQ(a.byRegion.size(), b.byRegion.size());
    for (std::size_t i = 0; i < a.byRegion.size(); ++i) {
        EXPECT_EQ(a.byRegion[i].region, b.byRegion[i].region);
        EXPECT_EQ(a.byRegion[i].pairs, b.byRegion[i].pairs);
        EXPECT_EQ(a.byRegion[i].ixpShare, b.byRegion[i].ixpShare);
    }
}

TEST(ParallelStudies, AggregatesInvariantUnderThreadCount) {
    const topo::Topology& topo = sharedTopology();
    const route::PathOracle reference{topo}; // sequential baseline

    for (const int threads : {1, 2, 8}) {
        exec::WorkerPool pool{threads};
        const route::PathOracle oracle{topo, route::LinkFilter{}, pool};
        const ConnectivityStudies refStudies{topo, reference};
        const ConnectivityStudies parStudies{topo, oracle};

        for (const std::uint64_t seed : {1ULL, 5ULL, 9ULL}) {
            net::Rng refRng{seed};
            net::Rng parRng{seed};
            expectSameDetourReport(refStudies.detourStudy(1500, refRng),
                                   parStudies.detourStudy(1500, parRng));

            net::Rng refRng2{seed + 100};
            net::Rng parRng2{seed + 100};
            expectSameIxpReport(refStudies.ixpPrevalence(300, refRng2),
                                parStudies.ixpPrevalence(300, parRng2));
        }
    }
}

// ---- what-if scenario cache: golden seed-replay ----

/// Default layers at the default seed (99).
Substrate defaultSubstrate(const topo::Topology& topo,
                           Substrate::Options options = {}) {
    return Substrate{topo, phys::CableRegistry::africanDefaults(),
                     dns::DnsConfig::defaults(),
                     content::ContentConfig::defaults(), options};
}

Substrate::Options cachedOptions(route::OracleCache& cache,
                                 exec::WorkerPool& pool) {
    Substrate::Options options;
    options.oracleCache = &cache;
    options.pool = &pool;
    return options;
}

void expectSameImpactReport(const outage::ImpactReport& a,
                            const outage::ImpactReport& b) {
    ASSERT_EQ(a.countries.size(), b.countries.size());
    for (std::size_t i = 0; i < a.countries.size(); ++i) {
        EXPECT_EQ(a.countries[i].country, b.countries[i].country);
        EXPECT_EQ(a.countries[i].pageLoadLoss, b.countries[i].pageLoadLoss);
        EXPECT_EQ(a.countries[i].dnsFailureShare,
                  b.countries[i].dnsFailureShare);
        EXPECT_EQ(a.countries[i].effectiveOutageDays,
                  b.countries[i].effectiveOutageDays);
    }
    EXPECT_EQ(a.resolutionDays(), b.resolutionDays());
}

TEST(WhatIfScenarioCache, ColdAndWarmSweepsReplayIdentically) {
    const topo::Topology& topo = sharedTopology();
    exec::WorkerPool pool;
    route::OracleCache cache{topo, 16, &pool};

    const Substrate cached =
        defaultSubstrate(topo, cachedOptions(cache, pool));
    // Substrate construction fetches the no-failure baseline through the
    // cache: exactly one miss so far.
    EXPECT_EQ(cache.stats().misses, 1U);
    EXPECT_EQ(cache.stats().hits, 0U);

    const std::vector<std::vector<std::string>> sweep = {
        {"WACS"},
        {"WACS", "MainOne"},
        {"WACS", "MainOne", "SAT-3", "ACE"},
        {"SEACOM"},
    };

    const auto runSweep = [&] {
        std::vector<outage::ImpactReport> reports;
        for (const auto& cut : sweep) {
            reports.push_back(reference::assess(
                cached, reference::cutEvent(cached, cut)));
        }
        return reports;
    };

    cache.resetStats();
    const auto cold = runSweep();
    EXPECT_EQ(cache.stats().misses, sweep.size());
    EXPECT_EQ(cache.stats().hits, 0U);

    cache.resetStats();
    const auto warm = runSweep();
    EXPECT_EQ(cache.stats().hits, sweep.size());
    EXPECT_EQ(cache.stats().misses, 0U);
    EXPECT_EQ(cache.stats().evictions, 0U);

    // A cacheless substrate is the golden reference: cold, warm and
    // uncached assessments must agree to the bit (same seeds, same
    // routing states).
    const Substrate plain = defaultSubstrate(topo);
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const auto golden = reference::assess(
            plain, reference::cutEvent(plain, sweep[i]));
        expectSameImpactReport(golden, cold[i]);
        expectSameImpactReport(golden, warm[i]);
    }
}

TEST(WhatIfScenarioCache, ScenarioEnginesShareTheCache) {
    const topo::Topology& topo = sharedTopology();
    exec::WorkerPool pool;
    route::OracleCache cache{topo, 16, &pool};

    const Substrate baseline =
        defaultSubstrate(topo, cachedOptions(cache, pool));
    // A DNS-policy overlay shares topology and cable plant, so its cut
    // events produce the same link filters: its assessments ride the
    // baseline substrate's cached oracles.
    ScenarioSpec dnsPolicy;
    dnsPolicy.dnsOverride = dns::DnsConfig::defaults();
    const Substrate localized = reference::overlaid(baseline, dnsPolicy);

    const std::vector<std::string> cut = {"WACS", "MainOne"};
    (void)reference::assess(baseline, reference::cutEvent(baseline, cut));
    cache.resetStats();
    (void)reference::assess(localized, reference::cutEvent(localized, cut));
    EXPECT_EQ(cache.stats().hits, 1U);
    EXPECT_EQ(cache.stats().misses, 0U);
}

} // namespace
} // namespace aio::core
