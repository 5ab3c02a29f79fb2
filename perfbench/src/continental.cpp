// Workload "continental": trunk-cable what-ifs at continental scale. The
// world is GeneratorConfig::continental at kTargetAses African networks,
// routed under the sharded storage policy (8-destination granules, the
// tuning that avoids granule thrash). Each operation is one tenant asking
// what the cut of each trunk cable, one cable at a time, does to the
// continent: one scenario per trunk cable, swept as one batch through the
// sweep engine, cold, so it pays the lazy re-solve of every destination
// row the scoring touches. Single cuts differ in cost by far (some lose
// nothing at all), so every operation cuts every trunk cable and the
// operations' times are comparable with each other.
//
// A 50k-AS continent takes minutes per scenario on one core. At
// kTargetAses an operation takes well under a second, so a run holds a
// few dozen, enough for a steady low percentile on a shared host, while
// each still exercises the sharded derive, dirty classification and
// scoring path.

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "content/catalog.hpp"
#include "dns/resolver.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "phys/cable.hpp"
#include "sweep/scenario_sweep.hpp"
#include "topo/generator.hpp"

namespace perfbench {
namespace {

using namespace aio;

constexpr int kTargetAses = 500;
constexpr std::uint64_t kWorldSeed = 20250704;

const std::vector<std::string> kTrunkCables = {
    "WACS",  "MainOne", "SAT-3", "ACE",     "Glo-1",  "SEACOM",
    "EASSy", "EIG",     "AAE-1", "Equiano", "2Africa"};

struct World {
    std::unique_ptr<topo::Topology> topology;
    std::unique_ptr<core::Substrate> substrate;
};

core::Substrate::Options shardedOptions(obs::MetricsRegistry* metrics) {
    core::Substrate::Options options;
    options.metrics = metrics;
    options.impact.routeStorage = route::StoragePolicy::Sharded;
    options.impact.shardedRouting.shardDestinations = 8;
    return options;
}

World buildWorld(obs::MetricsRegistry* metrics) {
    World world;
    world.topology = std::make_unique<topo::Topology>(
        topo::TopologyGenerator{
            topo::GeneratorConfig::continental(kTargetAses, kWorldSeed)}
            .generate());
    world.substrate = std::make_unique<core::Substrate>(
        *world.topology, phys::CableRegistry::africanDefaults(),
        dns::DnsConfig::defaults(), content::ContentConfig::defaults(),
        shardedOptions(metrics));
    return world;
}

/// One operation: every trunk cable cut on its own, in a seeded order with
/// seeded repair tails.
std::vector<core::ScenarioSpec> trunkCuts(std::mt19937_64& rng) {
    std::vector<std::string> order = kTrunkCables;
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<core::ScenarioSpec> specs;
    for (const std::string& cable : order) {
        core::ScenarioSpec spec;
        spec.name = "trunk-cut-" + cable;
        spec.cutCables = {cable};
        spec.repairDays = 7.0 + static_cast<double>(rng() % 24);
        specs.push_back(std::move(spec));
    }
    return specs;
}

} // namespace

Report runContinental(const Options& options) {
    Report report;
    std::unique_ptr<obs::MetricsRegistry> metrics;
    if (options.trace) {
        metrics = std::make_unique<obs::MetricsRegistry>();
    }

    World world;
    const double setupSeconds = fastestSetupSeconds([&] {
        world = World{};
        world = buildWorld(metrics.get());
    });
    const sweep::ScenarioSweepEngine engine{*world.substrate};

    std::mt19937_64 rng{mixSeed(options.seed, 0xc0)};
    std::vector<double> operationMs;
    std::uint64_t dirty = 0;
    std::uint64_t builds = 0;
    bool anyLoss = false;
    // The first operation, re-checked below.
    std::vector<core::ScenarioSpec> firstSpecs;
    sweep::SweepResult firstResult;
    const auto build0 = histogramTotals(metrics.get(), "sweep.build_seconds");
    const auto score0 =
        histogramTotals(metrics.get(), "sweep.scenario_seconds");
    double elapsed = 0.0;
    while (elapsed < options.seconds) {
        const std::vector<core::ScenarioSpec> specs = trunkCuts(rng);
        const auto start = Clock::now();
        sweep::SweepResult result = engine.run(specs);
        const auto done = Clock::now();
        elapsed += std::chrono::duration<double>(done - start).count();

        ++report.attempted;
        bool ok = true;
        for (const sweep::ScenarioResult& scenario : result.scenarios) {
            if (!scenario.outcome) {
                ok = false;
                report.problems.push_back("scenario " + scenario.scenario +
                                          " failed: " +
                                          scenario.outcome.error().message);
                continue;
            }
            anyLoss = anyLoss || !scenario.outcome.value().countries.empty();
        }
        if (!ok) {
            ++report.failed;
            continue;
        }
        dirty += result.stats.dirtyDestinations;
        builds += result.stats.incrementalBuilds;
        operationMs.push_back(
            std::chrono::duration<double, std::milli>(done - start).count());
        if (firstSpecs.empty()) {
            firstSpecs = specs;
            firstResult = std::move(result);
        }
    }

    report.metrics["latency_p10_ms"] = percentile(operationMs, 10);
    report.metrics["peak_rss_mb"] = peakRssMb();
    report.metrics["setup_s"] = setupSeconds;

    if (metrics) {
        report.metrics["oracle_builds"] =
            static_cast<double>(builds) /
            static_cast<double>(report.attempted);
        report.metrics["oracle_build_ms"] =
            histogramTotals(metrics.get(), "sweep.build_seconds")
                .meanSince(build0, 1e3);
        report.metrics["scoring_ms"] =
            histogramTotals(metrics.get(), "sweep.scenario_seconds")
                .meanSince(score0, 1e3);
        report.metrics["dirty_destinations"] =
            builds == 0 ? 0.0
                        : static_cast<double>(dirty) /
                              static_cast<double>(builds);
    }

    // --- output checks -------------------------------------------------
    // A trunk cut reaches somebody: at least one scenario lost traffic.
    // And every scenario of the first operation, recomputed from scratch
    // (full sharded builds, no incremental derive), scores identically.
    report.require(anyLoss, "no trunk cut caused any loss");
    if (!firstSpecs.empty()) {
        sweep::SweepOptions full;
        full.mode = sweep::RecomputeMode::Full;
        const sweep::SweepResult again =
            sweep::ScenarioSweepEngine{*world.substrate, full}.run(firstSpecs);
        for (std::size_t i = 0; i < firstSpecs.size(); ++i) {
            const auto& expected = firstResult.scenarios[i].outcome;
            const auto& actual = again.scenarios[i].outcome;
            report.require(expected && actual && *expected == *actual,
                           "scenario " + firstSpecs[i].name +
                               " differs from a full recompute");
        }
    }

    return report;
}

} // namespace perfbench
