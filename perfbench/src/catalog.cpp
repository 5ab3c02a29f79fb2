// Workload "catalog": a scenario catalog, shipped as text, swept end to
// end. Each operation is one catalog job: parse the text, compile the
// templates against the substrate, sweep the weighted batch across the
// worker pool and fold the importance-weighted aggregate. Every job is
// cold (no oracle cache), so it pays the dedupe, the incremental derive of
// each unique routing state and the scoring of every scenario.
//
// A job's catalog holds the March 2024 cascade and its phased repair, plus
// a Monte-Carlo block of kSampled correlated-corridor draws (the
// correlation bench_perf_micro's catalog rows use). Every job of every run
// ships the same damage, so every job derives the same unique routing
// states, multi-cable ones included. Multi-cable draws are rare: how many
// distinct ones a sampler stream makes would swing job cost between seeds
// by about a tenth, so the block comes from one fixed stream and the seed
// varies the timelines instead (phase days, repair spacing, the block's
// mean repair tail), which scoring reads and routing does not.

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "content/catalog.hpp"
#include "dns/resolver.hpp"
#include "exec/worker_pool.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "phys/cable.hpp"
#include "plan/textio.hpp"
#include "scenario/catalog.hpp"
#include "sweep/scenario_sweep.hpp"
#include "topo/generator.hpp"

namespace perfbench {
namespace {

using namespace aio;

constexpr int kPoolThreads = 2;
constexpr std::size_t kSampled = 500;
constexpr std::size_t kChecked = 8;
constexpr std::uint64_t kSamplerSeed = 2024;

struct World {
    std::unique_ptr<topo::Topology> topology;
    std::unique_ptr<core::Substrate> substrate;
};

/// The calibrated default structure at reduced density, so a job's unique
/// routing states derive in well under a second each.
topo::GeneratorConfig reducedConfig() {
    auto config = topo::GeneratorConfig::defaults();
    for (auto& profile : config.africa) {
        profile.asPerMillionPeople *= 0.2;
        profile.minAsesPerCountry = 1;
        profile.ixpCount = std::max(1, profile.ixpCount / 2);
    }
    config.europe.accessPerCountry = 2;
    config.northAmerica.accessPerCountry = 2;
    config.southAmerica.accessPerCountry = 2;
    config.asiaPacific.accessPerCountry = 2;
    return config;
}

World buildWorld(exec::WorkerPool& pool, obs::MetricsRegistry* metrics) {
    World world;
    world.topology = std::make_unique<topo::Topology>(
        topo::TopologyGenerator{reducedConfig()}.generate());
    core::Substrate::Options options;
    options.pool = &pool;
    options.metrics = metrics;
    world.substrate = std::make_unique<core::Substrate>(
        *world.topology, phys::CableRegistry::africanDefaults(),
        dns::DnsConfig::defaults(), content::ContentConfig::defaults(),
        options);
    return world;
}

/// The catalog text every job of a run ships.
std::string catalogText(std::uint64_t seed) {
    std::mt19937_64 rng{mixSeed(seed, 0x3c)};
    std::uniform_real_distribution<double> unit{0.0, 1.0};
    scenario::ScenarioCatalog catalog;

    scenario::CascadeTemplate march;
    march.name = "march-2024";
    scenario::PhaseSpec west;
    west.name = "west-cut";
    west.cutCables = {"WACS", "MainOne", "SAT-3", "ACE"};
    west.durationDays = 28.0 + 14.0 * unit(rng);
    march.phases.push_back(west);
    scenario::PhaseSpec grid;
    grid.name = "grid-collapse";
    grid.type = outage::OutageType::PowerOutage;
    grid.countries = {"NG", "GH"};
    grid.startDay = 1.0 + 3.0 * unit(rng);
    grid.durationDays = 1.0 + 2.0 * unit(rng);
    march.phases.push_back(grid);
    scenario::PhaseSpec east;
    east.name = "east-cut";
    east.cutCables = {"SEACOM"};
    // Inside the west cut's repair window, so the east phase always
    // carries the west cuts too.
    east.startDay = 4.0 + 6.0 * unit(rng);
    east.durationDays = 14.0 + 14.0 * unit(rng);
    march.phases.push_back(east);
    catalog.add(march);

    catalog.add(scenario::CascadeTemplate::phasedRecovery(
        "west-repair", {"WACS", "MainOne", "SAT-3", "ACE"},
        7.0 + 7.0 * unit(rng)));

    scenario::SampledTemplate sampled;
    sampled.name = "mc";
    sampled.config.seed = kSamplerSeed;
    sampled.config.count = kSampled;
    sampled.config.importanceBoost = 2.0;
    sampled.config.correlation.sameCorridorProb = 0.02;
    sampled.config.correlation.sharedLandingProb = 0.002;
    sampled.config.repairMeanDays = 14.0 + 14.0 * unit(rng);
    catalog.add(sampled);

    return plan::renderCatalog(catalog).valueOrRaise();
}

} // namespace

Report runCatalog(const Options& options) {
    Report report;
    std::unique_ptr<obs::MetricsRegistry> metrics;
    if (options.trace) {
        metrics = std::make_unique<obs::MetricsRegistry>();
    }
    exec::WorkerPool pool{kPoolThreads, metrics.get()};

    World world;
    const double setupSeconds = fastestSetupSeconds([&] {
        world = World{};
        world = buildWorld(pool, metrics.get());
    });
    const core::Substrate& substrate = *world.substrate;

    const sweep::ScenarioSweepEngine engine{substrate};
    std::vector<double> jobMs, parseMs, compileMs, builds, dedupRates;
    std::uint64_t dirty = 0;
    std::uint64_t buildCount = 0;
    const std::string text = catalogText(options.seed);
    // Job 0, re-checked below.
    std::optional<sweep::ScenarioBatch> firstBatch;
    sweep::SweepResult firstResult;

    const auto build0 = histogramTotals(metrics.get(), "sweep.build_seconds");
    const auto score0 =
        histogramTotals(metrics.get(), "sweep.scenario_seconds");
    const auto busy0 = counterValue(metrics.get(), "exec.pool.busy_nanos");
    const auto idle0 = counterValue(metrics.get(), "exec.pool.idle_nanos");

    double elapsed = 0.0;
    for (std::size_t job = 0; elapsed < options.seconds; ++job) {
        const auto start = Clock::now();
        auto parsed = plan::parseCatalog(text);
        const auto parsedAt = Clock::now();
        net::Expected<sweep::ScenarioBatch> batch =
            parsed ? parsed.value().compile(substrate)
                   : net::Expected<sweep::ScenarioBatch>{parsed.error()};
        const auto compiledAt = Clock::now();
        if (!batch) {
            ++report.attempted;
            ++report.failed;
            report.problems.push_back("catalog job failed: " +
                                      std::string{batch.error().message});
            elapsed += std::chrono::duration<double>(compiledAt - start).count();
            continue;
        }
        const sweep::BatchSweepResult result = engine.runBatch(*batch);
        const auto done = Clock::now();
        elapsed += std::chrono::duration<double>(done - start).count();

        const sweep::SweepStats& stats = result.sweep.stats;
        ++report.attempted;
        if (stats.errors != 0 || result.aggregate.scored != stats.scenarios) {
            ++report.failed;
            report.problems.push_back("catalog job had unscored scenarios");
        }
        dirty += stats.dirtyDestinations;
        buildCount += stats.incrementalBuilds;
        jobMs.push_back(
            std::chrono::duration<double, std::milli>(done - start).count());
        parseMs.push_back(
            std::chrono::duration<double, std::milli>(parsedAt - start)
                .count());
        compileMs.push_back(
            std::chrono::duration<double, std::milli>(compiledAt - parsedAt)
                .count());
        builds.push_back(static_cast<double>(stats.incrementalBuilds));
        dedupRates.push_back(static_cast<double>(stats.dedupHits) /
                             static_cast<double>(stats.scenarios));
        if (job == 0) {
            firstBatch = std::move(*batch);
            firstResult = result.sweep;
        }
    }

    report.metrics["latency_p10_ms"] = percentile(jobMs, 10);
    report.metrics["peak_rss_mb"] = peakRssMb();
    report.metrics["setup_s"] = setupSeconds;

    if (metrics) {
        const auto build1 =
            histogramTotals(metrics.get(), "sweep.build_seconds");
        const auto score1 =
            histogramTotals(metrics.get(), "sweep.scenario_seconds");
        const double busy = static_cast<double>(
            counterValue(metrics.get(), "exec.pool.busy_nanos") - busy0);
        const double idle = static_cast<double>(
            counterValue(metrics.get(), "exec.pool.idle_nanos") - idle0);
        report.metrics["catalog_parse_ms"] = median(parseMs);
        report.metrics["catalog_compile_ms"] = median(compileMs);
        report.metrics["oracle_builds"] = median(builds);
        report.metrics["oracle_build_ms"] = build1.meanSince(build0, 1e3);
        report.metrics["scoring_ms"] = score1.meanSince(score0, 1e3);
        report.metrics["dedup_hit_rate"] = median(dedupRates);
        report.metrics["dirty_destinations"] =
            buildCount == 0 ? 0.0
                            : static_cast<double>(dirty) /
                                  static_cast<double>(buildCount);
        report.metrics["pool_busy_share"] =
            busy + idle > 0 ? busy / (busy + idle) : 0.0;
    }

    // --- output checks -------------------------------------------------
    // The catalog text round-trips, and job 0's first kChecked scenarios
    // with distinct damage, recomputed one at a time from scratch (full
    // builds, no dedupe, no pool), score exactly as the pooled, deduped,
    // incremental sweep scored them.
    if (firstBatch) {
        const auto parsed = plan::parseCatalog(text).valueOrRaise();
        report.require(plan::renderCatalog(parsed).valueOrRaise() == text,
                       "catalog text does not round-trip");
        const core::Substrate reference{
            *world.topology, phys::CableRegistry::africanDefaults(),
            dns::DnsConfig::defaults(), content::ContentConfig::defaults()};
        sweep::SweepOptions full;
        full.mode = sweep::RecomputeMode::Full;
        const sweep::ScenarioSweepEngine fullEngine{reference, full};
        std::vector<std::size_t> picked;
        for (std::size_t i = 0;
             i < firstBatch->entries.size() && picked.size() < kChecked; ++i) {
            const core::ScenarioSpec& spec = firstBatch->entries[i].spec;
            const bool seen = std::any_of(
                picked.begin(), picked.end(), [&](std::size_t j) {
                    const core::ScenarioSpec& other =
                        firstBatch->entries[j].spec;
                    return other.cutCables == spec.cutCables &&
                           other.countries == spec.countries;
                });
            if (!seen) {
                picked.push_back(i);
            }
        }
        for (const std::size_t i : picked) {
            const auto again = fullEngine.run(std::span<const core::ScenarioSpec>{
                &firstBatch->entries[i].spec, 1});
            const auto& expected = firstResult.scenarios[i].outcome;
            const auto& actual = again.scenarios.front().outcome;
            report.require(expected && actual && *expected == *actual,
                           "scenario " + firstBatch->entries[i].spec.name +
                               " differs from a full recompute");
        }
    }
    return report;
}

} // namespace perfbench
