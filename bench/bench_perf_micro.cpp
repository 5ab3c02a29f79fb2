// Performance micro-benchmarks (google-benchmark) for the algorithmic
// cores: longest-prefix-match trie, Gao-Rexford route computation,
// traceroute simulation, greedy set cover, the budget scheduler and the
// campaign journal codec.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <span>
#include <unordered_set>

#include "core/budget.hpp"
#include "core/observatory.hpp"
#include "core/setcover.hpp"
#include "exec/worker_pool.hpp"
#include "measure/ixp_detect.hpp"
#include "measure/traceroute.hpp"
#include "netbase/crc32c.hpp"
#include "netbase/prefix_trie.hpp"
#include "netbase/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "persist/journal.hpp"
#include "resilience/supervisor.hpp"
#include "routing/oracle_cache.hpp"
#include "routing/path_oracle.hpp"
#include "routing/route_kernel.hpp"
#include "routing/sharded_oracle.hpp"
#include "scenario/catalog.hpp"
#include "plan/planner.hpp"
#include "service/service.hpp"
#include "stream/consumer.hpp"
#include "stream/ingestor.hpp"
#include "sweep/scenario_sweep.hpp"
#include "topo/generator.hpp"

namespace {

using namespace aio;

const topo::Topology& world() {
    static const topo::Topology topo =
        topo::TopologyGenerator{topo::GeneratorConfig::defaults()}.generate();
    return topo;
}

void BM_PrefixTrieLookup(benchmark::State& state) {
    net::Rng rng{1};
    net::PrefixTrie<int> trie;
    for (int i = 0; i < 10000; ++i) {
        trie.insert(net::Prefix{net::Ipv4Address{static_cast<std::uint32_t>(
                                    rng.next())},
                                static_cast<int>(rng.uniformRange(8, 24))},
                    i);
    }
    std::uint32_t probe = 1;
    for (auto _ : state) {
        probe = probe * 1664525U + 1013904223U;
        benchmark::DoNotOptimize(trie.lookup(net::Ipv4Address{probe}));
    }
}
BENCHMARK(BM_PrefixTrieLookup);

void BM_PathOracleConstruction(benchmark::State& state) {
    const auto& topo = world();
    for (auto _ : state) {
        const route::PathOracle oracle{topo};
        benchmark::DoNotOptimize(&oracle);
    }
    state.SetLabel(std::to_string(topo.asCount()) + " ASes, " +
                   std::to_string(topo.links().size()) + " links");
}
BENCHMARK(BM_PathOracleConstruction)->Unit(benchmark::kMillisecond);

// Build-scaling: the same all-pairs construction sharded across a worker
// pool. Compare against BM_PathOracleConstruction (the sequential
// reference) — the acceptance target is >=2x at 4 threads on multi-core
// hardware; output is byte-identical at every thread count.
void BM_PathOracleParallelBuild(benchmark::State& state) {
    const auto& topo = world();
    exec::WorkerPool pool{static_cast<int>(state.range(0))};
    for (auto _ : state) {
        const route::PathOracle oracle{topo, route::LinkFilter{}, pool};
        benchmark::DoNotOptimize(&oracle);
    }
    state.SetLabel(std::to_string(state.range(0)) + " threads, " +
                   std::to_string(topo.asCount()) + " ASes");
}
BENCHMARK(BM_PathOracleParallelBuild)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Failure-scenario sweep through the route cache: a rotating set of cut
// scenarios (far fewer than the sweep length), as cached what-if sweeps
// and the outage benches replay them. Steady-state iterations are all hits; the
// hit rate and eviction count are reported as counters.
void BM_OracleCacheFailureSweep(benchmark::State& state) {
    const auto& topo = world();
    exec::WorkerPool pool;
    route::OracleCache cache{topo, 16, &pool};

    // 8 deterministic cut scenarios of 3 links each.
    std::vector<route::LinkFilter> scenarios(8);
    net::Rng rng{41};
    for (auto& scenario : scenarios) {
        for (int cut = 0; cut < 3; ++cut) {
            const auto& link = topo.links()[static_cast<std::size_t>(
                rng.uniformInt(topo.links().size()))];
            scenario.disableLink(link.a, link.b);
        }
    }

    // Cold sweep outside the timed region: the steady state of a
    // campaign is re-visiting recomputed scenarios, so the timed loop
    // (and the reported hit rate) measure warm reuse.
    for (const auto& scenario : scenarios) {
        (void)cache.get(scenario);
    }
    cache.resetStats();

    std::size_t i = 0;
    for (auto _ : state) {
        const auto oracle = cache.get(scenarios[i % scenarios.size()]);
        benchmark::DoNotOptimize(oracle->reachable(0, topo.asCount() - 1));
        ++i;
    }
    const route::OracleCacheStats stats = cache.stats();
    state.counters["hit_rate"] = stats.hitRate();
    state.counters["evictions"] =
        static_cast<double>(stats.evictions);
    state.SetLabel(std::to_string(scenarios.size()) + " scenarios, cap " +
                   std::to_string(cache.capacity()));
}
BENCHMARK(BM_OracleCacheFailureSweep)->Unit(benchmark::kMillisecond);

// ---- scenario sweep: full recompute vs cut-set dedupe ---------------
// Paired rows over the same batch, structured the way real sweeps are: a
// cross product of overlapping random cut sets (1-4 cables from a pool
// of 11) x four repair policies. Both modes build each routing state
// from scratch; mode 0 builds one per scenario (the per-scenario
// reference), mode 1 one per distinct cut-set digest (the oracle
// depends only on the cut set, so repair-policy variants share one
// build). The sweep_equivalence tests prove both modes produce
// byte-identical reports; these rows price the difference. Acceptance:
// >=3x at 256 scenarios.
void BM_ScenarioSweep(benchmark::State& state) {
    const auto& topo = world();
    static exec::WorkerPool pool;
    static core::Substrate::Options options = [] {
        core::Substrate::Options opts;
        opts.pool = &pool;
        return opts;
    }();
    static const core::Substrate substrate{
        topo, phys::CableRegistry::africanDefaults(),
        dns::DnsConfig::defaults(), content::ContentConfig::defaults(),
        options};

    const bool incremental = state.range(0) != 0;
    const auto batch = static_cast<std::size_t>(state.range(1));
    const std::vector<std::string> cables = {
        "WACS",  "MainOne", "SAT-3", "ACE",     "Glo-1",  "SEACOM",
        "EASSy", "EIG",     "AAE-1", "Equiano", "2Africa"};
    const std::vector<double> repairPolicies = {7.0, 14.0, 21.0, 30.0};
    net::Rng rng{314};
    std::vector<core::ScenarioSpec> scenarios;
    scenarios.reserve(batch);
    for (std::size_t set = 0; scenarios.size() < batch; ++set) {
        std::vector<std::string> cuts;
        const std::size_t k = 1 + rng.uniformInt(4);
        for (std::size_t c = 0; c < k; ++c) {
            const auto& cable = cables[rng.uniformInt(cables.size())];
            if (std::find(cuts.begin(), cuts.end(), cable) == cuts.end()) {
                cuts.push_back(cable);
            }
        }
        for (const double repairDays : repairPolicies) {
            if (scenarios.size() == batch) break;
            core::ScenarioSpec spec;
            spec.name = "cut-" + std::to_string(set) + "-r" +
                        std::to_string(static_cast<int>(repairDays));
            spec.cutCables = cuts;
            spec.repairDays = repairDays;
            scenarios.push_back(std::move(spec));
        }
    }

    const sweep::ScenarioSweepEngine engine{
        substrate,
        sweep::SweepOptions{.mode = incremental
                                ? sweep::RecomputeMode::Incremental
                                : sweep::RecomputeMode::Full}};
    sweep::SweepStats stats{};
    for (auto _ : state) {
        const auto result = engine.run(scenarios);
        stats = result.stats;
        benchmark::DoNotOptimize(&result);
    }
    const auto builds =
        incremental ? stats.incrementalBuilds : stats.fullBuilds;
    state.counters["oracle_builds"] = static_cast<double>(builds);
    state.counters["dedup_hits"] = static_cast<double>(stats.dedupHits);
    state.SetLabel(std::to_string(batch) + " scenarios, " +
                   (incremental ? "incremental" : "full"));
}
BENCHMARK(BM_ScenarioSweep)
    ->Args({0, 64})
    ->Args({1, 64})
    ->Args({0, 256})
    ->Args({1, 256})
    ->Args({0, 1024})
    ->Args({1, 1024})
    ->Unit(benchmark::kMillisecond);

// ---- catalog-compiled batches: hand-written vs Monte-Carlo ----------
// Paired rows for the scenario-generation layer: a hand-written cut
// grid (the BM_ScenarioSweep shape, wrapped in WeightedSpecs) vs a
// catalog-compiled Monte-Carlo block of the same size, both through
// runBatch (sweep + importance-weighted aggregation). The sampled rows
// dedupe far harder — thousands of correlated draws collapse onto a few
// hundred unique cut sets — so scenarios/sec is the honest comparison,
// not per-batch wall clock. Mode 0: hand-written; mode 1: sampled.
void BM_CatalogSweep(benchmark::State& state) {
    const auto& topo = world();
    static exec::WorkerPool pool;
    static core::Substrate::Options options = [] {
        core::Substrate::Options opts;
        opts.pool = &pool;
        return opts;
    }();
    static const core::Substrate substrate{
        topo, phys::CableRegistry::africanDefaults(),
        dns::DnsConfig::defaults(), content::ContentConfig::defaults(),
        options};

    const bool sampled = state.range(0) != 0;
    const auto batchSize = static_cast<std::size_t>(state.range(1));

    sweep::ScenarioBatch batch;
    if (sampled) {
        scenario::ScenarioCatalog catalog;
        scenario::SampledTemplate mc;
        mc.name = "mc";
        mc.config.seed = 2025;
        mc.config.count = batchSize;
        mc.config.importanceBoost = 2.0;
        mc.config.correlation.sameCorridorProb = 0.02;
        mc.config.correlation.sharedLandingProb = 0.002;
        catalog.add(mc);
        batch = catalog.compile(substrate).valueOrRaise();
    } else {
        const std::vector<std::string> cables = {
            "WACS",  "MainOne", "SAT-3", "ACE",     "Glo-1",  "SEACOM",
            "EASSy", "EIG",     "AAE-1", "Equiano", "2Africa"};
        const std::vector<double> repairPolicies = {7.0, 14.0, 21.0, 30.0};
        net::Rng rng{314};
        for (std::size_t set = 0; batch.entries.size() < batchSize; ++set) {
            std::vector<std::string> cuts;
            const std::size_t k = 1 + rng.uniformInt(4);
            for (std::size_t c = 0; c < k; ++c) {
                const auto& cable = cables[rng.uniformInt(cables.size())];
                if (std::find(cuts.begin(), cuts.end(), cable) ==
                    cuts.end()) {
                    cuts.push_back(cable);
                }
            }
            for (const double repairDays : repairPolicies) {
                if (batch.entries.size() == batchSize) break;
                sweep::WeightedSpec entry;
                entry.spec.name = "cut-" + std::to_string(set) + "-r" +
                                  std::to_string(
                                      static_cast<int>(repairDays));
                entry.spec.cutCables = cuts;
                entry.spec.repairDays = repairDays;
                batch.entries.push_back(std::move(entry));
            }
        }
    }

    const sweep::ScenarioSweepEngine engine{substrate};
    sweep::BatchSweepResult result;
    for (auto _ : state) {
        result = engine.runBatch(batch);
        benchmark::DoNotOptimize(&result);
    }
    state.counters["scenarios_per_sec"] = result.sweep.stats.scenariosPerSec();
    state.counters["oracle_builds"] =
        static_cast<double>(result.sweep.stats.incrementalBuilds);
    state.counters["dedupe_rate"] =
        static_cast<double>(result.sweep.stats.dedupHits) /
        static_cast<double>(result.sweep.stats.scenarios);
    state.counters["weighted_loss"] = result.aggregate.meanPageLoadLoss;
    state.SetLabel(std::to_string(batchSize) + " scenarios, " +
                   (sampled ? "sampled" : "hand-written"));
}
BENCHMARK(BM_CatalogSweep)
    ->Args({0, 1000})
    ->Args({1, 1000})
    ->Args({0, 10000})
    ->Args({1, 10000})
    ->Unit(benchmark::kMillisecond);

// ---- continent-scale storage: dense vs sharded ----------------------
// Paired rows pricing the StoragePolicy switch at continental targets.
// Dense rows (policy 0) time the full all-pairs matrix build; sharded
// rows (policy 1) time construction plus one query into each of a
// ~256-row destination sample, which solves that row — the steady-state
// shape of a sweep, where only the destinations a scenario actually
// queries are ever solved. The
// sharded_equivalence suite proves the two policies byte-identical; the
// bytes_per_as counters here price the memory gap (dense is 5n bytes/AS
// and is absent at 50k, where it would cross its 4 GiB capacity ceiling).

const topo::Topology& continent(int target) {
    static std::map<int, topo::Topology> topos;
    auto it = topos.find(target);
    if (it == topos.end()) {
        it = topos
                 .emplace(target,
                          topo::TopologyGenerator{
                              topo::GeneratorConfig::continental(target,
                                                                 20250704)}
                              .generate())
                 .first;
    }
    return it->second;
}

void BM_ContinentOracleBuild(benchmark::State& state) {
    const bool sharded = state.range(0) != 0;
    const auto& topo = continent(static_cast<int>(state.range(1)));

    // ~256 destinations, evenly strided across the index space.
    std::vector<topo::AsIndex> sample;
    const std::size_t stride =
        std::max<std::size_t>(1, topo.asCount() / 256);
    for (topo::AsIndex dst = 0; dst < topo.asCount(); dst += stride) {
        sample.push_back(dst);
    }

    std::size_t bytes = 0;
    for (auto _ : state) {
        if (sharded) {
            const route::ShardedOracle oracle{topo};
            for (const topo::AsIndex dst : sample) {
                benchmark::DoNotOptimize(oracle.routeClass(0, dst));
            }
            bytes = oracle.memoryBytes();
            benchmark::DoNotOptimize(&oracle);
        } else {
            const route::PathOracle oracle{topo};
            bytes = oracle.memoryBytes();
            benchmark::DoNotOptimize(&oracle);
        }
    }
    state.counters["resident_mb"] =
        static_cast<double>(bytes) / (1024.0 * 1024.0);
    state.counters["bytes_per_as"] =
        static_cast<double>(bytes) / static_cast<double>(topo.asCount());
    state.SetLabel(std::to_string(topo.asCount()) + " ASes, " +
                   (sharded ? "sharded x" + std::to_string(sample.size()) +
                                  " dests"
                            : "dense"));
}
BENCHMARK(BM_ContinentOracleBuild)
    ->Args({0, 1000})
    ->Args({1, 1000})
    ->Args({0, 10000})
    ->Args({1, 10000})
    ->Args({1, 50000}) // dense 50k would cross its capacity ceiling
    ->Unit(benchmark::kMillisecond);

// Route-kernel rows under a corridor cut beside unfiltered rows on the
// 10k continent: the price of the compiled filter's link test where a
// cut's endpoints crowd the landing hubs. Mode 0 solves ~400 evenly
// strided destination rows with no filter; mode 1 solves the same rows
// under the four-cable west-corridor cut (WACS, MainOne, SAT-3, ACE),
// derived through the link map a default Substrate draws. Each row
// refills its class row with None first. Modes 2 (unfiltered) and 3
// (corridor) answer the same rows with kernel::reachDestinations
// instead, kReachBlock rows per pass, as the sweep's scoring does: one
// bit per (AS, row), with no next hop. Compare time per iteration (same
// row count).
void BM_KernelCorridorRows(benchmark::State& state) {
    const bool corridor = state.range(0) % 2 != 0;
    const bool reach = state.range(0) >= 2;
    const auto& topo = continent(10000);
    route::LinkFilter filter;
    if (corridor) {
        const auto registry = phys::CableRegistry::africanDefaults();
        net::Rng rng{core::Substrate::Options{}.seed};
        const phys::PhysicalLinkMap linkMap{topo, registry, rng};
        std::unordered_set<phys::CableId> cuts;
        for (const char* name : {"WACS", "MainOne", "SAT-3", "ACE"}) {
            cuts.insert(registry.byName(name));
        }
        for (const auto& [a, b] : linkMap.failedLinks(cuts)) {
            filter.disableLink(a, b);
        }
    }
    const std::size_t n = topo.asCount();
    const route::kernel::CompiledFilter compiled{filter, n};
    std::vector<topo::AsIndex> rows;
    const std::size_t stride = std::max<std::size_t>(1, n / 400);
    for (topo::AsIndex dst = 0; dst < n; dst += stride) {
        rows.push_back(dst);
    }
    route::kernel::DestScratch scratch;
    scratch.prepare(n);
    std::vector<std::int32_t> next(n);
    std::vector<std::uint8_t> klass(
        n, static_cast<std::uint8_t>(route::RouteClass::None));
    const route::kernel::CustomerFirstOrder order{topo};
    route::kernel::ReachScratch bits;
    bits.prepare(n);
    for (auto _ : state) {
        if (reach) {
            for (std::size_t first = 0; first < rows.size();
                 first += route::kernel::kReachBlock) {
                route::kernel::reachDestinations(
                    topo, compiled, order,
                    std::span{rows}.subspan(
                        first, std::min(route::kernel::kReachBlock,
                                        rows.size() - first)),
                    bits);
            }
            benchmark::DoNotOptimize(bits.routed.data());
            benchmark::ClobberMemory();
            continue;
        }
        for (const topo::AsIndex dst : rows) {
            std::ranges::fill(
                klass, static_cast<std::uint8_t>(route::RouteClass::None));
            route::kernel::solveDestination(topo, compiled, dst, next.data(),
                                            klass.data(), scratch);
        }
        benchmark::DoNotOptimize(klass.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(rows.size()));
    state.SetLabel(std::to_string(n) + " ASes, " +
                   std::to_string(rows.size()) + " rows, " +
                   std::to_string(filter.disabledLinkCount()) +
                   " links disabled" + (reach ? ", reachability" : ""));
}
BENCHMARK(BM_KernelCorridorRows)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);

// Scenario throughput under the sharded policy at continental scale: the
// same sweep engine and specs as BM_ScenarioSweep, run over a substrate
// whose impact.routeStorage is Sharded. items/sec is scenarios/sec.
void BM_ShardedSweepScenarios(benchmark::State& state) {
    const int target = static_cast<int>(state.range(0));
    const auto& topo = continent(target);
    static exec::WorkerPool pool;
    static std::map<int, std::unique_ptr<core::Substrate>> substrates;
    auto it = substrates.find(target);
    if (it == substrates.end()) {
        core::Substrate::Options opts;
        opts.pool = &pool;
        opts.impact.routeStorage = route::StoragePolicy::Sharded;
        // Scoring queries scatter across the destination index space
        // (site hosts + resolvers), so the eviction granule must be
        // fine: at 50k the default 1024-destination slabs hold only ~4
        // resident under the auto budget and every client's query fan
        // would thrash them. 8-destination slabs keep the granule
        // proportionate, and at continental scale the queried working
        // set itself outgrows the auto budget (a 24th of dense), so the
        // 50k row runs a 2 GiB resident budget — still >6x below the
        // 12.5 GB dense extrapolation.
        opts.impact.shardedRouting.shardDestinations = 8;
        if (target > 10000) {
            opts.impact.shardedRouting.residentByteBudget =
                std::size_t{2} << 30;
        }
        it = substrates
                 .emplace(target,
                          std::make_unique<core::Substrate>(
                              topo, phys::CableRegistry::africanDefaults(),
                              dns::DnsConfig::defaults(),
                              content::ContentConfig::defaults(), opts))
                 .first;
    }
    const core::Substrate& substrate = *it->second;

    const std::vector<std::string> cables = {
        "WACS",  "MainOne", "SAT-3", "ACE",     "Glo-1",  "SEACOM",
        "EASSy", "EIG",     "AAE-1", "Equiano", "2Africa"};
    net::Rng rng{2718};
    std::vector<core::ScenarioSpec> scenarios;
    // One scenario at 50k. A cacheless sweep scores each routing state
    // destination-major: it answers the analyzer's query-plan
    // destinations (each eyeball's resolver and its country's sampled
    // site hosts, about a third of the ASes) with reachability passes of
    // up to kReachBlock destinations across the pool's lanes and builds
    // no oracle, so each further scenario adds one more set of passes.
    const int sets = target > 10000 ? 1 : 16;
    for (int set = 0; set < sets; ++set) {
        std::vector<std::string> cuts;
        const std::size_t k = 1 + rng.uniformInt(3);
        for (std::size_t c = 0; c < k; ++c) {
            const auto& cable = cables[rng.uniformInt(cables.size())];
            if (std::find(cuts.begin(), cuts.end(), cable) == cuts.end()) {
                cuts.push_back(cable);
            }
        }
        core::ScenarioSpec spec;
        spec.name = "cont-cut-" + std::to_string(set);
        spec.cutCables = cuts;
        scenarios.push_back(std::move(spec));
    }

    const sweep::ScenarioSweepEngine engine{substrate};
    for (auto _ : state) {
        const auto result = engine.run(scenarios);
        benchmark::DoNotOptimize(&result);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(scenarios.size()));
    state.SetLabel(std::to_string(topo.asCount()) + " ASes, " +
                   std::to_string(scenarios.size()) +
                   " scenarios, sharded");
}
BENCHMARK(BM_ShardedSweepScenarios)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_PathQuery(benchmark::State& state) {
    const auto& topo = world();
    static const route::PathOracle oracle{topo};
    net::Rng rng{2};
    for (auto _ : state) {
        const auto src = rng.uniformInt(topo.asCount());
        const auto dst = rng.uniformInt(topo.asCount());
        benchmark::DoNotOptimize(oracle.path(src, dst));
    }
}
BENCHMARK(BM_PathQuery);

void BM_TracerouteSimulation(benchmark::State& state) {
    const auto& topo = world();
    static const route::PathOracle oracle{topo};
    const measure::TracerouteEngine engine{topo, oracle};
    net::Rng rng{3};
    const auto african = topo.africanAses();
    for (auto _ : state) {
        const auto src = african[rng.uniformInt(african.size())];
        const auto dst = african[rng.uniformInt(african.size())];
        benchmark::DoNotOptimize(engine.traceToAs(src, dst, rng));
    }
}
BENCHMARK(BM_TracerouteSimulation);

void BM_GreedySetCover(benchmark::State& state) {
    const auto& topo = world();
    const core::VantageSelector selector{topo};
    for (auto _ : state) {
        benchmark::DoNotOptimize(selector.minimalIxpCover());
    }
}
BENCHMARK(BM_GreedySetCover)->Unit(benchmark::kMillisecond);

void BM_BudgetPlan(benchmark::State& state) {
    core::Probe probe;
    probe.id = "bench";
    probe.countryCode = "GH";
    probe.pricing.kind = core::PricingModel::Kind::PrepaidBundle;
    probe.pricing.bundleMb = 300;
    probe.pricing.bundleCostUsd = 2.5;
    std::vector<core::MeasurementTask> tasks;
    for (int i = 0; i < 64; ++i) {
        tasks.push_back({.id = "t" + std::to_string(i),
                         .kind = "traceroute",
                         .payloadBytesPerRun = 1e4 * (1 + i % 7),
                         .utilityPerRun = 1.0 + i % 5,
                         .desiredRuns = 50,
                         .sharedGroup = i % 8,
                         .offPeakOk = (i % 2) == 0});
    }
    const core::BudgetScheduler scheduler;
    for (auto _ : state) {
        benchmark::DoNotOptimize(scheduler.plan(probe, tasks, 10.0));
    }
}
BENCHMARK(BM_BudgetPlan);

void BM_JournalAppend(benchmark::State& state) {
    // Steady-state WAL append rate: one outcome record per task
    // settlement, all CRC-32C checksummed. The sink is cleared once it
    // grows past 64 MB so memory stays bounded.
    persist::MemorySink sink;
    persist::CampaignJournal journal{sink};
    journal.writeHeader(persist::CampaignHeader{});
    persist::TaskOutcomeRecord outcome;
    outcome.taskIdx = 17;
    outcome.kind = persist::TaskOutcomeKind::Completed;
    outcome.clockHour = 1.5;
    journal.appendOutcome(outcome);
    const auto recordBytes = static_cast<std::int64_t>(sink.size());
    for (auto _ : state) {
        journal.appendOutcome(outcome);
        if (sink.size() > (64U << 20)) {
            sink.clear();
        }
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * recordBytes);
}
BENCHMARK(BM_JournalAppend);

void BM_JournalReplay(benchmark::State& state) {
    // Crash-recovery scan rate over a realistic journal shape: header,
    // 4096 settlements, a checkpoint every 16.
    persist::MemorySink sink;
    persist::CampaignJournal journal{sink};
    persist::CampaignHeader header;
    header.taskCount = 4096;
    header.probeCount = 64;
    journal.writeHeader(header);
    persist::CampaignCheckpoint cp;
    cp.meters.resize(64);
    cp.assignments.resize(4096);
    persist::TaskOutcomeRecord outcome;
    for (std::uint64_t i = 0; i < 4096; ++i) {
        outcome.taskIdx = i;
        journal.appendOutcome(outcome);
        if ((i + 1) % 16 == 0) {
            cp.outcomesApplied = i + 1;
            journal.appendCheckpoint(cp);
        }
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            persist::CampaignJournal::replay(sink.bytes()));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(sink.size()));
}
BENCHMARK(BM_JournalReplay)->Unit(benchmark::kMicrosecond);

// ---- observability overhead budget ---------------------------------
// The obs layer buys its keep only if the hot paths it instruments stay
// within a 2% slowdown. Each pair below runs an identical workload with
// the registry/trace absent (observed:0) and wired in (observed:1);
// compare adjacent rows to check the budget.

void BM_ObservedOracleBuild(benchmark::State& state) {
    const auto& topo = world();
    const bool observed = state.range(0) != 0;
    obs::MetricsRegistry metrics;
    exec::WorkerPool pool{2, observed ? &metrics : nullptr};
    route::OracleCache cache{topo, 2, &pool,
                             observed ? &metrics : nullptr};
    route::LinkFilter cut;
    cut.disableLink(topo.links().front().a, topo.links().front().b);
    for (auto _ : state) {
        cache.clear(); // force a miss: every iteration is a full build
        benchmark::DoNotOptimize(cache.get(cut));
    }
    state.SetLabel(observed ? "metrics on" : "metrics off");
}
BENCHMARK(BM_ObservedOracleBuild)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_ObservedSupervisorCampaign(benchmark::State& state) {
    // A full supervised campaign (attempts, retries, reassignment,
    // settlement) per iteration — the densest metric/span call-site mix
    // in the codebase, so the place where overhead would show first.
    const auto& topo = world();
    static const route::PathOracle oracle{topo};
    static const measure::TracerouteEngine engine{topo, oracle};
    static const measure::IxpDetector detector{
        topo, measure::IxpKnowledgeBase::full(topo)};
    net::Rng fleetRng{7};
    static const core::Observatory obs{
        topo, engine, detector,
        core::ProbeFleet::observatory(topo, fleetRng)};
    net::Rng taskRng{8};
    static const auto tasks = obs.ixpDiscoveryTasks(taskRng);
    resilience::FaultPlanConfig planCfg;
    planCfg.intensity = 1.0;
    net::Rng planRng{9};
    static const auto plan =
        resilience::FaultPlan::generate(obs.fleet(), planCfg, planRng);

    const bool observed = state.range(0) != 0;
    obs::MetricsRegistry metrics;
    obs::Trace trace;
    const resilience::SupervisorConfig supCfg;
    const resilience::CampaignSupervisor supervisor{
        obs, supCfg, observed ? &metrics : nullptr,
        observed ? &trace : nullptr};
    for (auto _ : state) {
        resilience::FaultInjector injector{obs.fleet(), plan,
                                           supCfg.budgetFraction};
        net::Rng rng{10};
        benchmark::DoNotOptimize(supervisor.run(tasks, injector, rng));
    }
    state.SetLabel(std::to_string(tasks.size()) + " tasks, " +
                   (observed ? "metrics on" : "metrics off"));
}
BENCHMARK(BM_ObservedSupervisorCampaign)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ---- streaming ingestion / checkpoint / resume ----------------------
// The streaming subsystem's cost model: sequential ingestion
// throughput, the price of one consumer checkpoint (full and delta),
// and the restore-plus-replay cost of a crash resume.

const std::vector<stream::MeasurementEvent>& streamEvents() {
    static const std::vector<stream::MeasurementEvent> events = [] {
        static const outage::RadarMonitor monitor{world()};
        const std::vector<outage::ImpactReport> impacts; // quiet window
        net::Rng rng{21};
        return stream::GroundTruthSource{monitor}.emit(30.0, impacts, rng);
    }();
    return events;
}

/// The same window in time order, as a live stream delivers it: every
/// run of consecutive events spans all countries, so each delta
/// checkpoint touches every lane. Emission order is country by country
/// and would touch one or two.
const std::vector<stream::MeasurementEvent>& timeOrderedStreamEvents() {
    static const std::vector<stream::MeasurementEvent> events = [] {
        auto sorted = streamEvents();
        std::ranges::stable_sort(sorted, {},
                                 &stream::MeasurementEvent::slot);
        return sorted;
    }();
    return events;
}

void BM_StreamIngest(benchmark::State& state) {
    const auto& events = streamEvents();
    for (auto _ : state) {
        stream::OnlineRadarDetector detector{
            outage::RadarConfig{}, stream::StreamConfig{}, 30.0};
        detector.ingestAll(events);
        benchmark::DoNotOptimize(detector.eventsIngested());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(events.size()));
    state.SetLabel(std::to_string(events.size()) + " events");
}
BENCHMARK(BM_StreamIngest)->Unit(benchmark::kMillisecond);

void BM_StreamCheckpointWrite(benchmark::State& state) {
    // One key checkpoint: encode the full detector state straight into
    // the record payload and append it CRC-framed, the way a resumed
    // StreamConsumer journals its anchor. The sink is emptied (capacity
    // kept) before each append, so a short run times the checkpoint,
    // not the sink's growth; a journal's growth is priced end to end by
    // perfbench's outage workload.
    stream::OnlineRadarDetector detector{
        outage::RadarConfig{}, stream::StreamConfig{}, 30.0};
    detector.ingestAll(streamEvents());
    persist::MemorySink sink;
    persist::RecordWriter journal{sink};
    std::int64_t recordBytes = 0;
    for (auto _ : state) {
        sink.clear();
        persist::ByteWriter payload;
        payload.u8(2); // checkpoint record type
        payload.u64(detector.eventsIngested());
        detector.encodeState(payload);
        recordBytes = static_cast<std::int64_t>(payload.bytes().size());
        journal.append(payload.bytes());
        benchmark::DoNotOptimize(sink.bytes().data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * recordBytes);
    state.SetLabel(net::crc32cUsesHardware() ? "crc32c: sse4.2"
                                             : "crc32c: table");
}
BENCHMARK(BM_StreamCheckpointWrite)->Unit(benchmark::kMicrosecond);

void BM_StreamCheckpointDelta(benchmark::State& state) {
    // The checkpoint StreamConsumer writes every 64 events: a delta of
    // what those events changed, appended CRC-framed, over the
    // time-ordered window. Ingesting the next 64 events and emptying the
    // sink (capacity kept) are untimed; at the window's end the detector
    // starts over, untimed too. A journal's growth is priced end to end
    // by perfbench's outage workload.
    const auto& events = timeOrderedStreamEvents();
    const std::uint64_t every = stream::StreamConfig{}.checkpointEveryEvents;
    stream::OnlineRadarDetector detector{outage::RadarConfig{},
                                         stream::StreamConfig{}, 30.0};
    persist::MemorySink sink;
    persist::RecordWriter journal{sink};
    std::size_t next = 0;
    std::int64_t deltaBytes = 0;
    for (auto _ : state) {
        state.PauseTiming();
        if (next + every > events.size()) {
            detector = stream::OnlineRadarDetector{
                outage::RadarConfig{}, stream::StreamConfig{}, 30.0};
            next = 0;
        }
        for (const std::size_t end = next + every; next < end; ++next) {
            detector.ingest(events[next]);
        }
        sink.clear();
        state.ResumeTiming();
        persist::ByteWriter payload;
        payload.u8(3); // delta checkpoint record type
        payload.u64(next);
        detector.encodeDelta(payload);
        deltaBytes += static_cast<std::int64_t>(payload.bytes().size());
        journal.append(payload.bytes());
        benchmark::DoNotOptimize(sink.bytes().data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(deltaBytes);
    state.SetLabel(std::string{net::crc32cUsesHardware() ? "crc32c: sse4.2"
                                                         : "crc32c: table"} +
                   ", " + std::to_string(every) + " events per delta");
}
BENCHMARK(BM_StreamCheckpointDelta)->Unit(benchmark::kMicrosecond);

void BM_StreamResume(benchmark::State& state) {
    // Crash resume end to end: replay the dead run's journal, restore
    // the last checkpoint and reprocess the uncovered half of the log.
    // The log holds the time-ordered window, so the replayed deltas
    // touch every lane, as a live stream's do.
    struct Setup {
        std::vector<std::byte> log;
        std::vector<std::byte> journal;
    };
    static const Setup setup = [] {
        const auto& events = timeOrderedStreamEvents();
        const outage::RadarConfig radar;
        const stream::StreamConfig cfg;
        persist::MemorySink logSink;
        stream::EventLogHeader header;
        header.configDigest = stream::streamConfigDigest(radar, cfg, 30.0);
        header.samplesPerDay = radar.samplesPerDay;
        header.windowDays = 30.0;
        stream::EventLogWriter writer{logSink, header};
        for (const auto& event : events) {
            writer.append(event);
        }
        persist::MemorySink journalSink;
        stream::StreamConsumer consumer{radar, cfg};
        (void)consumer.run(logSink.bytes(), journalSink, {},
                           events.size() / 2);
        return Setup{{logSink.bytes().begin(), logSink.bytes().end()},
                     {journalSink.bytes().begin(),
                      journalSink.bytes().end()}};
    }();
    for (auto _ : state) {
        persist::MemorySink continuation;
        stream::StreamConsumer consumer{outage::RadarConfig{},
                                        stream::StreamConfig{}};
        benchmark::DoNotOptimize(
            consumer.run(setup.log, continuation, setup.journal));
    }
    state.SetLabel("resume at 1/2 of " +
                   std::to_string(timeOrderedStreamEvents().size()) +
                   " events");
}
BENCHMARK(BM_StreamResume)->Unit(benchmark::kMillisecond);

// ---- resident service: throughput and epoch/admission overhead ------
// One warm continental-scale snapshot (digest off — O(n^2) at this AS
// count) shared by every service row.
const std::shared_ptr<const service::ServiceSnapshot>& serviceWorld() {
    static const std::shared_ptr<const service::ServiceSnapshot> snapshot =
        [] {
            service::SnapshotConfig config;
            config.computeDigest = false;
            auto built = service::ServiceSnapshot::build(
                world(), phys::CableRegistry::africanDefaults(),
                dns::DnsConfig::defaults(),
                content::ContentConfig::defaults(), config);
            return std::move(built).value();
        }();
    return snapshot;
}

service::ServiceConfig openServiceConfig() {
    service::ServiceConfig config;
    config.admission.queueCapacity = 4096;
    config.admission.shedQueueDepth = 4096;
    return config;
}

service::TenantQuota benchTenant() {
    service::TenantQuota quota;
    quota.tenant = "bench";
    quota.budgetUsd = 1e12;
    return quota;
}

// Query throughput through the full resident path (admission + ledgerless
// metering + epoch pin + promise round-trip) at 1/2/8 handler threads
// against the warm snapshot.
void BM_ServiceThroughput(benchmark::State& state) {
    static obs::SteadyClock clock;
    const auto& snapshot = serviceWorld();
    const std::size_t asCount = snapshot->topology().asCount();
    service::ObservatoryService svc{snapshot, openServiceConfig(), &clock};
    svc.registerTenant(benchTenant());
    svc.start(static_cast<std::size_t>(state.range(0)));

    constexpr std::size_t kBatch = 512;
    std::vector<std::future<service::ServiceResponse>> futures;
    futures.reserve(kBatch);
    std::uint64_t mix = 1;
    for (auto _ : state) {
        futures.clear();
        for (std::size_t i = 0; i < kBatch; ++i) {
            mix = mix * 6364136223846793005ULL + 1442695040888963407ULL;
            service::ServiceRequest request;
            request.tenant = "bench";
            request.workload = "query";
            request.src = static_cast<topo::AsIndex>(mix % asCount);
            request.dst =
                static_cast<topo::AsIndex>((mix >> 17) % asCount);
            futures.push_back(svc.submit(std::move(request)));
        }
        for (auto& future : futures) {
            benchmark::DoNotOptimize(future.get());
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kBatch));
    svc.stop();
    state.SetLabel(std::to_string(state.range(0)) + " handler thread(s)");
}
BENCHMARK(BM_ServiceThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Paired rows pricing what the resident path adds on top of a direct
// single-tenant sweep over the same substrate: mode 0 calls the sweep
// engine directly, mode 1 routes the identical batch through
// submit/admission/epoch-pin/drain. Acceptance: <5% overhead.
void BM_ServiceSweepOverhead(benchmark::State& state) {
    static obs::SteadyClock clock;
    const auto& snapshot = serviceWorld();
    const bool throughService = state.range(0) != 0;

    const std::vector<std::string> cables = {"WACS", "SEACOM", "ACE",
                                             "EASSy"};
    std::vector<core::ScenarioSpec> batch;
    for (const auto& cable : cables) {
        for (const double repairDays : {7.0, 14.0, 30.0}) {
            core::ScenarioSpec spec;
            spec.name = cable + "@" + std::to_string(repairDays);
            spec.cutCables = {cable};
            spec.repairDays = {repairDays};
            batch.push_back(std::move(spec));
        }
    }

    // Warm the snapshot's oracle cache outside the timed region so both
    // modes price steady-state work, not first-touch route builds.
    {
        const sweep::ScenarioSweepEngine warmer{snapshot->substrate()};
        (void)warmer.run(batch);
    }

    if (throughService) {
        service::ObservatoryService svc{snapshot, openServiceConfig(),
                                        &clock};
        svc.registerTenant(benchTenant());
        for (auto _ : state) {
            service::ServiceRequest request;
            request.tenant = "bench";
            request.workload = "sweep";
            request.scenarios = batch;
            auto future = svc.submit(std::move(request));
            (void)svc.drain();
            benchmark::DoNotOptimize(future.get());
        }
        svc.stop();
    } else {
        const sweep::ScenarioSweepEngine engine{snapshot->substrate()};
        for (auto _ : state) {
            benchmark::DoNotOptimize(engine.run(batch));
        }
    }
    state.SetLabel(throughService ? "via service" : "direct sweep");
}
BENCHMARK(BM_ServiceSweepOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Question -> costed CampaignPlan, the pre-execution quote path. Pure
// plan-time work: scope resolution, set-cover vantages, digest peeks,
// budget ordering — nothing executes, so this must stay cheap enough to
// run on every submission.
void BM_PlannerCompile(benchmark::State& state) {
    const auto& snapshot = serviceWorld();
    const plan::CampaignPlanner planner{snapshot->substrate()};
    plan::MeasurementQuestion question;
    question.name = "content locality of top sites";
    question.kind = plan::QuestionKind::ContentLocality;
    question.topSites = 25;
    question.budgetUsd = 40.0;

    std::size_t tasks = 0;
    for (auto _ : state) {
        auto compiled = planner.compile(question).valueOrRaise();
        tasks = compiled.tasks.size();
        benchmark::DoNotOptimize(compiled);
    }
    state.counters["tasks"] = static_cast<double>(tasks);
}
BENCHMARK(BM_PlannerCompile)->Unit(benchmark::kMillisecond);

// The full quote-then-verify loop: compile, execute, hold the estimate
// to account. The exported counter is the estimate's relative error —
// the quantity the EstimateAccuracy tests bound by retransJitterMax.
void BM_EstimateAccuracy(benchmark::State& state) {
    const auto& snapshot = serviceWorld();
    const plan::CampaignPlanner planner{snapshot->substrate()};
    plan::MeasurementQuestion question;
    question.name = "detour rate of landlocked countries";
    question.kind = plan::QuestionKind::DetourRate;
    question.landlockedOnly = true;
    question.samplePairs = 24;
    question.budgetUsd = 40.0;

    double errorShare = 0.0;
    bool withinBound = true;
    for (auto _ : state) {
        const auto compiled = planner.compile(question).valueOrRaise();
        const plan::CampaignReport report = planner.execute(compiled);
        errorShare = report.estimateErrorShare;
        withinBound = withinBound && report.withinBound;
        benchmark::DoNotOptimize(report);
    }
    state.counters["estimate_error_share"] = errorShare;
    state.SetLabel(withinBound ? "within bound" : "BOUND VIOLATED");
}
BENCHMARK(BM_EstimateAccuracy)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
