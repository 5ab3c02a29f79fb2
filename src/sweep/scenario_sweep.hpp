#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/substrate.hpp"
#include "exec/cancel.hpp"
#include "netbase/expected.hpp"
#include "obs/span.hpp"
#include "outage/impact.hpp"

namespace aio::sweep {

/// How the sweep shares degraded routing states between scenarios. Every
/// routing state is solved from scratch; the modes differ in sharing.
enum class RecomputeMode {
    /// Dedupe scenarios by cut-set digest and solve each unique routing
    /// state once. Without an oracle cache or scenarioAggregates, the
    /// states are scored destination-major and no oracle is built;
    /// otherwise each is one build under the substrate's storage policy,
    /// shared through the cache when one is wired in. The production
    /// mode.
    Incremental,
    /// One oracle per scenario, no dedupe, no cache — the
    /// per-scenario-recompute reference the differential harness and the
    /// speedup bench compare against.
    Full,
};

struct SweepOptions {
    RecomputeMode mode = RecomputeMode::Incremental;
    /// Compute per-scenario ScenarioAggregates (detour / content-locality
    /// shares) — the inputs of weighted batch aggregation. Off by
    /// default: plain impact sweeps don't pay the path-sampling cost.
    bool scenarioAggregates = false;
    /// Eyeball pairs sampled per unique routing state for detourShare
    /// (fixed seed, so the share is deterministic for a given substrate).
    std::size_t detourSamplePairs = 128;
    /// Optional trace (not owned). obs::Trace is single-threaded by
    /// design, so the sweep touches it only from the coordinating
    /// thread: phase spans plus an aggregated per-scenario count node.
    obs::Trace* trace = nullptr;
    /// Optional cancellation/deadline token (not owned). Checked at
    /// every phase boundary and between scenarios/oracle builds; a
    /// fired token makes run() raise net::CancelledError after the
    /// in-flight parallel region drains — the deadline-propagation
    /// path the observatory service routes request deadlines through.
    /// Results are never partially returned: a cancelled batch yields
    /// the typed error, not a half-filled SweepResult.
    const exec::CancelToken* cancel = nullptr;
};

/// What the batch actually cost, beyond per-scenario outcomes. Mirrored
/// onto `sweep.*` metrics when the substrate carries a registry.
struct SweepStats {
    std::size_t scenarios = 0;
    std::size_t errors = 0; ///< scenarios degraded to an Error outcome
    /// Scenarios whose degraded oracle was shared — with an earlier
    /// scenario in this batch (same cut-set digest) or with the
    /// substrate's oracle cache.
    std::size_t dedupHits = 0;
    /// Unique degraded routing states solved, by mode: in Incremental
    /// mode those scored destination-major plus the oracles built (cache
    /// hits solve nothing), in Full mode one oracle per scenario.
    std::size_t incrementalBuilds = 0;
    std::size_t fullBuilds = 0;
    /// Destination rows those states solved: the analyzer's query-plan
    /// rows (ImpactAnalyzer::plannedDestinations) per destination-major
    /// state; per built oracle, RouteOracle::solvedRows read after the
    /// routing-impact walks and detour samples — every row of a dense
    /// build, the rows those queries touched of a sharded one.
    std::size_t dirtyDestinations = 0;
    /// Scenarios that changed a derived layer (cables added / config
    /// overrides) and therefore re-derived their stack per scenario.
    std::size_t overlayScenarios = 0;
    /// Wall-clock seconds the batch took, measured around run() (also
    /// published as the `sweep.scenarios_per_sec` gauge). Timing only —
    /// excluded from determinism comparisons, which go through the
    /// per-scenario outcomes and aggregates.
    double elapsedSeconds = 0.0;

    [[nodiscard]] double scenariosPerSec() const {
        return elapsedSeconds > 0.0
                   ? static_cast<double>(scenarios) / elapsedSeconds
                   : 0.0;
    }
};

/// Cheap per-scenario summary metrics, computed when
/// SweepOptions::scenarioAggregates is set: impact summaries from the
/// report plus the detour share of the scenario's (degraded) routing
/// state and the content-locality share of its catalog. Deterministic —
/// fixed sampling seed per routing state, independent of batch order,
/// thread count and cache temperature — so weighted batch aggregates are
/// byte-stable too.
struct ScenarioAggregates {
    /// Mean page-load loss over the countries the report lists (0 when
    /// no country crossed the loss floor).
    double meanPageLoadLoss = 0.0;
    /// Longest country recovery (ImpactReport::resolutionDays).
    double resolutionDays = 0.0;
    /// Sampled intra-African detour share under this scenario's routing.
    double detourShare = 0.0;
    /// Content-locality share under this scenario's catalog (baseline
    /// catalog unless the scenario overrides content config).
    double contentLocalShare = 0.0;

    [[nodiscard]] bool operator==(const ScenarioAggregates&) const = default;
};

/// One scenario's outcome: the impact report, or the error that degraded
/// this scenario (validation failure, unknown cable) while the rest of
/// the batch proceeded.
struct ScenarioResult {
    std::string scenario; ///< ScenarioSpec::name
    net::Expected<outage::ImpactReport> outcome;
    /// Set iff the scenario scored and scenarioAggregates was requested.
    std::optional<ScenarioAggregates> aggregates;
};

struct SweepResult {
    std::vector<ScenarioResult> scenarios; ///< 1:1 with the input order
    SweepStats stats;
};

/// One scenario plus its importance weight — the unit a compiled
/// ScenarioBatch carries. Hand-written batches leave the weight at 1;
/// the Monte-Carlo sampler sets it to the target/proposal likelihood
/// ratio of its tilted draws.
struct WeightedSpec {
    core::ScenarioSpec spec;
    double weight = 1.0;
};

/// What a scenario catalog compiles to: an ordered list of weighted
/// specs, evaluated in one sweep.
struct ScenarioBatch {
    std::vector<WeightedSpec> entries;

    [[nodiscard]] std::vector<core::ScenarioSpec> specs() const;
    [[nodiscard]] std::vector<double> weights() const;
};

/// Importance-weighted batch aggregates: scored scenario i contributes
/// weight w_i / Σw to each mean (errored scenarios drop out of both
/// sums). When the batch came from the Monte-Carlo sampler the weights
/// are importance ratios, so the means are unbiased estimates under the
/// target correlation model even though high-impact tails were
/// oversampled. Accumulated in input order on the coordinating thread —
/// byte-stable across thread counts.
struct WeightedAggregate {
    double totalWeight = 0.0; ///< Σ w_i over scored scenarios
    std::size_t scored = 0;
    std::size_t errors = 0;
    double meanPageLoadLoss = 0.0;
    double meanResolutionDays = 0.0;
    double meanImpactedCountries = 0.0;
    /// Weighted means of the per-scenario detour / content shares; left
    /// at 0 unless the sweep ran with scenarioAggregates set.
    double meanDetourShare = 0.0;
    double meanContentLocalShare = 0.0;

    [[nodiscard]] bool operator==(const WeightedAggregate&) const = default;
};

/// A batch evaluation's full outcome: the per-scenario sweep result plus
/// the weighted aggregate over it.
struct BatchSweepResult {
    SweepResult sweep;
    WeightedAggregate aggregate;
};

/// Batched what-if evaluation over one Substrate: takes N ScenarioSpecs
/// (cut sets x repair policies x overlays) and returns N outcomes,
/// byte-identical to running each scenario through its own
/// WhatIfEngine::assess — the equivalence the differential harness in
/// tests/sweep locks — but sharing everything shareable:
///
///  * scenarios with the same cut-set digest share one routing state,
///    and its routing impact is computed once;
///  * an Incremental batch with no oracle cache wired in and no
///    scenarioAggregates scores its states destination-major
///    (ImpactAnalyzer::routingImpacts): the pool's lanes solve only the
///    destination rows scoring reads, and no oracle is built;
///  * otherwise each unique cut set is one from-scratch oracle build
///    under the substrate's storage policy — every row eagerly under
///    dense, each queried row lazily under sharded — shared across
///    sweeps through the substrate's OracleCache when one is wired in;
///    Full mode and overlay scenarios always build;
///  * independent work is scheduled across the substrate's WorkerPool
///    (oracle builds never nest inside pool lanes — each runs
///    sequentially in its lane).
///
/// A malformed scenario degrades to an Error outcome in its slot; the
/// rest of the batch is unaffected.
class ScenarioSweepEngine {
public:
    explicit ScenarioSweepEngine(const core::Substrate& substrate,
                                 SweepOptions options = {});

    /// Evaluates the batch. Deterministic: outcome i depends only on the
    /// substrate and scenarios[i], never on batch order, thread count or
    /// cache state.
    [[nodiscard]] SweepResult
    run(std::span<const core::ScenarioSpec> scenarios) const;

    /// Evaluates a compiled (catalog / sampler) batch and folds the
    /// outcomes into the importance-weighted aggregate. Determinism is
    /// run()'s plus: the aggregate depends only on per-scenario outcomes
    /// and the batch's weights.
    [[nodiscard]] BatchSweepResult runBatch(const ScenarioBatch& batch) const;

    /// The aggregation rule behind runBatch, exposed for re-aggregating
    /// an existing result under different weights. `weights` must be 1:1
    /// with `result.scenarios`; every weight must be finite and > 0.
    [[nodiscard]] static WeightedAggregate
    aggregate(const SweepResult& result, std::span<const double> weights);

    [[nodiscard]] const core::Substrate& substrate() const {
        return *substrate_;
    }
    [[nodiscard]] const SweepOptions& options() const { return options_; }

private:
    const core::Substrate* substrate_;
    SweepOptions options_;
};

} // namespace aio::sweep
