#include "sweep/scenario_sweep.hpp"

#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "content/catalog.hpp"
#include "core/studies.hpp"
#include "netbase/error.hpp"
#include "exec/worker_pool.hpp"
#include "netbase/rng.hpp"
#include "routing/oracle_cache.hpp"
#include "routing/route_oracle.hpp"
#include "routing/sharded_oracle.hpp"

namespace aio::sweep {

namespace {

/// One validated, non-overlay scenario waiting on its degraded oracle.
struct PlainJob {
    std::size_t slot = 0; ///< index into the result vector
    outage::OutageEvent event;
    std::size_t oracleIndex = 0; ///< into the unique-oracle list
    /// Scoring stream, already advanced through filterFor exactly as
    /// WhatIfEngine::assess advances it — so scoring matches assess()
    /// byte for byte even if filter derivation ever starts drawing for
    /// cable cuts, with no cross-scenario stream sharing to make the
    /// batch order observable.
    net::Rng rng{0};
};

/// One unique cut-set routing state shared by >= 1 plain scenarios.
struct OracleJob {
    route::LinkFilter filter;
    /// Resolved, unless the state was scored destination-major.
    std::shared_ptr<const route::RouteOracle> oracle;
    bool fromCache = false;
    /// The routing half of every score against this state, computed once
    /// in the build phase.
    outage::RoutingImpact impact;
    /// Sampled detour share of this routing state; computed once per
    /// unique oracle when scenarioAggregates is requested.
    double detourShare = 0.0;
};

/// Mean page-load loss over the countries a report lists (they are the
/// loss > 0 set; no country means no loss).
double meanCountryLoss(const outage::ImpactReport& report) {
    if (report.countries.empty()) {
        return 0.0;
    }
    double sum = 0.0;
    for (const outage::CountryImpact& impact : report.countries) {
        sum += impact.pageLoadLoss;
    }
    return sum / static_cast<double>(report.countries.size());
}

/// Runs fn(i) for every i in [0, count), across the pool when one is
/// wired in. fn must write only to index-owned slots. A fired `cancel`
/// token stops the loop with net::CancelledError (between chunks on the
/// pool path, between indices sequentially).
void forEach(exec::WorkerPool* pool, std::size_t count,
             const std::function<void(std::size_t)>& fn,
             const exec::CancelToken* cancel) {
    if (pool != nullptr && count > 1) {
        pool->parallelFor(
            count, [&](std::size_t i, std::size_t) { fn(i); }, cancel);
    } else {
        for (std::size_t i = 0; i < count; ++i) {
            if (cancel != nullptr) {
                cancel->checkpoint();
            }
            fn(i);
        }
    }
}

} // namespace

ScenarioSweepEngine::ScenarioSweepEngine(const core::Substrate& substrate,
                                         SweepOptions options)
    : substrate_(&substrate), options_(options) {}

SweepResult
ScenarioSweepEngine::run(std::span<const core::ScenarioSpec> scenarios) const {
    obs::MetricsRegistry* metrics = substrate_->metrics();
    obs::Trace* trace = options_.trace;
    const obs::Span sweepSpan = obs::Trace::enter(trace, "sweep");
    const obs::ScopedTimer batchTimer{metrics, "sweep.batch_seconds"};

    const std::size_t n = scenarios.size();
    const outage::ImpactAnalyzer& analyzer = substrate_->analyzer();
    exec::WorkerPool* pool = substrate_->pool();
    route::OracleCache* cache = substrate_->oracleCache();
    const bool dedupe = options_.mode == RecomputeMode::Incremental;

    // Checked at every phase boundary (and inside forEach); a fired
    // token surfaces as net::CancelledError before any result assembly.
    const auto checkpoint = [&] {
        if (options_.cancel != nullptr) {
            options_.cancel->checkpoint();
        }
    };
    checkpoint();

    // Every degraded routing state is a from-scratch build under the
    // substrate's storage policy. pool=nullptr: builds run inside pool
    // lanes, and parallelFor is not reentrant.
    const auto buildDegraded = [&](const route::LinkFilter& filter) {
        return route::buildOracle(substrate_->topology(),
                                  substrate_->storagePolicy(), filter,
                                  nullptr,
                                  substrate_->impactConfig().shardedRouting);
    };

    const auto startedAt = std::chrono::steady_clock::now();
    SweepResult result;
    result.stats.scenarios = n;
    // Per-slot outcome staging: lanes write only their own slot, the
    // coordinating thread assembles the vector afterwards.
    std::vector<std::optional<net::Expected<outage::ImpactReport>>> slots(n);
    std::vector<std::optional<ScenarioAggregates>> aggSlots(n);
    // Content locality of the substrate's baseline catalog — shared by
    // every scenario that does not override content config.
    const double baselineLocalShare =
        options_.scenarioAggregates
            ? content::LocalityAnalyzer{substrate_->catalog()}
                  .overallLocalShare()
            : 0.0;

    // ---- plan: validate, split plain vs overlay, dedupe cut sets ----
    std::vector<PlainJob> plain;
    std::vector<std::size_t> overlay;
    std::vector<OracleJob> oracles;
    {
        const obs::Span planSpan = obs::Trace::enter(trace, "plan");
        std::unordered_map<route::FilterDigest, std::size_t,
                           route::FilterDigestHash>
            oracleByDigest;
        for (std::size_t i = 0; i < n; ++i) {
            const core::ScenarioSpec& spec = scenarios[i];
            if (auto valid = spec.validate(*substrate_); !valid) {
                slots[i].emplace(valid.error());
                continue;
            }
            if (spec.hasOverlay()) {
                overlay.push_back(i);
                continue;
            }
            PlainJob job;
            job.slot = i;
            // makeEvent canonicalizes the cut set (sorted, deduplicated),
            // so permuted or duplicated cut lists digest to one oracle
            // below instead of triggering redundant rebuilds.
            auto event = spec.makeEvent(substrate_->registry());
            if (!event) {
                slots[i].emplace(event.error());
                continue;
            }
            job.event = std::move(event.value());
            // Mirror WhatIfEngine::assess exactly: a fresh seed+7 stream
            // per scenario, advanced through filterFor, then handed to
            // scoring — each scenario's draws depend only on the
            // substrate seed and its own spec, never on batch order.
            net::Rng rng{substrate_->seed() + 7};
            route::LinkFilter filter = analyzer.filterFor(job.event, rng);
            job.rng = rng;
            if (dedupe) {
                const route::FilterDigest digest = filter.digest();
                if (const auto it = oracleByDigest.find(digest);
                    it != oracleByDigest.end()) {
                    job.oracleIndex = it->second;
                    ++result.stats.dedupHits;
                } else {
                    job.oracleIndex = oracles.size();
                    oracleByDigest.emplace(digest, oracles.size());
                    oracles.emplace_back().filter = std::move(filter);
                }
            } else {
                // Full reference mode: one build per scenario, no sharing.
                job.oracleIndex = oracles.size();
                oracles.emplace_back().filter = std::move(filter);
            }
            plain.push_back(std::move(job));
        }
    }

    // ---- build: resolve each unique degraded routing state and its
    // routing impact ----
    // Without a cache to fill or detour samples to draw, nothing reads a
    // state's routes beyond its routing impact, so the states are scored
    // destination-major and no oracle is built. Full mode stays the
    // build-per-scenario reference; a wired-in cache keeps receiving the
    // oracles it memoizes.
    const bool destinationMajor =
        dedupe && cache == nullptr && !options_.scenarioAggregates;
    {
        checkpoint();
        const obs::Span buildSpan = obs::Trace::enter(trace, "build");
        if (destinationMajor) {
            std::vector<const route::LinkFilter*> filters;
            filters.reserve(oracles.size());
            for (const OracleJob& job : oracles) {
                filters.push_back(&job.filter);
            }
            std::vector<double> seconds(metrics != nullptr ? oracles.size()
                                                           : 0);
            std::vector<outage::RoutingImpact> impacts =
                analyzer.routingImpacts(filters, options_.cancel, seconds);
            for (std::size_t j = 0; j < oracles.size(); ++j) {
                oracles[j].impact = std::move(impacts[j]);
            }
            for (const double s : seconds) {
                metrics->histogram("sweep.impact_seconds").record(s);
            }
            result.stats.incrementalBuilds = oracles.size();
            result.stats.dirtyDestinations =
                oracles.size() * analyzer.plannedDestinations();
        } else {
            if (cache != nullptr && dedupe) {
                // Cache lookups stay on the coordinating thread: a peek
                // never builds, so this is cheap, and it keeps lane work
                // lock-free.
                for (OracleJob& job : oracles) {
                    if (auto hit = cache->peek(job.filter)) {
                        job.oracle = std::move(hit);
                        job.fromCache = true;
                        ++result.stats.dedupHits;
                    }
                }
            }
            forEach(pool, oracles.size(), [&](std::size_t j) {
                OracleJob& job = oracles[j];
                if (job.oracle == nullptr) {
                    const obs::ScopedTimer buildTimer{metrics,
                                                      "sweep.build_seconds"};
                    job.oracle = buildDegraded(job.filter);
                }
                // Cache hits need it too: it depends only on the oracle,
                // which is the state every scenario sharing it scores
                // against.
                const obs::ScopedTimer impactTimer{metrics,
                                                   "sweep.impact_seconds"};
                job.impact = analyzer.routingImpact(*job.oracle);
            }, options_.cancel);
            for (const OracleJob& job : oracles) {
                if (job.fromCache) {
                    continue;
                }
                if (dedupe) {
                    ++result.stats.incrementalBuilds;
                } else {
                    ++result.stats.fullBuilds;
                }
            }
            if (cache != nullptr && dedupe) {
                for (const OracleJob& job : oracles) {
                    if (!job.fromCache) {
                        cache->seed(job.filter, job.oracle);
                    }
                }
            }
        }
    }

    // ---- aggregates: one detour study per unique routing state ----
    if (options_.scenarioAggregates) {
        checkpoint();
        const obs::Span aggSpan = obs::Trace::enter(trace, "aggregates");
        forEach(pool, oracles.size(), [&](std::size_t j) {
            OracleJob& job = oracles[j];
            const core::ConnectivityStudies studies{substrate_->topology(),
                                                    *job.oracle};
            // Fixed stream per routing state: the share depends only on
            // the substrate and the oracle's filter, never on batch
            // order, thread count or cache temperature.
            net::Rng rng{substrate_->seed() + 11};
            job.detourShare =
                studies.detourStudy(options_.detourSamplePairs, rng)
                    .overallDetourShare;
        }, options_.cancel);
    }

    // Solved rows of built oracles are read once the build phase's
    // routing-impact walks and the aggregates phase's detour samples are
    // done (scoring queries no oracle): a dense build solved every row at
    // construction, but a sharded one solves rows lazily as those queries
    // touch them — reading here reports what the batch actually paid.
    for (const OracleJob& job : oracles) {
        if (job.oracle != nullptr && !job.fromCache) {
            result.stats.dirtyDestinations += job.oracle->solvedRows();
        }
    }

    // ---- score: each plain scenario from its state's routing impact ----
    {
        checkpoint();
        const obs::Span scoreSpan = obs::Trace::enter(trace, "score");
        forEach(pool, plain.size(), [&](std::size_t k) {
            const obs::ScopedTimer scenarioTimer{
                metrics, "sweep.scenario_seconds"};
            const PlainJob& job = plain[k];
            // The job's stream was advanced through filterFor at plan
            // time exactly as assess() advances its own; scoring from a
            // lane-local copy continues it where assess() would.
            net::Rng rng = job.rng;
            slots[job.slot].emplace(analyzer.score(
                job.event, oracles[job.oracleIndex].impact, rng));
            if (options_.scenarioAggregates) {
                const outage::ImpactReport& report = slots[job.slot]->value();
                aggSlots[job.slot].emplace(ScenarioAggregates{
                    meanCountryLoss(report), report.resolutionDays(),
                    oracles[job.oracleIndex].detourShare,
                    baselineLocalShare});
            }
        }, options_.cancel);
        if (trace != nullptr && !plain.empty()) {
            trace->count("scenario", plain.size());
        }
    }

    // ---- overlay: scenarios that change a derived layer re-derive it ----
    {
        checkpoint();
        const obs::Span overlaySpan = obs::Trace::enter(trace, "overlay");
        forEach(pool, overlay.size(), [&](std::size_t k) {
            const obs::ScopedTimer scenarioTimer{
                metrics, "sweep.scenario_seconds"};
            const std::size_t slot = overlay[k];
            const core::ScenarioSpec& spec = scenarios[slot];
            phys::CableRegistry registry = substrate_->registry();
            for (const phys::SubseaCable& cable : spec.cablesAdded) {
                registry.addCable(cable);
            }
            // No cache / no pool inside a lane: the cache's miss path
            // builds with its own pool (reentrancy), and the overlay's
            // layers differ from the substrate's anyway. Results are
            // byte-identical either way (oracle content depends only on
            // topology + filter). The plan phase validated the spec, so
            // the overlay bundle passes Substrate's validation.
            core::Substrate::Options overlayOptions = substrate_->options();
            overlayOptions.linkConfig =
                spec.linkMapOverride.value_or(substrate_->linkConfig());
            overlayOptions.oracleCache = nullptr;
            overlayOptions.pool = nullptr;
            const core::Substrate overlaySubstrate{
                substrate_->topology(), std::move(registry),
                spec.dnsOverride.value_or(substrate_->dnsConfig()),
                spec.contentOverride.value_or(substrate_->contentConfig()),
                overlayOptions};
            // makeEvent resolves against the *augmented* registry and
            // canonicalizes the cut set; a cut-free event is an add-only
            // build-out future, scored against the overlay's own
            // (augmented) baseline.
            auto event = spec.makeEvent(overlaySubstrate.registry());
            if (!event) {
                slots[slot].emplace(event.error());
                return;
            }
            // Mirror WhatIfEngine::assess draw for draw — a fresh seed+7
            // stream advanced through filterFor, then scoring against the
            // overlay's baseline when nothing fails, else against a build
            // for the filter.
            const outage::ImpactAnalyzer& overlayAnalyzer =
                overlaySubstrate.analyzer();
            net::Rng rng{substrate_->seed() + 7};
            const route::LinkFilter filter =
                overlayAnalyzer.filterFor(*event, rng);
            const std::shared_ptr<const route::RouteOracle> degraded =
                filter.empty() ? overlayAnalyzer.baselineOracle()
                               : buildDegraded(filter);
            slots[slot].emplace(overlayAnalyzer.score(
                *event, overlayAnalyzer.routingImpact(*degraded), rng));
            if (options_.scenarioAggregates) {
                const outage::ImpactReport& report = slots[slot]->value();
                const core::ConnectivityStudies studies{
                    substrate_->topology(), *degraded};
                net::Rng detourRng{substrate_->seed() + 11};
                aggSlots[slot].emplace(ScenarioAggregates{
                    meanCountryLoss(report), report.resolutionDays(),
                    studies.detourStudy(options_.detourSamplePairs, detourRng)
                        .overallDetourShare,
                    content::LocalityAnalyzer{overlaySubstrate.catalog()}
                        .overallLocalShare()});
            }
        }, options_.cancel);
        result.stats.overlayScenarios = overlay.size();
        if (trace != nullptr && !overlay.empty()) {
            trace->count("scenario", overlay.size());
        }
    }

    // ---- assemble + publish ----
    result.scenarios.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (!slots[i]->hasValue()) {
            ++result.stats.errors;
        }
        result.scenarios.push_back(ScenarioResult{scenarios[i].name,
                                                  std::move(*slots[i]),
                                                  std::move(aggSlots[i])});
    }
    result.stats.elapsedSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      startedAt)
            .count();
    if (metrics != nullptr) {
        metrics->counter("sweep.scenarios").add(result.stats.scenarios);
        metrics->counter("sweep.errors").add(result.stats.errors);
        metrics->counter("sweep.dedup_hits").add(result.stats.dedupHits);
        metrics->counter("sweep.incremental_builds")
            .add(result.stats.incrementalBuilds);
        metrics->counter("sweep.full_builds").add(result.stats.fullBuilds);
        metrics->counter("sweep.dirty_destinations")
            .add(result.stats.dirtyDestinations);
        metrics->counter("sweep.overlay_scenarios")
            .add(result.stats.overlayScenarios);
        metrics->gauge("sweep.scenarios_per_sec")
            .set(result.stats.scenariosPerSec());
    }
    return result;
}

std::vector<core::ScenarioSpec> ScenarioBatch::specs() const {
    std::vector<core::ScenarioSpec> out;
    out.reserve(entries.size());
    for (const WeightedSpec& entry : entries) {
        out.push_back(entry.spec);
    }
    return out;
}

std::vector<double> ScenarioBatch::weights() const {
    std::vector<double> out;
    out.reserve(entries.size());
    for (const WeightedSpec& entry : entries) {
        out.push_back(entry.weight);
    }
    return out;
}

BatchSweepResult
ScenarioSweepEngine::runBatch(const ScenarioBatch& batch) const {
    BatchSweepResult out{run(batch.specs()), {}};
    out.aggregate = aggregate(out.sweep, batch.weights());
    if (obs::MetricsRegistry* metrics = substrate_->metrics()) {
        metrics->gauge("sweep.weighted_page_load_loss")
            .set(out.aggregate.meanPageLoadLoss);
        metrics->gauge("sweep.weighted_resolution_days")
            .set(out.aggregate.meanResolutionDays);
    }
    return out;
}

WeightedAggregate
ScenarioSweepEngine::aggregate(const SweepResult& result,
                               std::span<const double> weights) {
    AIO_EXPECTS(weights.size() == result.scenarios.size(),
                "weights must be 1:1 with scenarios");
    WeightedAggregate agg;
    for (std::size_t i = 0; i < result.scenarios.size(); ++i) {
        const ScenarioResult& scenario = result.scenarios[i];
        if (!scenario.outcome.hasValue()) {
            ++agg.errors;
            continue;
        }
        const double weight = weights[i];
        AIO_EXPECTS(std::isfinite(weight) && weight > 0.0,
                    "scenario weights must be finite and positive");
        agg.totalWeight += weight;
        ++agg.scored;
        const outage::ImpactReport& report = scenario.outcome.value();
        agg.meanPageLoadLoss += weight * meanCountryLoss(report);
        agg.meanResolutionDays += weight * report.resolutionDays();
        agg.meanImpactedCountries +=
            weight * static_cast<double>(report.impactedCountries().size());
        if (scenario.aggregates.has_value()) {
            agg.meanDetourShare += weight * scenario.aggregates->detourShare;
            agg.meanContentLocalShare +=
                weight * scenario.aggregates->contentLocalShare;
        }
    }
    if (agg.totalWeight > 0.0) {
        agg.meanPageLoadLoss /= agg.totalWeight;
        agg.meanResolutionDays /= agg.totalWeight;
        agg.meanImpactedCountries /= agg.totalWeight;
        agg.meanDetourShare /= agg.totalWeight;
        agg.meanContentLocalShare /= agg.totalWeight;
    }
    return agg;
}

} // namespace aio::sweep
