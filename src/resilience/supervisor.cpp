#include "resilience/supervisor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "netbase/error.hpp"
#include "persist/bytes.hpp"

namespace aio::resilience {

void SupervisorConfig::validate() const {
    AIO_EXPECTS(retry.maxAttempts >= 1,
                "retry policy needs at least one attempt");
    AIO_EXPECTS(retry.baseBackoffHours > 0.0, "backoff must be positive");
    AIO_EXPECTS(retry.backoffMultiplier >= 1.0, "backoff must not shrink");
    AIO_EXPECTS(retry.jitterFraction >= 0.0 &&
                    retry.jitterFraction < 1.0,
                "jitter fraction must be in [0, 1)");
    AIO_EXPECTS(retry.maxBackoffHours >= retry.baseBackoffHours,
                "backoff cap must not undercut the base backoff");
    AIO_EXPECTS(deadlineBudgetHours > 0.0,
                "deadline budget must be a positive horizon");
    AIO_EXPECTS(taskSpacingHours > 0.0, "task spacing must be positive");
    AIO_EXPECTS(taskMb >= 0.0, "task volume must be non-negative");
    AIO_EXPECTS(budgetFraction > 0.0 && budgetFraction <= 1.0,
                "budget fraction must be in (0, 1]");
    AIO_EXPECTS(maxReassignments >= 0,
                "reassignment cap must be non-negative");
    AIO_EXPECTS(checkpointInterval >= 1,
                "checkpoint interval must be at least 1");
}

CampaignSupervisor::CampaignSupervisor(const core::Observatory& observatory,
                                       SupervisorConfig config,
                                       obs::MetricsRegistry* metrics,
                                       obs::Trace* trace)
    : observatory_(&observatory), config_(config), metrics_(metrics),
      trace_(trace) {
    config.validate();
}

namespace {

/// One task attempt waiting for its launch slot. Ordered by (readyHour,
/// seq): the seq tie-break makes the schedule — and therefore every Rng
/// draw — fully deterministic even when launch times collide. The total
/// order is also what makes the pending queue checkpointable: a binary
/// heap rebuilt from a snapshot pops in the identical sequence no matter
/// how its internal array is arranged.
struct Pending {
    double readyHour = 0.0;
    std::uint64_t seq = 0;
    std::size_t taskIdx = 0;
    int attempt = 0; ///< attempts already made on the current probe
    int reassignments = 0;
};

struct PendingLater {
    bool operator()(const Pending& a, const Pending& b) const {
        if (a.readyHour != b.readyHour) {
            return a.readyHour > b.readyHour;
        }
        return a.seq > b.seq;
    }
};

/// Digest of the campaign plan a journal belongs to: every task (probe,
/// source AS, target) plus every fault window. Resume refuses a journal
/// whose digest disagrees with what the caller hands it.
std::uint64_t planDigest(std::span<const core::CampaignTask> tasks,
                         const FaultPlan& plan) {
    persist::ByteWriter w;
    w.u64(tasks.size());
    for (const core::CampaignTask& task : tasks) {
        w.u64(task.probeIndex);
        w.u64(task.srcAs);
        w.u32(task.target.value());
    }
    w.u64(plan.probeCount());
    for (std::size_t p = 0; p < plan.probeCount(); ++p) {
        const auto& windows = plan.windowsFor(p);
        w.u64(windows.size());
        for (const FaultWindow& window : windows) {
            w.u8(static_cast<std::uint8_t>(window.cls));
            w.f64(window.startHour);
            w.f64(window.endHour);
        }
    }
    return persist::fnv1a64(w.bytes());
}

std::uint64_t configDigest(const SupervisorConfig& config) {
    persist::ByteWriter w;
    w.boolean(config.retry.enabled);
    w.i32(config.retry.maxAttempts);
    w.f64(config.retry.baseBackoffHours);
    w.f64(config.retry.backoffMultiplier);
    w.f64(config.retry.jitterFraction);
    w.f64(config.retry.maxBackoffHours);
    w.f64(config.deadlineBudgetHours);
    w.boolean(config.reassignOnFailure);
    w.f64(config.taskSpacingHours);
    w.f64(config.taskMb);
    w.f64(config.budgetFraction);
    w.i32(config.maxReassignments);
    w.i32(config.checkpointInterval);
    return persist::fnv1a64(w.bytes());
}

/// The replayable task cursor the supervisor loop runs on. All campaign
/// progress lives in members that `checkpoint()` can snapshot and
/// `restore()` can rebuild, so the loop continues identically whether it
/// started fresh or from a journal.
class Runner {
public:
    Runner(const core::Observatory& observatory,
           const SupervisorConfig& config, FaultInjector& injector,
           net::Rng& rng, obs::MetricsRegistry* metrics = nullptr,
           obs::Trace* trace = nullptr)
        : observatory_(&observatory), config_(&config),
          injector_(&injector), rng_(&rng), metrics_(metrics),
          trace_(trace) {
        if (metrics != nullptr) {
            // The backoff histogram is fed per retry (a domain value the
            // report cannot reconstruct); the reference is resolved once
            // because registry references are stable for its lifetime.
            backoffHours_ = &metrics->histogram("supervisor.backoff_hours");
        }
    }

    /// Seeds the launch schedule for a fresh campaign.
    void init(std::span<const core::CampaignTask> tasks) {
        const core::ProbeFleet& fleet = observatory_->fleet();
        current_.assign(tasks.begin(), tasks.end());
        result_ = {};
        result_.degradation.tasksPlanned = static_cast<int>(tasks.size());
        // Probes drain their queues in parallel: task k of a probe
        // launches at k * spacing, independent of the rest of the fleet.
        std::vector<double> probeNextSlot(fleet.size(), 0.0);
        heap_.clear();
        heap_.reserve(tasks.size());
        for (std::size_t i = 0; i < current_.size(); ++i) {
            AIO_EXPECTS(current_[i].probeIndex < fleet.size(),
                        "task references a probe outside the fleet");
            double& slot = probeNextSlot[current_[i].probeIndex];
            push({slot, seq_++, i, 0, 0});
            slot += config_->taskSpacingHours;
        }
    }

    /// Rebuilds mid-campaign state from a checkpoint: task assignments,
    /// pending queue, partial result, Rng stream and billing meters.
    void restore(std::span<const core::CampaignTask> tasks,
                 const persist::CampaignCheckpoint& cp) {
        const core::ProbeFleet& fleet = observatory_->fleet();
        if (cp.assignments.size() != tasks.size()) {
            throw net::CorruptionError{
                "checkpoint covers " +
                std::to_string(cp.assignments.size()) +
                " tasks, campaign has " + std::to_string(tasks.size())};
        }
        if (cp.meters.size() != fleet.size()) {
            throw net::CorruptionError{
                "checkpoint covers " + std::to_string(cp.meters.size()) +
                " probes, fleet has " + std::to_string(fleet.size())};
        }
        current_.assign(tasks.begin(), tasks.end());
        for (std::size_t i = 0; i < current_.size(); ++i) {
            const persist::TaskAssignment& a = cp.assignments[i];
            if (a.probeIndex >= fleet.size()) {
                throw net::CorruptionError{
                    "checkpoint assigns a probe outside the fleet"};
            }
            current_[i].probeIndex = static_cast<std::size_t>(a.probeIndex);
            current_[i].srcAs = static_cast<topo::AsIndex>(a.srcAs);
        }
        heap_.clear();
        heap_.reserve(cp.pending.size());
        for (const persist::PendingTask& p : cp.pending) {
            if (p.taskIdx >= current_.size()) {
                throw net::CorruptionError{
                    "checkpoint queues a task outside the plan"};
            }
            heap_.push_back({p.readyHour, p.seq,
                             static_cast<std::size_t>(p.taskIdx),
                             p.attempt, p.reassignments});
        }
        std::make_heap(heap_.begin(), heap_.end(), PendingLater{});
        seq_ = cp.nextSeq;
        outcomes_ = cp.outcomesApplied;
        result_ = cp.result;
        rng_->restore(cp.rngState);
        injector_->restoreMeterStates(cp.meters);
    }

    [[nodiscard]] bool done() const { return heap_.empty(); }
    [[nodiscard]] std::uint64_t outcomes() const { return outcomes_; }

    /// Settles the next pending attempt and reports what happened —
    /// exactly one journal outcome record per call.
    persist::TaskOutcomeRecord step() {
        std::pop_heap(heap_.begin(), heap_.end(), PendingLater{});
        Pending item = heap_.back();
        heap_.pop_back();
        const double clock = item.readyHour;
        const std::size_t probe = current_[item.taskIdx].probeIndex;
        core::DegradationReport& report = result_.degradation;

        persist::TaskOutcomeRecord outcome;
        outcome.taskIdx = item.taskIdx;
        outcome.clockHour = clock;

        const auto abandon = [&](FaultClass cause) {
            ++report.abandoned;
            ++report.lossByFaultClass[std::string{faultClassName(cause)}];
            outcome.kind = persist::TaskOutcomeKind::Abandoned;
            outcome.faultClass = static_cast<std::uint8_t>(cause);
        };

        // Moves the task to the first same-country sibling that is not
        // permanently gone; otherwise the task must be abandoned.
        const auto tryReassign = [&](FaultClass cause) {
            if (config_->reassignOnFailure &&
                item.reassignments < config_->maxReassignments) {
                const std::size_t from = current_[item.taskIdx].probeIndex;
                const core::ProbeFleet& fleet = observatory_->fleet();
                for (const std::size_t sibling :
                     fleet.siblingsInCountry(from)) {
                    const ProbeStatus status =
                        injector_->statusAt(sibling, clock);
                    if (status == ProbeStatus::Dead ||
                        status == ProbeStatus::BundleDry) {
                        continue;
                    }
                    current_[item.taskIdx].probeIndex = sibling;
                    current_[item.taskIdx].srcAs =
                        fleet.probe(sibling).hostAs;
                    ++report.reassigned;
                    push({clock + config_->taskSpacingHours, seq_++,
                          item.taskIdx, 0, item.reassignments + 1});
                    outcome.kind = persist::TaskOutcomeKind::Reassigned;
                    outcome.faultClass = static_cast<std::uint8_t>(cause);
                    return;
                }
            }
            abandon(cause);
        };

        const auto retryOrAbandon = [&](FaultClass cause) {
            if (item.attempt < config_->retry.attemptBudget()) {
                const double exponent =
                    std::pow(config_->retry.backoffMultiplier,
                             static_cast<double>(item.attempt - 1));
                const double jitter =
                    1.0 + config_->retry.jitterFraction *
                              (2.0 * rng_->uniform01() - 1.0);
                // Clamp the exponential term *before* jitter: at high
                // attempt counts pow() overflows double to inf, which
                // would poison the f64 journal field and wrap the u64
                // nanosecond deadline conversion downstream. The
                // !(x <= cap) form also catches NaN. Post-clamp jitter
                // keeps capped retries spread instead of thundering in
                // on one instant.
                double scaled =
                    config_->retry.baseBackoffHours * exponent;
                if (!(scaled <= config_->retry.maxBackoffHours)) {
                    scaled = config_->retry.maxBackoffHours;
                }
                const double backoff = scaled * jitter;
                if (clock + backoff >= config_->deadlineBudgetHours) {
                    // The retry could never settle inside the deadline
                    // budget: spending bytes on it would bill the
                    // tenant for an answer nobody can use.
                    abandon(cause);
                    return;
                }
                ++report.retries;
                push({clock + backoff, seq_++, item.taskIdx, item.attempt,
                      item.reassignments});
                outcome.kind = persist::TaskOutcomeKind::Retried;
                outcome.faultClass = static_cast<std::uint8_t>(cause);
                if (backoffHours_ != nullptr) {
                    // Domain value, not a wall-clock reading: identical
                    // under any obs clock, so it survives the
                    // determinism grid.
                    backoffHours_->record(backoff);
                }
                return;
            }
            abandon(cause);
        };

        switch (injector_->statusAt(probe, clock)) {
        case ProbeStatus::Dead:
            tryReassign(FaultClass::PermanentFailure);
            break;
        case ProbeStatus::BundleDry:
            tryReassign(FaultClass::BundleExhausted);
            break;
        case ProbeStatus::PowerDown:
            // No power, nothing sent, nothing billed: the task times out.
            ++item.attempt;
            ++report.attempts;
            ++report.transientTimeouts;
            retryOrAbandon(FaultClass::PowerLoss);
            break;
        case ProbeStatus::TransitDown:
            // The probe is up and probing into a black hole: the attempt
            // times out but its packets still bill against the SIM —
            // retries consume budget (§7.1's cost-consciousness).
            ++item.attempt;
            ++report.attempts;
            ++report.transientTimeouts;
            if (!injector_->chargeTask(probe, config_->taskMb, false)) {
                tryReassign(FaultClass::BundleExhausted);
            } else {
                retryOrAbandon(FaultClass::TransitLoss);
            }
            break;
        case ProbeStatus::Up:
            if (!injector_->chargeTask(probe, config_->taskMb, false)) {
                tryReassign(FaultClass::BundleExhausted);
                break;
            }
            ++item.attempt;
            ++report.attempts;
            observatory_->executeTask(current_[item.taskIdx], *rng_,
                                      result_);
            ++report.completed;
            outcome.kind = persist::TaskOutcomeKind::Completed;
            break;
        }
        ++outcomes_;
        return outcome;
    }

    [[nodiscard]] persist::CampaignCheckpoint checkpoint() const {
        persist::CampaignCheckpoint cp;
        cp.outcomesApplied = outcomes_;
        cp.nextSeq = seq_;
        cp.rngState = rng_->state();
        cp.result = result_;
        cp.assignments.reserve(current_.size());
        for (const core::CampaignTask& task : current_) {
            cp.assignments.push_back(
                {task.probeIndex, static_cast<std::uint64_t>(task.srcAs)});
        }
        cp.pending.reserve(heap_.size());
        for (const Pending& p : heap_) {
            cp.pending.push_back({p.readyHour, p.seq, p.taskIdx, p.attempt,
                                  p.reassignments});
        }
        cp.meters = injector_->meterStates();
        return cp;
    }

    /// Publishes the settlement counters accumulated in the degradation
    /// report (and the matching trace count nodes) as deltas since the
    /// previous publish. Batched on the checkpoint cadence by runLoop:
    /// per-settlement atomic bumps and trace lookups cost more than a
    /// whole settlement step does (bench_perf_micro's Observed rows hold
    /// the overhead under 2%, which per-event publishing blows through).
    void publishObservability() {
        const core::DegradationReport& report = result_.degradation;
        const auto delta = [](std::uint64_t now, std::uint64_t& prev) {
            const std::uint64_t d = now - prev;
            prev = now;
            return d;
        };
        const auto intDelta = [&delta](int now, std::uint64_t& prev) {
            return delta(static_cast<std::uint64_t>(now), prev);
        };
        Published& prev = published_;
        const std::uint64_t attempts =
            intDelta(report.attempts, prev.attempts);
        const std::uint64_t retries = intDelta(report.retries, prev.retries);
        const std::uint64_t reassigned =
            intDelta(report.reassigned, prev.reassigned);
        const std::uint64_t abandoned =
            intDelta(report.abandoned, prev.abandoned);
        const std::uint64_t completed =
            intDelta(report.completed, prev.completed);
        const std::uint64_t timeouts =
            intDelta(report.transientTimeouts, prev.transientTimeouts);
        const std::uint64_t settlements = delta(outcomes_, prev.settlements);
        if (metrics_ != nullptr) {
            metrics_->counter("supervisor.attempts").add(attempts);
            metrics_->counter("supervisor.retries").add(retries);
            metrics_->counter("supervisor.reassignments").add(reassigned);
            metrics_->counter("supervisor.abandoned").add(abandoned);
            metrics_->counter("supervisor.completed").add(completed);
            metrics_->counter("supervisor.transient_timeouts").add(timeouts);
            metrics_->counter("supervisor.settlements").add(settlements);
            for (const auto& [cls, lost] : report.lossByFaultClass) {
                const std::uint64_t d = intDelta(lost, prev.loss[cls]);
                if (d > 0) {
                    metrics_->counter("supervisor.loss." + cls).add(d);
                }
            }
        }
        if (trace_ != nullptr) {
            // Count nodes under the innermost open span (the drain phase):
            // per-kind settlement totals without per-event clock reads.
            trace_->count("attempt", attempts);
            trace_->count("settle.completed", completed);
            trace_->count("settle.retried", retries);
            trace_->count("settle.reassigned", reassigned);
            trace_->count("settle.abandoned", abandoned);
        }
    }

    /// Final accounting once the queue drains.
    core::CampaignResult finish() {
        core::DegradationReport& report = result_.degradation;
        report.probesExhausted = injector_->exhaustedCount();
        report.completionRatio =
            report.tasksPlanned > 0
                ? static_cast<double>(report.completed) /
                      report.tasksPlanned
                : 0.0;
        return std::move(result_);
    }

private:
    void push(Pending item) {
        heap_.push_back(item);
        std::push_heap(heap_.begin(), heap_.end(), PendingLater{});
    }

    const core::Observatory* observatory_;
    const SupervisorConfig* config_;
    FaultInjector* injector_;
    net::Rng* rng_;
    obs::MetricsRegistry* metrics_ = nullptr;
    obs::Trace* trace_ = nullptr;
    obs::Histogram* backoffHours_ = nullptr;

    /// Snapshot of the report values already pushed into the registry,
    /// so publishObservability() adds exact deltas.
    struct Published {
        std::uint64_t attempts = 0;
        std::uint64_t retries = 0;
        std::uint64_t reassigned = 0;
        std::uint64_t abandoned = 0;
        std::uint64_t completed = 0;
        std::uint64_t transientTimeouts = 0;
        std::uint64_t settlements = 0;
        std::map<std::string, std::uint64_t> loss;
    };
    Published published_;

    std::vector<core::CampaignTask> current_; ///< reassignment mutates
    std::vector<Pending> heap_;               ///< std::*_heap, PendingLater
    std::uint64_t seq_ = 0;
    std::uint64_t outcomes_ = 0; ///< settlements since campaign start
    core::CampaignResult result_;
};

/// Drains the cursor, journaling each settlement and checkpointing on the
/// configured cadence when a journal is attached.
core::CampaignResult runLoop(Runner& runner,
                             persist::CampaignJournal* journal,
                             int checkpointInterval, obs::Trace* trace) {
    {
        const obs::Span drain = obs::Trace::enter(trace, "drain");
        while (!runner.done()) {
            const persist::TaskOutcomeRecord outcome = runner.step();
            if (journal != nullptr) {
                journal->appendOutcome(outcome);
                if (runner.outcomes() %
                        static_cast<std::uint64_t>(checkpointInterval) ==
                    0) {
                    // Publish before the checkpoint span opens so the
                    // count nodes land under "drain", not "checkpoint".
                    runner.publishObservability();
                    const obs::Span checkpoint =
                        obs::Trace::enter(trace, "checkpoint");
                    journal->appendCheckpoint(runner.checkpoint());
                }
            }
        }
        runner.publishObservability();
    }
    const obs::Span finish = obs::Trace::enter(trace, "finish");
    return runner.finish();
}

} // namespace

core::CampaignResult
CampaignSupervisor::run(std::span<const core::CampaignTask> tasks,
                        FaultInjector& injector, net::Rng& rng) const {
    Runner runner{*observatory_, config_, injector, rng, metrics_, trace_};
    const obs::Span campaign = obs::Trace::enter(trace_, "run");
    {
        const obs::Span init = obs::Trace::enter(trace_, "init");
        runner.init(tasks);
    }
    return runLoop(runner, nullptr, config_.checkpointInterval, trace_);
}

core::CampaignResult
CampaignSupervisor::runJournaled(std::span<const core::CampaignTask> tasks,
                                 FaultInjector& injector, net::Rng& rng,
                                 persist::ByteSink& sink) const {
    persist::CampaignJournal journal{sink, metrics_};
    persist::CampaignHeader header;
    header.planDigest = planDigest(tasks, injector.plan());
    header.configDigest = configDigest(config_);
    header.initialRngState = rng.state();
    header.taskCount = tasks.size();
    header.probeCount = observatory_->fleet().size();
    header.checkpointInterval =
        static_cast<std::uint32_t>(config_.checkpointInterval);
    header.resumedAtOutcome = 0;

    Runner runner{*observatory_, config_, injector, rng, metrics_, trace_};
    const obs::Span campaign = obs::Trace::enter(trace_, "run");
    {
        const obs::Span init = obs::Trace::enter(trace_, "init");
        journal.writeHeader(header);
        runner.init(tasks);
    }
    return runLoop(runner, &journal, config_.checkpointInterval, trace_);
}

core::CampaignResult CampaignSupervisor::resumeFromJournal(
    std::span<const std::byte> journal,
    std::span<const core::CampaignTask> tasks, FaultInjector& injector,
    net::Rng& rng, persist::ByteSink* continuation) const {
    const obs::Span campaign = obs::Trace::enter(trace_, "resume");
    persist::CampaignJournal::Replay replay;
    {
        const obs::Span replaySpan = obs::Trace::enter(trace_, "replay");
        replay = persist::CampaignJournal::replay(journal, metrics_);
    }

    if (replay.header) {
        const persist::CampaignHeader& header = *replay.header;
        AIO_EXPECTS(header.planDigest ==
                            planDigest(tasks, injector.plan()) &&
                        header.taskCount == tasks.size() &&
                        header.probeCount == observatory_->fleet().size(),
                    "journal belongs to a different campaign plan");
        AIO_EXPECTS(header.configDigest == configDigest(config_),
                    "journal was written under a different supervisor "
                    "config");
        // A continuation journal's header captures mid-campaign Rng
        // state; without its anchor checkpoint (torn away by a crash
        // between writeHeader and the anchor) the journal cannot rebuild
        // the queue or result and must not be replayed "fresh".
        AIO_EXPECTS(replay.checkpoint.has_value() ||
                        header.resumedAtOutcome == 0,
                    "continuation journal lost its anchor checkpoint; "
                    "resume from the previous journal in the chain");
    }

    Runner runner{*observatory_, config_, injector, rng, metrics_, trace_};
    std::uint64_t startOutcomes = 0;
    {
        const obs::Span restore = obs::Trace::enter(trace_, "restore");
        if (replay.checkpoint) {
            runner.restore(tasks, *replay.checkpoint);
            startOutcomes = replay.checkpoint->outcomesApplied;
        } else {
            // Nothing durable beyond (at most) the header: replay the
            // whole campaign from its recorded initial Rng state.
            if (replay.header) {
                rng.restore(replay.header->initialRngState);
            }
            runner.init(tasks);
        }
    }

    if (continuation == nullptr) {
        return runLoop(runner, nullptr, config_.checkpointInterval,
                       trace_);
    }

    persist::CampaignJournal next{*continuation, metrics_};
    persist::CampaignHeader header;
    header.planDigest = planDigest(tasks, injector.plan());
    header.configDigest = configDigest(config_);
    header.initialRngState = rng.state();
    header.taskCount = tasks.size();
    header.probeCount = observatory_->fleet().size();
    header.checkpointInterval =
        static_cast<std::uint32_t>(config_.checkpointInterval);
    header.resumedAtOutcome = startOutcomes;
    next.writeHeader(header);
    if (replay.checkpoint) {
        // Re-anchor immediately: the restored state is not derivable from
        // the continuation's header alone, so a second crash must find it
        // as this journal's first checkpoint.
        next.appendCheckpoint(*replay.checkpoint);
    }
    return runLoop(runner, &next, config_.checkpointInterval, trace_);
}

core::CampaignResult
CampaignSupervisor::runIxpDiscovery(const FaultPlan& plan,
                                    net::Rng& rng) const {
    const auto tasks = observatory_->ixpDiscoveryTasks(rng);
    FaultInjector injector{observatory_->fleet(), plan,
                           config_.budgetFraction};
    return run(tasks, injector, rng);
}

core::CampaignResult
CampaignSupervisor::runFaultFreeOracle(net::Rng& rng) const {
    const auto tasks = observatory_->ixpDiscoveryTasks(rng);
    // The oracle is fault-free in every class, including bundle
    // exhaustion, so its budget is unlimited; tasks are still metered.
    FaultInjector injector{observatory_->fleet(),
                           FaultPlan::none(observatory_->fleet().size()),
                           std::numeric_limits<double>::infinity()};
    return run(tasks, injector, rng);
}

double CampaignSupervisor::routableTaskShare(
    std::span<const core::CampaignTask> tasks,
    const route::LinkFilter& scenario, route::OracleCache& cache) const {
    const topo::Topology& topo = observatory_->topology();
    AIO_EXPECTS(&cache.topology() == &topo,
                "oracle cache bound to a different topology");
    if (tasks.empty()) {
        return 1.0;
    }
    const obs::Span preflight = obs::Trace::enter(trace_, "preflight");
    const obs::ScopedTimer timer{metrics_,
                                 "supervisor.routable_share_seconds"};
    const std::shared_ptr<const route::RouteOracle> oracle =
        cache.get(scenario);
    std::size_t routable = 0;
    for (const core::CampaignTask& task : tasks) {
        const auto dst = topo.originOf(task.target);
        if (dst && oracle->reachable(task.srcAs, *dst)) {
            ++routable;
        }
    }
    return static_cast<double>(routable) /
           static_cast<double>(tasks.size());
}

void attachOracleCoverage(core::CampaignResult& result,
                          const core::CampaignResult& oracle) {
    if (oracle.ixpsDetected.empty()) {
        result.degradation.coverageVsOracle = 1.0;
        return;
    }
    std::size_t kept = 0;
    for (const topo::IxpIndex ix : oracle.ixpsDetected) {
        kept += result.ixpsDetected.contains(ix) ? 1 : 0;
    }
    result.degradation.coverageVsOracle =
        static_cast<double>(kept) /
        static_cast<double>(oracle.ixpsDetected.size());
}

} // namespace aio::resilience
