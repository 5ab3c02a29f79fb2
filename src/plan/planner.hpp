#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/budget.hpp"
#include "core/setcover.hpp"
#include "core/substrate.hpp"
#include "exec/cancel.hpp"
#include "netbase/expected.hpp"
#include "plan/question.hpp"
#include "sweep/scenario_sweep.hpp"

namespace aio::plan {

/// What one planned unit of work is, at the level the executors speak.
enum class TaskKind : std::uint8_t {
    /// Audit a country's top sites' hosting classes (ContentLocality).
    ContentAudit,
    /// Sample eyeball pairs out of one country and classify their routes
    /// (DetourRate).
    DetourSample,
    /// Evaluate one ScenarioSpec through the sweep engine
    /// (OutageExposure).
    ScenarioSweep,
    /// Traceroute from one chosen vantage toward its exchanges
    /// (IxpCoverage).
    VantageProbe,
};

[[nodiscard]] std::string_view taskKindName(TaskKind kind);

/// One schedulable unit of a compiled campaign. Everything the executor
/// needs is in the task — execution is a pure function of (substrate,
/// task), never of batch order or thread count.
struct PlannedTask {
    std::string id; ///< "<question>/<kind>/<scope>" — keys the rng streams
    TaskKind kind = TaskKind::ContentAudit;
    std::string country;          ///< scope country (empty for sweeps)
    topo::AsIndex vantage = 0;    ///< serving vantage AS
    std::size_t samples = 0;      ///< pairs sampled / sites audited
    double payloadMb = 0.0;       ///< application-level Mb budgeted
    double utility = 1.0;         ///< scientific value (budget ordering)
    /// The budget scheduler elected to run this task off-peak; estimate
    /// and execution bill under the same tariff window, so the two can
    /// never disagree about the discount.
    bool offPeak = false;
    /// Set at plan time when the snapshot's oracle cache already holds
    /// this task's degraded routing state (digest peek): the answer is
    /// computable from the snapshot, so the task bills the cheap
    /// answer-retrieval cost instead of fresh computation.
    bool prunedByCache = false;
    /// ScenarioSweep payload.
    std::optional<core::ScenarioSpec> scenario;

    [[nodiscard]] bool operator==(const PlannedTask&) const = default;
};

/// How much of what was asked the plan will actually answer.
struct CoverageEstimate {
    std::size_t countriesRequested = 0;
    std::size_t countriesPlanned = 0; ///< scheduled inside the budget
    std::size_t ixpsCovered = 0;      ///< by the chosen vantage set
    std::size_t ixpsTotal = 0;

    [[nodiscard]] double countryShare() const {
        return countriesRequested == 0
                   ? 1.0
                   : static_cast<double>(countriesPlanned) /
                         static_cast<double>(countriesRequested);
    }

    [[nodiscard]] bool operator==(const CoverageEstimate&) const = default;
};

/// The pre-execution promise: what the campaign will cost and cover.
/// `wireMb` accounts packet overhead (the §7.1 lesson — bill what the
/// wire carries, not what the application sends); `maxWireMb` adds the
/// planner's stated retransmission-jitter bound, and execution verifies
/// actual billed megabytes always land in [wireMb, maxWireMb].
struct CampaignEstimate {
    double wireMb = 0.0;
    double maxWireMb = 0.0;
    double costUsd = 0.0; ///< wireMb under the planner's pricing model
    std::size_t tasks = 0;
    std::size_t prunedTasks = 0; ///< answered from the snapshot's cache
    CoverageEstimate coverage;

    [[nodiscard]] bool operator==(const CampaignEstimate&) const = default;
};

/// A compiled campaign: vantages, budget-ordered tasks, and the estimate.
/// Deterministic — a pure value of (question, substrate, PlannerConfig),
/// independent of thread count and wall clock; digest() is the byte-level
/// identity the determinism tests compare.
struct CampaignPlan {
    MeasurementQuestion question;
    std::vector<topo::AsIndex> vantages; ///< greedy set-cover output
    std::vector<PlannedTask> tasks;      ///< execution order
    /// Tasks the budget could not fit (kept for coverage accounting and
    /// the "shrink the request" conversation with the tenant).
    std::vector<PlannedTask> dropped;
    CampaignEstimate estimate;

    [[nodiscard]] bool operator==(const CampaignPlan&) const = default;

    /// FNV-1a over the canonical byte encoding of every field above.
    [[nodiscard]] std::uint64_t digest() const;
};

/// Per-country answer rows plus the scope-wide headline number. What
/// `value` means depends on the question kind: African-hosted content
/// share, detour share, page-load loss, or IXPs covered.
struct CampaignAnswer {
    struct Row {
        std::string country;
        double value = 0.0;
        std::size_t samples = 0;

        [[nodiscard]] bool operator==(const Row&) const = default;
    };
    std::vector<Row> rows; ///< sorted by country code
    double overall = 0.0;

    [[nodiscard]] bool operator==(const CampaignAnswer&) const = default;
};

/// The executed, billed outcome, with the estimate held to account.
struct CampaignReport {
    CampaignAnswer answer;
    double actualWireMb = 0.0;  ///< megabytes the wire actually carried
    double actualCostUsd = 0.0; ///< under the planner's pricing model
    std::size_t tasksRun = 0;
    std::size_t tasksPruned = 0;
    /// actual/estimate - 1; non-negative, and at most the planner's
    /// retransmission-jitter bound when `withinBound` holds.
    double estimateErrorShare = 0.0;
    /// actualWireMb landed inside [estimate.wireMb, estimate.maxWireMb].
    bool withinBound = false;

    [[nodiscard]] bool operator==(const CampaignReport&) const = default;
};

/// Cost model and knobs of the planner. Costs are application-level
/// megabytes; the packet-overhead factor and the execution-time
/// retransmission jitter ride on top, exactly as the budget scheduler
/// accounts probe traffic.
struct PlannerConfig {
    /// Mb per sampled traceroute pair (DetourSample / VantageProbe).
    double traceMbPerSample = 0.004;
    /// Mb per audited site (ContentAudit).
    double auditMbPerSite = 0.002;
    /// Mb to retrieve one scenario's freshly computed what-if answer.
    double sweepAnswerMb = 0.25;
    /// Mb to retrieve a scenario answer already resident in the
    /// snapshot's oracle cache (the digest-peek prune).
    double cachedAnswerMb = 0.01;
    /// Stated upper bound on execution-time retransmission jitter: the
    /// wire may carry up to this share more than the overhead-adjusted
    /// estimate, never less. The estimate-vs-actual harness pins it.
    double retransJitterMax = 0.10;
    /// Pricing the estimate (and the executed campaign) is billed under.
    core::PricingModel pricing{};
    /// Forwarded to the budget scheduler (packet accounting on, reuse
    /// on, off-peak on — the §7.1 defaults).
    core::SchedulerOptions scheduler{};

    /// Throws net::PreconditionError on non-finite/negative costs, a
    /// jitter bound outside [0, 1), or invalid pricing.
    void validate() const;
};

struct ExecuteOptions {
    /// Optional cancellation/deadline token (not owned): checked between
    /// tasks and propagated into the sweep engine, the service's
    /// deadline-bounded-answer path.
    const exec::CancelToken* cancel = nullptr;
};

/// The question→campaign compiler (ROADMAP's front door): resolves the
/// question's scope, picks vantages by greedy IXP set cover, prices every
/// task, prunes work already computable from the substrate's oracle
/// cache (digest peeks — nothing is built at plan time), orders tasks
/// budget-aware through core::BudgetScheduler, and emits the
/// cost/coverage estimate *before* anything executes. execute() lowers
/// the plan onto the existing engines (ScenarioSweepEngine for what-if
/// tasks, oracle/path sampling for measurement tasks) and verifies the
/// estimate against actual billed megabytes.
class CampaignPlanner {
public:
    /// `substrate` is borrowed and must outlive the planner.
    explicit CampaignPlanner(const core::Substrate& substrate,
                             PlannerConfig config = {});

    /// Compiles the question into a plan, or returns the typed
    /// validation failure as a value.
    [[nodiscard]] net::Expected<CampaignPlan>
    compile(const MeasurementQuestion& question) const;

    /// Executes a compiled plan. Deterministic: a pure function of
    /// (substrate, plan) — per-task rng streams are keyed by task id, so
    /// neither thread count nor execution interleaving can shift a
    /// sample. Raises net::CancelledError when the token fires.
    [[nodiscard]] CampaignReport
    execute(const CampaignPlan& plan, const ExecuteOptions& options = {}) const;

    [[nodiscard]] const core::Substrate& substrate() const {
        return *substrate_;
    }
    [[nodiscard]] const PlannerConfig& config() const { return config_; }

private:
    struct Scope {
        std::vector<std::string> countries; ///< sorted ISO codes
        core::SetCoverResult cover;
    };

    [[nodiscard]] net::Expected<Scope>
    resolveScope(const MeasurementQuestion& question) const;
    [[nodiscard]] std::vector<PlannedTask>
    enumerateTasks(const MeasurementQuestion& question,
                   const Scope& scope) const;
    [[nodiscard]] topo::AsIndex
    vantageFor(std::string_view country,
               const std::vector<topo::AsIndex>& chosen) const;
    [[nodiscard]] double taskPayloadMb(const PlannedTask& task) const;

    const core::Substrate* substrate_;
    PlannerConfig config_;
};

} // namespace aio::plan
