#pragma once

#include <cmath>
#include <cstdint>
#include <future>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "netbase/error.hpp"
#include "netbase/rng.hpp"
#include "persist/bytes.hpp"
#include "service/service.hpp"
#include "service_test_util.hpp"

// One seeded overload storm against a step-mode ObservatoryService:
// tenants submit a mixed query/whatif/sweep load while per-step faults
// slow handlers, swap topologies (some invalid), flood the queue and
// spike allocation pressure. Everything runs under a ManualClock on the
// calling thread, so a fixed seed reproduces the exact
// admission/shed/cancel decision sequence — that determinism is the
// acceptance check the report digest encodes.
namespace aio::service {

struct StormConfig {
    std::uint64_t seed = 4242;
    std::size_t steps = 160;
    std::size_t tenants = 4;
    double tenantBudgetUsd = 10.0;

    /// Request mix: query with this probability, else what-if with
    /// `whatIfShare` of the remainder, else sweep.
    double queryProb = 0.55;
    double whatIfShare = 0.6;
    std::size_t sweepScenarios = 3;

    /// Snapshots pre-built for rotation on topology swaps.
    std::size_t snapshotPool = 3;
    std::uint64_t topologySeed = 5;

    /// Service clock advance per step; slow-handler faults multiply it.
    std::uint64_t stepNanos = 1'000'000;
    /// Relative deadline stamped on each request
    /// (exec::kNoDeadlineNanos = none).
    std::uint64_t requestDeadlineNanos = 64'000'000;
    /// Requests executed per step (floods outpace this, growing the
    /// queue into the shed watermarks).
    std::size_t executePerStep = 1;

    /// Per-step fault rates. Each class attacks one of the service's
    /// concurrency or admission invariants: a slow handler eats its
    /// request's deadline budget, a topology swap publishes a new epoch
    /// under in-flight readers, a tenant flood bursts the queue past its
    /// watermarks, and alloc pressure spikes resident bytes (degrade,
    /// don't die).
    struct Faults {
        double slowHandlerProb = 0.0;
        /// Clock multiplier for a stalled step (>= 1).
        double slowFactor = 8.0;
        double topologySwapProb = 0.0;
        /// Fraction of swaps whose snapshot fails validation — the
        /// graceful-degradation (serve-stale) path.
        double invalidSwapProb = 0.0;
        double tenantFloodProb = 0.0;
        /// Requests a flooding step submits instead of one (>= 1).
        int floodBurst = 16;
        double allocPressureProb = 0.0;
        /// Size of one injected resident-byte spike.
        std::uint64_t allocPressureBytes = 64ULL << 20;
    } faults;
    ServiceConfig service{};

    /// Throws net::PreconditionError on out-of-range knobs.
    void validate() const {
        AIO_EXPECTS(steps >= 1, "storm needs at least one step");
        AIO_EXPECTS(tenants >= 1, "storm needs at least one tenant");
        AIO_EXPECTS(snapshotPool >= 1, "storm needs at least one snapshot");
        AIO_EXPECTS(executePerStep >= 1,
                    "storm must execute at least one request per step");
        AIO_EXPECTS(std::isfinite(tenantBudgetUsd) && tenantBudgetUsd >= 0.0,
                    "tenant budget must be non-negative and finite");
        for (const double p : {queryProb, whatIfShare, faults.slowHandlerProb,
                               faults.topologySwapProb,
                               faults.invalidSwapProb,
                               faults.tenantFloodProb,
                               faults.allocPressureProb}) {
            AIO_EXPECTS(p >= 0.0 && p <= 1.0,
                        "storm probabilities must lie in [0, 1]");
        }
        AIO_EXPECTS(sweepScenarios >= 1,
                    "sweep requests need at least one scenario");
        AIO_EXPECTS(stepNanos >= 1, "step interval must be positive");
        AIO_EXPECTS(std::isfinite(faults.slowFactor) &&
                        faults.slowFactor >= 1.0,
                    "slowFactor must be >= 1 and finite");
        AIO_EXPECTS(faults.floodBurst >= 1, "floodBurst must be at least 1");
        service.validate();
    }
};

/// What a storm did, in full: submission/outcome counters, every typed
/// rejection tallied by reason, the swap/degradation history, and a
/// digest over the per-request decision stream (seq, status, reject
/// reason, serving epoch, degraded flag, route digest). Two runs of the
/// same config are equal iff the service made identical decisions in
/// identical order.
struct StormReport {
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t failed = 0;
    std::map<std::string, std::uint64_t> rejectedByReason;

    std::uint64_t swaps = 0;         ///< valid epoch publishes
    std::uint64_t failedSwaps = 0;   ///< invalid publishes (degraded mode)
    std::uint64_t degradedResponses = 0;
    std::uint64_t epochsReclaimed = 0;
    std::uint64_t slowSteps = 0;
    std::uint64_t floodBursts = 0;
    std::uint64_t pressureSpikes = 0;

    std::uint64_t decisionDigest = 0;

    [[nodiscard]] bool operator==(const StormReport&) const = default;
};

inline core::ScenarioSpec stormScenario(net::Rng& rng, std::size_t ordinal) {
    static constexpr const char* kCables[] = {"WACS", "SEACOM", "ACE",
                                              "EASSy", "SAT-3",
                                              "MainOne"};
    core::ScenarioSpec spec;
    const auto pick =
        static_cast<std::size_t>(rng.uniformInt(std::size(kCables)));
    spec.name = "storm-" + std::to_string(ordinal) + "-" + kCables[pick];
    spec.cutCables = {kCables[pick]};
    spec.repairDays = {14.0};
    return spec;
}

/// Runs the storm to completion (drains the queue at the end; every
/// submitted request resolves). Deterministic for a fixed config.
[[nodiscard]] inline StormReport runStorm(const StormConfig& config) {
    config.validate();
    const StormConfig::Faults& faults = config.faults;

    std::vector<std::shared_ptr<const ServiceSnapshot>> pool;
    pool.reserve(config.snapshotPool);
    for (std::size_t i = 0; i < config.snapshotPool; ++i) {
        SnapshotConfig snapshot;
        snapshot.seed = config.topologySeed + 100 + i;
        pool.push_back(
            testutil::tinySnapshot(config.topologySeed + i, snapshot));
    }

    obs::ManualClock clock;
    ObservatoryService service{pool.front(), config.service, &clock};
    for (std::size_t i = 0; i < config.tenants; ++i) {
        service.registerTenant(testutil::quotaFor(
            "tenant-" + std::to_string(i), config.tenantBudgetUsd));
    }

    net::Rng rng{config.seed};
    StormReport report;
    std::vector<std::future<ServiceResponse>> futures;

    const auto submitOne = [&] {
        ServiceRequest request;
        request.tenant =
            "tenant-" +
            std::to_string(rng.uniformInt(
                static_cast<std::uint64_t>(config.tenants)));
        const double workloadDraw = rng.uniform01();
        const double heavyDraw = rng.uniform01();
        if (workloadDraw < config.queryProb) {
            request.workload = "query";
            const auto asCount = static_cast<std::uint64_t>(
                pool.front()->topology().asCount());
            request.src =
                static_cast<topo::AsIndex>(rng.uniformInt(asCount));
            request.dst =
                static_cast<topo::AsIndex>(rng.uniformInt(asCount));
        } else if (heavyDraw < config.whatIfShare) {
            request.workload = "whatif";
            request.scenarios = {stormScenario(rng, report.submitted)};
        } else {
            request.workload = "sweep";
            for (std::size_t s = 0; s < config.sweepScenarios; ++s) {
                request.scenarios.push_back(
                    stormScenario(rng, report.submitted));
            }
        }
        if (config.requestDeadlineNanos != exec::kNoDeadlineNanos) {
            request.deadlineNanos =
                clock.nowNanos() + config.requestDeadlineNanos;
        }
        ++report.submitted;
        futures.push_back(service.submit(std::move(request)));
    };

    std::size_t rotation = 1;
    for (std::size_t step = 0; step < config.steps; ++step) {
        // One draw per fault class, in a fixed order, every step.
        const bool slow = rng.uniform01() < faults.slowHandlerProb;
        const bool swap = rng.uniform01() < faults.topologySwapProb;
        const bool invalid = rng.uniform01() < faults.invalidSwapProb;
        const bool flood = rng.uniform01() < faults.tenantFloodProb;
        const bool pressure = rng.uniform01() < faults.allocPressureProb;

        if (swap && invalid) {
            (void)service.publish(net::Error::precondition(
                "storm: snapshot failed validation"));
            ++report.failedSwaps;
        } else if (swap) {
            (void)service.publish(pool[rotation % pool.size()]);
            ++rotation;
            ++report.swaps;
        }
        if (pressure) {
            service.injectAllocPressure(faults.allocPressureBytes);
            ++report.pressureSpikes;
        }

        const int burst = flood ? faults.floodBurst : 1;
        if (flood) {
            ++report.floodBursts;
        }
        for (int i = 0; i < burst; ++i) {
            submitOne();
        }

        if (slow) {
            // A stalled handler: the clock runs past several deadlines
            // before anything executes.
            clock.advance(config.stepNanos *
                          static_cast<std::uint64_t>(faults.slowFactor));
            ++report.slowSteps;
        }
        for (std::size_t i = 0; i < config.executePerStep; ++i) {
            (void)service.runOne();
        }
        service.clearAllocPressure();
        clock.advance(config.stepNanos);
    }
    (void)service.drain();

    // Fold every response into the decision digest in seq order (the
    // futures vector is submission order, and seq is assigned at
    // submission). Any divergence in admission, shedding, cancellation,
    // epoch routing or degradation flips the digest.
    persist::ByteWriter decisions;
    for (auto& future : futures) {
        const ServiceResponse response = future.get();
        decisions.u64(response.seq);
        decisions.u8(static_cast<std::uint8_t>(response.status));
        decisions.u8(static_cast<std::uint8_t>(response.reject));
        decisions.u64(response.epoch);
        decisions.boolean(response.degraded);
        decisions.u32(response.digest.nextHop);
        decisions.u32(response.digest.routeClass);
        switch (response.status) {
        case ResponseStatus::Ok:
            ++report.completed;
            if (response.degraded) {
                ++report.degradedResponses;
            }
            break;
        case ResponseStatus::Rejected:
            ++report.rejectedByReason[std::string{
                rejectReasonName(response.reject)}];
            break;
        case ResponseStatus::Cancelled:
            ++report.cancelled;
            break;
        case ResponseStatus::Failed:
            ++report.failed;
            break;
        }
    }
    report.admitted =
        report.completed + report.cancelled + report.failed;
    report.epochsReclaimed = service.epochs().reclaimed();
    report.decisionDigest = persist::fnv1a64(decisions.bytes());
    return report;
}

} // namespace aio::service
