#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "resilience/fault.hpp"
#include "service/service.hpp"

namespace aio::service {

/// One seeded overload storm against a step-mode ObservatoryService:
/// tenants submit a mixed query/whatif/sweep load while the fault
/// injector schedules slow handlers, topology swaps (some invalid),
/// tenant floods and allocation-pressure spikes. Everything runs under a
/// ManualClock on the calling thread, so a fixed seed reproduces the
/// exact admission/shed/cancel decision sequence — that determinism is
/// the acceptance check the report digest encodes.
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

    /// Snapshots pre-built for rotation on TopologySwap faults.
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

    resilience::ServiceFaultConfig faults{};
    ServiceConfig service{};

    /// Throws net::PreconditionError on out-of-range knobs.
    void validate() const;
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

/// Runs the storm to completion (drains the queue at the end; every
/// submitted request resolves). Deterministic for a fixed config.
[[nodiscard]] StormReport runStorm(const StormConfig& config);

} // namespace aio::service
