#pragma once

#include <array>
#include <cstdint>

namespace aio::persist {

/// First record of every campaign journal. The digests bind the journal
/// to one exact (task plan, fault plan, supervisor config) triple so a
/// resume against the wrong campaign is refused instead of silently
/// producing a franken-result; the initial Rng state makes a journal that
/// crashed before its first checkpoint still resumable from scratch.
struct CampaignHeader {
    std::uint64_t planDigest = 0;   ///< tasks + fault plan
    std::uint64_t configDigest = 0; ///< SupervisorConfig fields
    std::array<std::uint64_t, 4> initialRngState{};
    std::uint64_t taskCount = 0;
    std::uint64_t probeCount = 0;
    std::uint32_t checkpointInterval = 0;
    /// Settlements already applied when this journal started: 0 for a
    /// fresh campaign, the restored cursor for a continuation journal
    /// written by a resume. Lets replay cross-check every checkpoint
    /// against the outcome records actually present before it.
    std::uint64_t resumedAtOutcome = 0;

    [[nodiscard]] bool operator==(const CampaignHeader&) const = default;
};

/// How one queue settlement ended. Retried/Reassigned mean the task went
/// back into the pending queue; Completed/Abandoned retire it.
enum class TaskOutcomeKind : std::uint8_t {
    Completed = 0,
    Retried = 1,
    Reassigned = 2,
    Abandoned = 3,
};

inline constexpr std::uint8_t kNoFaultClass = 0xFF;

/// One write-ahead record per settlement: which task, what happened,
/// which fault class drove it (kNoFaultClass for clean completions) and
/// at what campaign hour. Deliberately small — full state travels in
/// checkpoints; outcomes give the crash sweep record-level granularity
/// and give operators a progress/audit trail.
struct TaskOutcomeRecord {
    std::uint64_t taskIdx = 0;
    TaskOutcomeKind kind = TaskOutcomeKind::Completed;
    std::uint8_t faultClass = kNoFaultClass;
    double clockHour = 0.0;

    [[nodiscard]] bool operator==(const TaskOutcomeRecord&) const = default;
};

/// One entry of the supervisor's pending retry/reassignment queue. The
/// (readyHour, seq) pair is a strict total order, so rebuilding a binary
/// heap from these in any internal arrangement pops identically.
struct PendingTask {
    double readyHour = 0.0;
    std::uint64_t seq = 0;
    std::uint64_t taskIdx = 0;
    std::int32_t attempt = 0;
    std::int32_t reassignments = 0;

    [[nodiscard]] bool operator==(const PendingTask&) const = default;
};

/// Where a task currently runs (reassignment rewrites both fields).
struct TaskAssignment {
    std::uint64_t probeIndex = 0;
    std::uint64_t srcAs = 0;

    [[nodiscard]] bool operator==(const TaskAssignment&) const = default;
};

/// One probe's billing state: the TariffMeter consumption sums plus the
/// sticky bundle-dry flag.
struct ProbeMeterState {
    double peakMb = 0.0;
    double offPeakMb = 0.0;
    bool exhausted = false;

    [[nodiscard]] bool operator==(const ProbeMeterState&) const = default;
};

} // namespace aio::persist
