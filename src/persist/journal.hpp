#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/observatory.hpp"
#include "obs/metrics.hpp"
#include "persist/log.hpp"
#include "persist/state.hpp"

namespace aio::persist {

/// Everything needed to continue a campaign from between two settlements:
/// the partial CampaignResult (including its DegradationReport), the Rng
/// mid-stream, the pending queue, the per-task assignments and the
/// per-probe meters. Restoring this and re-running the deterministic loop
/// reproduces the uninterrupted run byte for byte.
struct CampaignCheckpoint {
    std::uint64_t outcomesApplied = 0;
    std::uint64_t nextSeq = 0;
    std::array<std::uint64_t, 4> rngState{};
    core::CampaignResult result;
    std::vector<TaskAssignment> assignments;
    std::vector<PendingTask> pending;
    std::vector<ProbeMeterState> meters;

    [[nodiscard]] bool operator==(const CampaignCheckpoint&) const = default;
};

/// Write-ahead journal for one supervised campaign, layered on the
/// checksummed record codec: a header record, then outcome records with a
/// checkpoint every `checkpointInterval` settlements. Replay takes the
/// last intact checkpoint, truncates a torn tail, and cross-checks the
/// outcome-record count against every checkpoint so dropped or duplicated
/// records surface as CorruptionError rather than a silently wrong resume.
class CampaignJournal {
public:
    /// `metrics` (optional, not owned) receives append/checkpoint
    /// latency histograms and byte/record counters.
    explicit CampaignJournal(ByteSink& sink,
                             obs::MetricsRegistry* metrics = nullptr)
        : log_(sink, metrics, "journal"),
          flushes_(metrics, "journal.flushes"), metrics_(metrics) {}

    /// Each record is flushed before the call returns (LogWriter), so a
    /// checkpoint the supervisor reports durable survives a crash.
    void writeHeader(const CampaignHeader& header);
    void appendOutcome(const TaskOutcomeRecord& outcome);
    void appendCheckpoint(const CampaignCheckpoint& checkpoint);

    struct Replay {
        /// Absent when the journal is empty or torn before the header
        /// completed — nothing was durably started, begin from scratch.
        std::optional<CampaignHeader> header;
        /// Last intact checkpoint, if any survived.
        std::optional<CampaignCheckpoint> checkpoint;
        /// Outcome records seen in total (including before checkpoints).
        std::uint64_t outcomeRecords = 0;
        bool tornTail = false;
    };

    /// Reads a journal byte range back. Torn tails are expected and
    /// reported via `tornTail`; anything structurally wrong — CRC
    /// mismatch, unknown record type, a second header, a checkpoint that
    /// contradicts the outcome count — throws net::CorruptionError.
    /// `metrics` (optional) receives replayed record/checkpoint counts
    /// and the torn-tail counter.
    [[nodiscard]] static Replay
    replay(std::span<const std::byte> bytes,
           obs::MetricsRegistry* metrics = nullptr);

private:
    LogWriter log_;
    obs::LazyCounter flushes_;
    obs::MetricsRegistry* metrics_;
    bool headerWritten_ = false;
};

} // namespace aio::persist
