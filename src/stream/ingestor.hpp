#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "obs/metrics.hpp"
#include "stream/event_log.hpp"
#include "stream/source.hpp"

namespace aio::stream {

/// Capture side of the pipeline: delivered copies go through a bounded
/// ring (a full ring is a backpressure stall — the producer waits while a
/// batch drains) and per-probe at-least-once dedupe before reaching the
/// durable event log. The ring is modelled deterministically — one
/// logical producer, batch drains — so stall counts are a pure function
/// of the delivery schedule, not of scheduler timing.
///
/// Dedupe state per probe: per-session sets of seen sequence numbers
/// (each bounded by StreamConfig::dedupeWindow — older seqs are
/// conservatively treated as redeliveries). A bounded number of recent
/// sessions is retained, because reordering routinely delivers a
/// pre-reconnect straggler *after* the probe's next session has been
/// seen — dropping those would silently lose in-watermark data. Only
/// copies from sessions evicted beyond the retention horizon are counted
/// stale and dropped.
class StreamIngestor {
public:
    /// `metrics` (optional, not owned) receives stream.ingest.* counters.
    StreamIngestor(StreamConfig config,
                   obs::MetricsRegistry* metrics = nullptr);

    /// Runs every delivered copy through ring + dedupe, appending the
    /// survivors to `log` in delivery order. Callable repeatedly — dedupe
    /// state persists across calls (one capture process, many drains).
    void capture(std::span<const DeliveredEvent> delivered,
                 EventLogWriter& log);

    /// Ingest-side counters accumulated so far (detector-side fields of
    /// the report stay zero here).
    [[nodiscard]] const DegradationReport& stats() const { return stats_; }

private:
    /// True when the copy is fresh (first delivery of its
    /// (probe, session, seq) identity); updates dedupe state either way.
    [[nodiscard]] bool admit(const MeasurementEvent& event);

    struct SessionDedupe {
        std::uint64_t floorSeq = 0; ///< seqs below are assumed seen
        std::set<std::uint64_t> seen;
    };
    struct ProbeDedupe {
        std::uint32_t maxSession = 0;
        /// Recent sessions, oldest evicted beyond the retention horizon.
        std::map<std::uint32_t, SessionDedupe> sessions;
    };

    StreamConfig config_;
    obs::LazyCounter stalls_;
    obs::LazyCounter delivered_;
    obs::LazyCounter reconnects_;
    obs::LazyCounter staleSessions_;
    obs::LazyCounter duplicates_;
    obs::LazyCounter accepted_;
    std::map<std::uint64_t, ProbeDedupe> probes_;
    std::vector<DeliveredEvent> ring_;
    DegradationReport stats_;
};

} // namespace aio::stream
