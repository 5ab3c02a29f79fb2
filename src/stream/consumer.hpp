#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "persist/record.hpp"
#include "stream/online_radar.hpp"

namespace aio::stream {

/// Crash-resumable consumer: replays an event log through an
/// OnlineRadarDetector, checkpointing (offset, detector changes) into
/// its own CRC-framed journal every StreamConfig::checkpointEveryEvents
/// accepted events. A consumer killed at *any* instant resumes from the
/// last durable checkpoint of its journal, reprocesses the uncovered
/// suffix, and converges to byte-identical detections, alerts and
/// degradation counters — the streaming analogue of CampaignJournal's
/// resume contract, proven by the same boundary-sweep harness.
///
/// Journal layout: one header record {version, configDigest,
/// resumedAtEvent}, then checkpoint records of two kinds. A *key*
/// {eventIndex, detectorState} holds the full detector state
/// (OnlineRadarDetector::encodeState); a *delta* {eventIndex,
/// detectorDelta} holds only what changed since the previous checkpoint
/// (OnlineRadarDetector::encodeDelta) — about 4 KB against a 62 KB key
/// on a 30-day window. A fresh journal holds deltas only, starting from
/// the empty detector. A continuation journal (resumedAtEvent > 0)
/// opens with an *anchor* key restating the state it resumed from, then
/// deltas, so the chain of journals is self-contained: a continuation
/// whose anchor is missing, or that holds a delta before it, is refused
/// as corrupt rather than replayed on faith. Resume rebuilds the state
/// from the last key (the empty detector when there is none) plus every
/// later delta, in order, so key-only journals resume too.
class StreamConsumer {
public:
    /// `metrics` / `trace` (optional, not owned) receive
    /// stream.consumer.* counters, checkpoint latency and span timings.
    StreamConsumer(outage::RadarConfig radar, StreamConfig stream,
                   obs::MetricsRegistry* metrics = nullptr,
                   obs::Trace* trace = nullptr);

    struct Outcome {
        std::vector<outage::RadarDetection> detections;
        std::vector<OnlineAlert> alerts;
        DegradationReport degradation;
        std::uint64_t eventsProcessed = 0; ///< detector total, all runs
        bool completed = false; ///< false when killAfterEvents fired

        [[nodiscard]] bool operator==(const Outcome&) const = default;
    };

    static constexpr std::uint64_t kRunToCompletion =
        ~static_cast<std::uint64_t>(0);

    /// Consumes `logBytes` end to end, journalling checkpoints into
    /// `checkpointSink`. `priorCheckpoints` (empty for a fresh run) is
    /// the journal of a previous — possibly killed — run over the same
    /// log: the consumer restores its last durable checkpoint and
    /// continues from there. `killAfterEvents` simulates the consumer
    /// crash fault class: processing stops abruptly after that many
    /// events this run (no final flush, no farewell), returning a
    /// partial Outcome with completed=false.
    ///
    /// Throws net::PreconditionError when the log or checkpoint journal
    /// was written under a different configuration, and
    /// net::CorruptionError for structural damage (CRC failures, a
    /// continuation journal missing its anchor, a delta that does not
    /// fit the state before it).
    [[nodiscard]] Outcome
    run(std::span<const std::byte> logBytes,
        persist::ByteSink& checkpointSink,
        std::span<const std::byte> priorCheckpoints = {},
        std::uint64_t killAfterEvents = kRunToCompletion);

private:
    struct ReplayedJournal {
        std::optional<std::uint64_t> digest; ///< absent without a header
        std::uint64_t resumedAtEvent = 0;
        std::optional<std::uint64_t> checkpointEvent;
        /// The last key checkpoint's state, if any, and the delta
        /// bodies after it in journal order: views into the replayed
        /// journal's bytes.
        std::optional<std::span<const std::byte>> key;
        std::vector<std::span<const std::byte>> deltas;
    };

    [[nodiscard]] ReplayedJournal
    replayCheckpoints(std::span<const std::byte> bytes) const;

    outage::RadarConfig radar_;
    StreamConfig stream_;
    obs::MetricsRegistry* metrics_;
    obs::Trace* trace_;
};

} // namespace aio::stream
