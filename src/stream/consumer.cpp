#include "stream/consumer.hpp"

#include "netbase/error.hpp"
#include "persist/log.hpp"
#include "stream/event_log.hpp"

namespace aio::stream {

namespace {

constexpr std::uint8_t kKeyCheckpointRecord = 2;
constexpr std::uint8_t kDeltaCheckpointRecord = 3;
constexpr std::uint32_t kJournalVersion = 1;

} // namespace

StreamConsumer::StreamConsumer(outage::RadarConfig radar,
                               StreamConfig stream,
                               obs::MetricsRegistry* metrics,
                               obs::Trace* trace)
    : radar_(radar), stream_(stream), metrics_(metrics), trace_(trace) {
    radar_.validate();
    stream_.validate();
}

StreamConsumer::ReplayedJournal
StreamConsumer::replayCheckpoints(std::span<const std::byte> bytes) const {
    ReplayedJournal replayed;
    persist::LogReader reader{bytes, "checkpoint journal", kJournalVersion,
                              kDeltaCheckpointRecord};
    auto& header = reader.header();
    if (!header) {
        return replayed;
    }
    replayed.digest = header->u64();
    replayed.resumedAtEvent = header->u64();
    header->expectEnd("checkpoint-journal header");
    // The last *intact* checkpoint wins; a continuation's first one is
    // its anchor.
    while (auto record = reader.next()) {
        const std::uint64_t eventIndex = record->body.u64();
        if (replayed.checkpointEvent.has_value() &&
            eventIndex < *replayed.checkpointEvent) {
            throw net::CorruptionError{
                "checkpoint journal rewinds its event offset"};
        }
        if (!replayed.checkpointEvent.has_value() &&
            replayed.resumedAtEvent > 0) {
            if (record->type == kDeltaCheckpointRecord) {
                throw net::CorruptionError{
                    "continuation journal holds a delta before its "
                    "anchor checkpoint"};
            }
            if (eventIndex != replayed.resumedAtEvent) {
                throw net::CorruptionError{
                    "continuation journal's first checkpoint does "
                    "not restate the resume point"};
            }
        }
        replayed.checkpointEvent = eventIndex;
        const auto body = record->body.raw(record->body.remaining());
        if (record->type == kKeyCheckpointRecord) {
            replayed.key = body;
            replayed.deltas.clear();
        } else {
            replayed.deltas.push_back(body);
        }
    }
    if (replayed.resumedAtEvent > 0 && !replayed.checkpointEvent) {
        throw net::CorruptionError{
            "continuation journal lost its anchor checkpoint"};
    }
    return replayed;
}

StreamConsumer::Outcome
StreamConsumer::run(std::span<const std::byte> logBytes,
                    persist::ByteSink& checkpointSink,
                    std::span<const std::byte> priorCheckpoints,
                    std::uint64_t killAfterEvents) {
    auto runSpan = obs::Trace::enter(trace_, "stream.consumer.run");
    const EventLogView view = [&] {
        auto span = obs::Trace::enter(trace_, "stream.consumer.read_log");
        return readEventLog(logBytes);
    }();
    const std::uint64_t digest =
        streamConfigDigest(radar_, stream_, view.header.windowDays);
    AIO_EXPECTS(view.header.configDigest == digest,
                "event log was written under a different radar/stream "
                "configuration");

    OnlineRadarDetector detector{radar_, stream_, view.header.windowDays,
                                 metrics_};
    std::uint64_t startIndex = 0;
    if (!priorCheckpoints.empty()) {
        auto span = obs::Trace::enter(trace_, "stream.consumer.resume");
        const ReplayedJournal replayed =
            replayCheckpoints(priorCheckpoints);
        AIO_EXPECTS(replayed.digest.value_or(digest) == digest,
                    "checkpoint journal was written under a different "
                    "radar/stream configuration");
        if (replayed.key.has_value()) {
            detector.restoreState(*replayed.key);
        }
        for (const auto delta : replayed.deltas) {
            detector.applyDelta(delta);
        }
        startIndex = replayed.checkpointEvent.value_or(0);
        AIO_EXPECTS(startIndex <= view.events.size(),
                    "checkpoint lies beyond the end of the event log");
        if (metrics_ != nullptr) {
            metrics_->counter("stream.consumer.resumes").add();
        }
    }

    // Fresh journal for this run: header, then (for continuations) the
    // anchor key restating the state we resumed from, then deltas. The
    // restored detector has nothing pending, so the first delta after
    // the anchor starts from it.
    persist::LogWriter journal{checkpointSink};
    const auto appendCheckpoint = [&](std::uint64_t eventIndex, bool key) {
        obs::ScopedTimer timer{metrics_,
                               "stream.consumer.checkpoint_seconds"};
        auto span = obs::Trace::enter(trace_, "stream.consumer.checkpoint");
        persist::ByteWriter payload;
        payload.u8(key ? kKeyCheckpointRecord : kDeltaCheckpointRecord);
        payload.u64(eventIndex);
        if (key) {
            detector.encodeState(payload);
        } else {
            detector.encodeDelta(payload);
        }
        journal.append(payload.bytes());
        if (metrics_ != nullptr) {
            metrics_->counter("stream.consumer.checkpoints").add();
        }
    };
    {
        persist::ByteWriter payload;
        payload.u8(persist::kHeaderRecord);
        payload.u32(kJournalVersion);
        payload.u64(digest);
        payload.u64(startIndex);
        journal.append(payload.bytes());
    }
    if (startIndex > 0) {
        appendCheckpoint(startIndex, true);
    }

    Outcome outcome;
    std::uint64_t processedThisRun = 0;
    {
        auto span = obs::Trace::enter(trace_, "stream.consumer.ingest");
        for (std::size_t i = startIndex; i < view.events.size(); ++i) {
            if (killAfterEvents != kRunToCompletion &&
                processedThisRun >= killAfterEvents) {
                // The consumer-crash fault class: stop mid-stream with
                // no goodbye. Whatever checkpoints already flushed are
                // the only thing the next run can build on.
                outcome.eventsProcessed = detector.eventsIngested();
                outcome.degradation = detector.degradation();
                if (trace_ != nullptr) {
                    trace_->count("stream.consumer.events",
                                  processedThisRun);
                }
                return outcome;
            }
            detector.ingest(view.events[i]);
            ++processedThisRun;
            if ((i + 1 - startIndex) % stream_.checkpointEveryEvents ==
                0) {
                appendCheckpoint(i + 1, false);
            }
        }
        if (trace_ != nullptr) {
            trace_->count("stream.consumer.events", processedThisRun);
        }
    }
    // Closing checkpoint: a run that completed leaves a journal any
    // successor can resume from trivially.
    appendCheckpoint(view.events.size(), false);
    if (metrics_ != nullptr) {
        metrics_->counter("stream.consumer.events").add(processedThisRun);
    }

    outcome.detections = detector.finalDetections();
    outcome.alerts = detector.alerts();
    outcome.degradation = detector.degradation();
    outcome.eventsProcessed = detector.eventsIngested();
    outcome.completed = true;
    return outcome;
}

} // namespace aio::stream
