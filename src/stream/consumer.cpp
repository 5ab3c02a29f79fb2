#include "stream/consumer.hpp"

#include "netbase/error.hpp"
#include "stream/event_log.hpp"

namespace aio::stream {

namespace {

constexpr std::uint8_t kJournalHeaderRecord = 1;
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
    // A torn tail is the expected crash signature: scanRecords truncates
    // it, and the last *intact* checkpoint wins.
    const persist::ScanResult scan = persist::scanRecords(bytes);
    bool sawAnchor = false;
    for (const auto payload : scan.payloads) {
        persist::ByteReader reader{payload};
        const std::uint8_t type = reader.u8();
        if (type == kJournalHeaderRecord) {
            if (replayed.sawHeader) {
                throw net::CorruptionError{
                    "checkpoint journal holds a second header"};
            }
            replayed.sawHeader = true;
            const std::uint32_t version = reader.u32();
            if (version != kJournalVersion) {
                throw net::CorruptionError{
                    "checkpoint journal has format version " +
                    std::to_string(version) + ", reader understands " +
                    std::to_string(kJournalVersion)};
            }
            replayed.digest = reader.u64();
            replayed.resumedAtEvent = reader.u64();
            if (!reader.atEnd()) {
                throw net::CorruptionError{
                    "checkpoint-journal header carries trailing bytes"};
            }
        } else if (type == kKeyCheckpointRecord ||
                   type == kDeltaCheckpointRecord) {
            if (!replayed.sawHeader) {
                throw net::CorruptionError{
                    "checkpoint journal starts without a header"};
            }
            const std::uint64_t eventIndex = reader.u64();
            if (replayed.checkpointEvent.has_value() &&
                eventIndex < *replayed.checkpointEvent) {
                throw net::CorruptionError{
                    "checkpoint journal rewinds its event offset"};
            }
            if (!sawAnchor) {
                sawAnchor = true;
                if (replayed.resumedAtEvent > 0 &&
                    type == kDeltaCheckpointRecord) {
                    throw net::CorruptionError{
                        "continuation journal holds a delta before its "
                        "anchor checkpoint"};
                }
                if (replayed.resumedAtEvent > 0 &&
                    eventIndex != replayed.resumedAtEvent) {
                    throw net::CorruptionError{
                        "continuation journal's first checkpoint does "
                        "not restate the resume point"};
                }
            }
            replayed.checkpointEvent = eventIndex;
            const auto body =
                payload.subspan(payload.size() - reader.remaining());
            if (type == kKeyCheckpointRecord) {
                replayed.key = body;
                replayed.deltas.clear();
            } else {
                replayed.deltas.push_back(body);
            }
        } else {
            throw net::CorruptionError{
                "checkpoint journal holds unknown record type " +
                std::to_string(type)};
        }
    }
    if (replayed.sawHeader && replayed.resumedAtEvent > 0 && !sawAnchor) {
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
        if (replayed.sawHeader) {
            AIO_EXPECTS(replayed.digest == digest,
                        "checkpoint journal was written under a "
                        "different radar/stream configuration");
        }
        if (replayed.checkpointEvent.has_value()) {
            if (replayed.key.has_value()) {
                detector.restoreState(*replayed.key);
            }
            for (const auto delta : replayed.deltas) {
                detector.applyDelta(delta);
            }
            startIndex = *replayed.checkpointEvent;
            AIO_EXPECTS(startIndex <= view.events.size(),
                        "checkpoint lies beyond the end of the event log");
        }
        if (metrics_ != nullptr) {
            metrics_->counter("stream.consumer.resumes").add();
        }
    }

    // Fresh journal for this run: header, then (for continuations) the
    // anchor key restating the state we resumed from, then deltas. The
    // restored detector has nothing pending, so the first delta after
    // the anchor starts from it.
    persist::RecordWriter journal{checkpointSink};
    const auto appendRecord = [&](std::span<const std::byte> payload) {
        journal.append(payload);
        checkpointSink.flush();
    };
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
        appendRecord(payload.bytes());
        if (metrics_ != nullptr) {
            metrics_->counter("stream.consumer.checkpoints").add();
        }
    };
    {
        persist::ByteWriter payload;
        payload.u8(kJournalHeaderRecord);
        payload.u32(kJournalVersion);
        payload.u64(digest);
        payload.u64(startIndex);
        appendRecord(payload.bytes());
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
