#include "stream/ingestor.hpp"

namespace aio::stream {

StreamIngestor::StreamIngestor(StreamConfig config,
                               obs::MetricsRegistry* metrics)
    : config_(config),
      stalls_(metrics, "stream.ingest.backpressure_stalls"),
      delivered_(metrics, "stream.ingest.delivered"),
      reconnects_(metrics, "stream.ingest.reconnects"),
      staleSessions_(metrics, "stream.ingest.stale_sessions"),
      duplicates_(metrics, "stream.ingest.duplicates"),
      accepted_(metrics, "stream.ingest.accepted") {
    config_.validate();
    ring_.reserve(config_.queueCapacity);
}

void StreamIngestor::capture(std::span<const DeliveredEvent> delivered,
                             EventLogWriter& log) {
    const auto drain = [&] {
        for (const DeliveredEvent& copy : ring_) {
            if (admit(copy.event)) {
                ++stats_.eventsAccepted;
                log.append(copy.event);
            }
        }
        ring_.clear();
    };
    for (const DeliveredEvent& copy : delivered) {
        if (ring_.size() == config_.queueCapacity) {
            // The producer hit a full ring and had to wait for a drain:
            // one backpressure stall, however many copies the drain
            // frees. Deterministic because the model has one logical
            // producer and batch drains.
            ++stats_.backpressureStalls;
            stalls_.add();
            drain();
        }
        ring_.push_back(copy);
        ++stats_.eventsDelivered;
    }
    drain();
    delivered_.add(delivered.size());
}

namespace {

/// How many sessions back a probe's stragglers stay acceptable. Churn
/// bursts plus in-flight reordering deliver pre-reconnect copies after
/// the next session has already been seen; within this horizon they are
/// deduped normally instead of being thrown away as stale.
constexpr std::uint32_t kSessionRetention = 8;

} // namespace

bool StreamIngestor::admit(const MeasurementEvent& event) {
    ProbeDedupe& probe = probes_[event.probe];
    if (event.session > probe.maxSession) {
        stats_.reconnects += event.session - probe.maxSession;
        reconnects_.add(event.session - probe.maxSession);
        probe.maxSession = event.session;
        while (!probe.sessions.empty() &&
               probe.sessions.begin()->first + kSessionRetention <=
                   probe.maxSession) {
            probe.sessions.erase(probe.sessions.begin());
        }
    }
    if (event.session + kSessionRetention <= probe.maxSession) {
        // Residue of a session evicted beyond the retention horizon: its
        // dedupe state is gone, so the copy cannot be admitted honestly
        // — only dropped and counted.
        ++stats_.staleSessions;
        staleSessions_.add();
        return false;
    }
    SessionDedupe& session = probe.sessions[event.session];
    if (event.seq < session.floorSeq || session.seen.contains(event.seq)) {
        // Below the window floor we cannot distinguish "never seen" from
        // "seen and evicted"; at-least-once delivery makes redelivery
        // the overwhelmingly likely story, so drop conservatively.
        ++stats_.duplicatesDropped;
        duplicates_.add();
        return false;
    }
    session.seen.insert(event.seq);
    if (event.seq >= session.floorSeq + config_.dedupeWindow) {
        session.floorSeq = event.seq - config_.dedupeWindow + 1;
        session.seen.erase(session.seen.begin(),
                           session.seen.lower_bound(session.floorSeq));
    }
    accepted_.add();
    return true;
}

} // namespace aio::stream
