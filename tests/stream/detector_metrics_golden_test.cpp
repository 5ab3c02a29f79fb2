#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <ios>
#include <span>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "persist/record.hpp"
#include "resilience/fault.hpp"
#include "stream/event_log.hpp"
#include "stream/ingestor.hpp"
#include "stream/online_radar.hpp"
#include "stream_world.hpp"

// Recorded metrics readout of the online detector: the size and fnv1a64
// of MetricsRegistry::json() under a ManualClock after a fixed window.
// The readout holds the stream.detector.* counters and the lag
// histogram, so any change to when a sample or a count is published,
// or to what a restored detector reports, fails here.
namespace aio::stream {
namespace {

using testing::emittedEvents;
using testing::world;

constexpr double kWindowDays = 10.0;

/// A seed-5 window delivered with lateness beyond the one-day
/// watermark on top of drops, duplicates, reordering and churn, captured
/// through the ingestor and read back from the event log: late drops,
/// sealed gaps and the upper lag buckets all move.
const std::vector<MeasurementEvent>& lateWindow() {
    static const std::vector<MeasurementEvent> events = [] {
        constexpr std::uint64_t seed = 5;
        resilience::StreamFaultConfig faults;
        faults.dropProb = 0.1;
        faults.duplicateProb = 0.15;
        faults.reorderProb = 0.3;
        faults.maxSkewDays = 0.5;
        faults.churnBurstProb = 0.4;
        faults.churnReconnects = 3;
        faults.lateProb = 0.1;
        faults.lateDelayDays = 3.0;
        net::Rng faultRng{seed * 7919 + 1};
        const resilience::StreamFaultInjector injector{
            faults, GroundTruthSource::probeIds(), kWindowDays, faultRng};
        const auto delivered =
            simulateDelivery(emittedEvents(kWindowDays, seed), injector,
                             world().radar.samplesPerDay, faultRng);

        persist::MemorySink sink;
        EventLogHeader header;
        header.samplesPerDay = world().radar.samplesPerDay;
        header.windowDays = kWindowDays;
        EventLogWriter writer{sink, header};
        StreamIngestor ingestor{StreamConfig{}};
        ingestor.capture(delivered, writer);
        return readEventLog(sink.bytes()).events;
    }();
    return events;
}

/// The metrics readout after feeding `events` to `detector`, all at once
/// through ingestAll or one by one through ingest.
enum class Feed { All, EachEvent };

void feed(OnlineRadarDetector& detector,
          std::span<const MeasurementEvent> events, Feed how) {
    if (how == Feed::All) {
        detector.ingestAll(events);
        return;
    }
    for (const MeasurementEvent& event : events) {
        detector.ingest(event);
    }
}

std::string freshReadout(std::span<const MeasurementEvent> events,
                         Feed how) {
    const obs::ManualClock clock;
    obs::MetricsRegistry registry{&clock};
    OnlineRadarDetector detector{world().radar, StreamConfig{}, kWindowDays,
                                 &registry};
    feed(detector, events, how);
    return registry.json();
}

/// A detector restored from the half-way state of `events` (written by
/// an unobserved run) and fed the rest: it must report only the rest.
std::string resumedReadout(std::span<const MeasurementEvent> events,
                           Feed how) {
    const std::size_t half = events.size() / 2;
    OnlineRadarDetector crashed{world().radar, StreamConfig{}, kWindowDays};
    crashed.ingestAll(events.first(half));

    const obs::ManualClock clock;
    obs::MetricsRegistry registry{&clock};
    OnlineRadarDetector resumed{world().radar, StreamConfig{}, kWindowDays,
                                &registry};
    resumed.restoreState(crashed.encodeState());
    feed(resumed, events.subspan(half), how);
    EXPECT_EQ(registry.counter("stream.detector.events").value(),
              events.size() - half);
    return registry.json();
}

void expectPinned(const std::string& json, std::size_t size,
                  std::uint64_t digest) {
    const auto bytes = std::as_bytes(std::span{json});
    EXPECT_EQ(bytes.size(), size) << json;
    EXPECT_EQ(persist::fnv1a64(bytes), digest)
        << std::hex << "0x" << persist::fnv1a64(bytes) << "\n"
        << json;
}

TEST(DetectorMetricsGolden, CleanWindow) {
    const auto events = emittedEvents(kWindowDays, 42);
    const std::string json = freshReadout(events, Feed::All);
    expectPinned(json, 440, 0x160c36a583cb38adULL);
    EXPECT_EQ(freshReadout(events, Feed::EachEvent), json);
}

TEST(DetectorMetricsGolden, LateWindow) {
    const std::string json = freshReadout(lateWindow(), Feed::All);
    expectPinned(json, 449, 0x2315e6e2f8c168a2ULL);
    EXPECT_EQ(freshReadout(lateWindow(), Feed::EachEvent), json);
}

TEST(DetectorMetricsGolden, ResumedLateWindowReportsOnlyNewWork) {
    const std::string json = resumedReadout(lateWindow(), Feed::All);
    expectPinned(json, 446, 0xc416e512dc245ffcULL);
    EXPECT_EQ(resumedReadout(lateWindow(), Feed::EachEvent), json);
}

} // namespace
} // namespace aio::stream
