#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "exec/worker_pool.hpp"
#include "netbase/error.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "stream/online_radar.hpp"
#include "stream_world.hpp"

namespace aio::stream {
namespace {

using testing::batchDetections;
using testing::emittedEvents;
using testing::world;

constexpr double kWindowDays = 10.0;
constexpr std::uint64_t kSeed = 42;

OnlineRadarDetector freshDetector(double windowDays = kWindowDays,
                                  obs::MetricsRegistry* metrics = nullptr) {
    return OnlineRadarDetector{world().radar, StreamConfig{}, windowDays,
                               metrics};
}

TEST(OnlineEquivalence, CompleteLogMatchesBatchDetector) {
    const auto events = emittedEvents(kWindowDays, kSeed);
    OnlineRadarDetector detector = freshDetector();
    detector.ingestAll(events);
    EXPECT_EQ(detector.finalDetections(), batchDetections(kWindowDays, kSeed));
    EXPECT_TRUE(detector.degradation().lossless());
    EXPECT_EQ(detector.eventsIngested(), events.size());
}

TEST(OnlineEquivalence, EquivalenceHoldsAcrossSeedsAndWindows) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        for (const double windowDays : {10.0, 20.0}) {
            const auto events = emittedEvents(windowDays, seed);
            OnlineRadarDetector detector = freshDetector(windowDays);
            detector.ingestAll(events);
            EXPECT_EQ(detector.finalDetections(),
                      batchDetections(windowDays, seed))
                << "seed " << seed << " window " << windowDays;
        }
    }
}

TEST(OnlineEquivalence, ShardedIngestionIsByteIdenticalAcrossThreadCounts) {
    const auto events = emittedEvents(kWindowDays, kSeed);
    OnlineRadarDetector reference = freshDetector();
    reference.ingestAll(events);
    const auto referenceState = reference.encodeState();
    for (const int threads : {1, 2, 8}) {
        OnlineRadarDetector detector = freshDetector();
        exec::WorkerPool pool{threads};
        detector.ingestSharded(events, pool);
        EXPECT_EQ(detector.encodeState(), referenceState)
            << threads << " threads";
        EXPECT_EQ(detector.finalDetections(), reference.finalDetections());
        EXPECT_EQ(detector.alerts(), reference.alerts());
        EXPECT_EQ(detector.degradation(), reference.degradation());
    }
}

TEST(OnlineEquivalence, MetricsAreScheduleInvariantUnderAManualClock) {
    const auto events = emittedEvents(kWindowDays, kSeed);
    std::vector<std::string> tables;
    for (const int threads : {1, 2, 8}) {
        obs::ManualClock clock;
        obs::MetricsRegistry registry{&clock};
        OnlineRadarDetector detector =
            freshDetector(kWindowDays, &registry);
        exec::WorkerPool pool{threads};
        detector.ingestSharded(events, pool);
        tables.push_back(registry.json());
    }
    EXPECT_EQ(tables[0], tables[1]);
    EXPECT_EQ(tables[0], tables[2]);
}

TEST(OnlineEquivalence, AlertFiresNearTheOutageStart) {
    // KE's hard shutdown begins at day 10: the provisional alarm must
    // anchor its run there and fire before the full window is ingested.
    const double windowDays = 30.0;
    const auto events = emittedEvents(windowDays, kSeed);
    OnlineRadarDetector detector = freshDetector(windowDays);
    detector.ingestAll(events);
    bool sawKenya = false;
    for (const OnlineAlert& alert : detector.alerts()) {
        if (alert.country != "KE") {
            continue;
        }
        sawKenya = true;
        EXPECT_GE(alert.startDay, 9.0);
        EXPECT_LE(alert.startDay, 12.0);
        EXPECT_GE(alert.detectedAtDay, alert.startDay);
        EXPECT_LT(alert.detectedAtDay, windowDays);
    }
    EXPECT_TRUE(sawKenya);
}

TEST(OnlineEquivalence, StateRoundTripContinuesIdentically) {
    const auto events = emittedEvents(kWindowDays, kSeed);
    const std::size_t half = events.size() / 2;
    OnlineRadarDetector original = freshDetector();
    original.ingestAll({events.data(), half});

    OnlineRadarDetector restored = freshDetector();
    restored.restoreState(original.encodeState());
    EXPECT_EQ(restored.encodeState(), original.encodeState());
    EXPECT_EQ(restored.eventsIngested(), original.eventsIngested());

    original.ingestAll({events.data() + half, events.size() - half});
    restored.ingestAll({events.data() + half, events.size() - half});
    EXPECT_EQ(restored.encodeState(), original.encodeState());
    EXPECT_EQ(restored.finalDetections(), original.finalDetections());
    EXPECT_EQ(restored.finalDetections(), batchDetections(kWindowDays, kSeed));
}

TEST(OnlineEquivalence, InPlaceEncodingAppendsTheVectorFormsBytes) {
    // The checkpointing consumer encodes behind a record type and event
    // offset; the state bytes must come out exactly as encodeState().
    OnlineRadarDetector detector = freshDetector();
    detector.ingestAll(emittedEvents(kWindowDays, kSeed));
    persist::ByteWriter payload;
    payload.u8(2);
    payload.u64(detector.eventsIngested());
    detector.encodeState(payload);
    const std::vector<std::byte> state = detector.encodeState();
    ASSERT_EQ(payload.size(), 9 + state.size());
    EXPECT_TRUE(std::ranges::equal(payload.bytes().subspan(9), state));
}

TEST(OnlineEquivalence, RestoreRefusesAForeignConfig) {
    OnlineRadarDetector original = freshDetector();
    original.ingestAll(emittedEvents(kWindowDays, kSeed));
    const auto state = original.encodeState();

    outage::RadarConfig other = world().radar;
    other.dropThreshold = 0.5;
    OnlineRadarDetector foreign{other, StreamConfig{}, kWindowDays};
    EXPECT_THROW(foreign.restoreState(state), net::PreconditionError);

    OnlineRadarDetector narrower = freshDetector(kWindowDays * 2);
    EXPECT_THROW(narrower.restoreState(state), net::PreconditionError);
}

TEST(OnlineEquivalence, RestoreRefusesDamagedState) {
    OnlineRadarDetector original = freshDetector();
    original.ingestAll(emittedEvents(kWindowDays, kSeed));
    auto state = original.encodeState();
    state.pop_back();
    OnlineRadarDetector target = freshDetector();
    EXPECT_THROW(target.restoreState(state), net::CorruptionError);
}

TEST(OnlineEquivalence, DuplicateSlotIsCountedAndFirstValueWins) {
    OnlineRadarDetector detector = freshDetector();
    MeasurementEvent event;
    event.probe = 0;
    event.session = 0;
    event.seq = 0;
    event.country = "KE";
    event.slot = 0;
    event.value = 5.0;
    detector.ingest(event);
    MeasurementEvent dup = event;
    dup.seq = 1;
    dup.value = 99.0; // a conflicting re-measurement of the same slot
    detector.ingest(dup);
    EXPECT_EQ(detector.degradation().duplicateSlots, 1U);
    EXPECT_EQ(detector.eventsIngested(), 2U);
}

TEST(OnlineEquivalence, EventBeyondTheWindowIsRefused) {
    OnlineRadarDetector detector = freshDetector();
    MeasurementEvent event;
    event.country = "KE";
    event.slot = 100000;
    event.value = 1.0;
    EXPECT_THROW(detector.ingest(event), net::PreconditionError);
}

} // namespace
} // namespace aio::stream
