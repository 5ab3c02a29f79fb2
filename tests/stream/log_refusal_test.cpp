#include "../persist/log_refusal_suite.hpp"

#include "stream/consumer.hpp"
#include "stream/event_log.hpp"
#include "stream_world.hpp"

namespace aio::stream {
namespace {

using persist::testing::Bytes;
using persist::testing::LogRefusal;
using persist::testing::RefusalCase;

constexpr double kWindowDays = 10.0;
constexpr std::uint64_t kSeed = 23;

/// An event log of one clean emitted window, with the uninterrupted
/// consumer run's Outcome and checkpoint journal.
struct Window {
    Bytes log;
    StreamConsumer::Outcome baseline;
    Bytes journal;
};

StreamConsumer consumer() {
    return StreamConsumer{testing::world().radar, StreamConfig{}};
}

const Window& window() {
    static const Window out = [] {
        persist::MemorySink logSink;
        EventLogHeader header;
        header.configDigest = streamConfigDigest(testing::world().radar,
                                                 StreamConfig{}, kWindowDays);
        header.samplesPerDay = testing::world().radar.samplesPerDay;
        header.windowDays = kWindowDays;
        EventLogWriter writer{logSink, header};
        for (const MeasurementEvent& event :
             testing::emittedEvents(kWindowDays, kSeed)) {
            writer.append(event);
        }
        Window w;
        w.log.assign(logSink.bytes().begin(), logSink.bytes().end());
        persist::MemorySink journal;
        w.baseline = consumer().run(w.log, journal);
        w.journal.assign(journal.bytes().begin(), journal.bytes().end());
        return w;
    }();
    return out;
}

StreamConsumer::Outcome resume(std::span<const std::byte> prior) {
    persist::MemorySink sink;
    return consumer().run(window().log, sink, prior);
}

INSTANTIATE_TEST_SUITE_P(
    Logs, LogRefusal,
    ::testing::Values(
        RefusalCase{"EventLog", 2, [] { return window().log; },
                    [](std::span<const std::byte> bytes) {
                        (void)readEventLog(bytes);
                    },
                    // A log without provenance cannot be replayed.
                    [](std::span<const std::byte> bytes) {
                        EXPECT_THROW((void)readEventLog(bytes),
                                     net::CorruptionError);
                    }},
        RefusalCase{"CheckpointJournal", 3, [] { return window().journal; },
                    [](std::span<const std::byte> bytes) {
                        (void)resume(bytes);
                    },
                    // No checkpoint survived: the consumer starts fresh
                    // and reaches the uninterrupted run's Outcome.
                    [](std::span<const std::byte> bytes) {
                        EXPECT_EQ(resume(bytes), window().baseline);
                    }}),
    persist::testing::refusalCaseName);

} // namespace
} // namespace aio::stream
