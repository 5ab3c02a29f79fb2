// Workload "outage": probe events -> outage alerts. Each operation takes
// one 30-day delivered window (one virtual probe per African country,
// four samples a day, ground truth carrying seeded outages) through the
// pipeline an observatory runs live: the backpressured, deduplicating
// ingestor writes the CRC-framed event log, and a checkpointing consumer
// replays it through the online detector to alerts and detections.
//
// Delivery is hostile but within the watermark (drops with redelivery,
// duplicates, reordering, probe churn), so every window must come out
// lossless and with exactly the batch detector's detections.

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "content/catalog.hpp"
#include "core/substrate.hpp"
#include "dns/resolver.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "outage/radar.hpp"
#include "persist/record.hpp"
#include "phys/cable.hpp"
#include "resilience/fault.hpp"
#include "stream/consumer.hpp"
#include "stream/ingestor.hpp"
#include "topo/generator.hpp"

namespace perfbench {
namespace {

using namespace aio;

constexpr double kWindowDays = 30.0;
constexpr std::size_t kWindows = 4; ///< distinct windows per run, cycled
constexpr std::size_t kOutages = 4; ///< ground-truth outages per window

struct World {
    std::unique_ptr<topo::Topology> topology;
    std::unique_ptr<core::Substrate> substrate;
    std::unique_ptr<outage::RadarMonitor> monitor;
};

World buildWorld() {
    World world;
    world.topology = std::make_unique<topo::Topology>(
        topo::TopologyGenerator{topo::GeneratorConfig::defaults()}
            .generate());
    world.substrate = std::make_unique<core::Substrate>(
        *world.topology, phys::CableRegistry::africanDefaults(),
        dns::DnsConfig::defaults(), content::ContentConfig::defaults());
    world.monitor = std::make_unique<outage::RadarMonitor>(*world.topology);
    return world;
}

struct Window {
    std::vector<stream::DeliveredEvent> copies;
    std::size_t emitted = 0;
    std::vector<outage::RadarDetection> reference;
};

/// Country-scoped outages (power, shutdown) have no routing cost to
/// assess, so a window's ground truth is cheap to draw; their traffic
/// drops are what the detector must find.
Window makeWindow(const World& world, std::uint64_t seed,
                  const std::vector<std::string>& countries) {
    std::mt19937_64 rng{seed};
    std::uniform_real_distribution<double> start{1.0, kWindowDays - 6.0};
    std::uniform_real_distribution<double> duration{1.0, 4.0};
    std::vector<outage::ImpactReport> impacts;
    net::Rng impactRng{seed ^ 0x1};
    for (std::size_t i = 0; i < kOutages; ++i) {
        outage::OutageEvent event;
        event.type = i % 2 == 0 ? outage::OutageType::PowerOutage
                                : outage::OutageType::GovernmentShutdown;
        event.startDay = start(rng);
        event.durationDays = duration(rng);
        event.countries = {countries[rng() % countries.size()]};
        impacts.push_back(
            world.substrate->analyzer().assess(event, impactRng));
    }

    Window window;
    const outage::RadarConfig radar = world.monitor->config();
    net::Rng batchRng{seed ^ 0x2};
    window.reference = world.monitor->detectAll(kWindowDays, impacts, batchRng);
    net::Rng emitRng{seed ^ 0x2}; // the batch reference's stream state
    const auto emitted =
        stream::GroundTruthSource{*world.monitor}.emit(kWindowDays, impacts,
                                                       emitRng);
    window.emitted = emitted.size();

    resilience::StreamFaultConfig faults;
    faults.dropProb = 0.08;
    faults.duplicateProb = 0.12;
    faults.reorderProb = 0.25;
    faults.maxSkewDays = 0.5; // inside the one-day watermark
    faults.churnBurstProb = 0.3;
    faults.churnReconnects = 2;
    net::Rng faultRng{seed ^ 0x3};
    const resilience::StreamFaultInjector injector{
        faults, stream::GroundTruthSource::probeIds(), kWindowDays, faultRng};
    window.copies = stream::simulateDelivery(emitted, injector,
                                             radar.samplesPerDay, faultRng);
    return window;
}

} // namespace

Report runOutage(const Options& options) {
    Report report;
    std::unique_ptr<obs::MetricsRegistry> metrics;
    if (options.trace) {
        metrics = std::make_unique<obs::MetricsRegistry>();
    }

    World world;
    const double setupSeconds = fastestSetupSeconds([&] {
        world = World{};
        world = buildWorld();
    });

    std::vector<std::string> countries;
    for (const net::Country* country : net::CountryTable::world().african()) {
        if (!world.topology->asesInCountry(country->iso2).empty()) {
            countries.emplace_back(country->iso2);
        }
    }
    std::vector<Window> windows;
    for (std::size_t w = 0; w < kWindows; ++w) {
        windows.push_back(
            makeWindow(world, mixSeed(options.seed, 0x0a7 + w), countries));
    }

    const outage::RadarConfig radar = world.monitor->config();
    const stream::StreamConfig config;
    stream::EventLogHeader header;
    header.configDigest =
        stream::streamConfigDigest(radar, config, kWindowDays);
    header.samplesPerDay = radar.samplesPerDay;
    header.windowDays = kWindowDays;

    std::vector<double> windowMs, captureMs, consumeMs, bytesPerEvent;
    const auto checkpoints0 =
        counterValue(metrics.get(), "stream.consumer.checkpoints");
    const auto checkpointTime0 =
        histogramTotals(metrics.get(), "stream.consumer.checkpoint_seconds");
    double elapsed = 0.0;
    for (std::size_t op = 0; elapsed < options.seconds; ++op) {
        const Window& window = windows[op % windows.size()];

        const auto start = Clock::now();
        persist::MemorySink logSink;
        stream::EventLogWriter writer{logSink, header, metrics.get()};
        stream::StreamIngestor ingestor{config, metrics.get()};
        ingestor.capture(window.copies, writer);
        const auto capturedAt = Clock::now();
        persist::MemorySink journal;
        stream::StreamConsumer consumer{radar, config, metrics.get()};
        const auto outcome = consumer.run(logSink.bytes(), journal);
        const auto done = Clock::now();
        elapsed += std::chrono::duration<double>(done - start).count();

        ++report.attempted;
        const bool ok = outcome.completed &&
                        outcome.degradation.lossless() &&
                        outcome.eventsProcessed == window.emitted &&
                        outcome.detections == window.reference;
        if (!ok) {
            ++report.failed;
            report.problems.push_back(
                "window " + std::to_string(op % windows.size()) +
                ": online detections differ from the batch detector or "
                "the window was not lossless");
        }
        windowMs.push_back(
            std::chrono::duration<double, std::milli>(done - start).count());
        captureMs.push_back(
            std::chrono::duration<double, std::milli>(capturedAt - start)
                .count());
        consumeMs.push_back(
            std::chrono::duration<double, std::milli>(done - capturedAt)
                .count());
        const auto& ingest = ingestor.stats();
        bytesPerEvent.push_back(static_cast<double>(logSink.size()) /
                                static_cast<double>(ingest.eventsAccepted));
    }
    bool anyDetection = false;
    for (const Window& window : windows) {
        anyDetection = anyDetection || !window.reference.empty();
    }
    report.require(anyDetection, "no window's ground truth was detected");

    report.metrics["latency_p10_ms"] = percentile(windowMs, 10);
    report.metrics["peak_rss_mb"] = peakRssMb();
    report.metrics["setup_s"] = setupSeconds;

    if (metrics) {
        report.metrics["capture_ms"] = median(captureMs);
        report.metrics["consume_ms"] = median(consumeMs);
        report.metrics["checkpoint_us"] =
            histogramTotals(metrics.get(), "stream.consumer.checkpoint_seconds")
                .meanSince(checkpointTime0, 1e6);
        report.metrics["checkpoints"] =
            static_cast<double>(
                counterValue(metrics.get(), "stream.consumer.checkpoints") -
                checkpoints0) /
            static_cast<double>(report.attempted);
        report.metrics["log_bytes_per_event"] = median(bytesPerEvent);
    }
    return report;
}

} // namespace perfbench
