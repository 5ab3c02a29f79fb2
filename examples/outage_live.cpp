// Live outage watch: the paper's Radar-style detector (§3) run the way an
// observatory would actually run it — as a stream. Ground-truth events
// (a west-coast corridor cable cut, a government shutdown) are scored
// into per-country impact, per-country probe measurements are emitted
// into a faulty delivery layer (drops with redelivery, duplicates,
// reordering, probe churn — all within the one-day watermark), captured
// through the backpressured ingestor into a CRC-framed event log, and
// consumed by a checkpointing consumer that is killed mid-run and
// resumed from its journal.
//
// Two guarantees are demonstrated and checked:
//   1. the crashed-and-resumed consumer converges to the exact Outcome
//      of an uninterrupted run;
//   2. the online detections equal the batch RadarMonitor byte for byte
//      (the differential guarantee — faults within the watermark cost
//      nothing).
// Under the injected ManualClock the full output is itself byte-identical
// from run to run.

#include <iostream>

#include "netbase/error.hpp"
#include "netbase/stats.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "outage/impact.hpp"
#include "resilience/fault.hpp"
#include "stream/consumer.hpp"
#include "stream/ingestor.hpp"
#include "topo/generator.hpp"

using namespace aio;

int main() {
    try {
        const obs::ManualClock clock;
        obs::MetricsRegistry metrics{&clock};
        obs::Trace trace{&clock};

        const std::uint64_t seed = 42;
        const double windowDays = 30.0;

        // --- ground truth and its per-country impact --------------------
        const auto topo =
            topo::TopologyGenerator{topo::GeneratorConfig::defaults()}
                .generate();
        const auto registry = phys::CableRegistry::africanDefaults();
        net::Rng mapRng{seed};
        const phys::PhysicalLinkMap linkMap{topo, registry, mapRng};
        const dns::ResolverEcosystem resolvers{
            topo, dns::DnsConfig::defaults(), 31};
        const content::ContentCatalog catalog{
            topo, content::ContentConfig::defaults(), 47};
        const outage::ImpactAnalyzer analyzer{topo, linkMap, resolvers,
                                              catalog};

        outage::OutageEvent corridorCut;
        corridorCut.type = outage::OutageType::CableCut;
        corridorCut.startDay = 9.0;
        corridorCut.durationDays = 6.0;
        for (const auto name : {"WACS", "MainOne", "SAT-3"}) {
            corridorCut.cutCables.push_back(registry.byName(name));
        }
        outage::OutageEvent shutdown;
        shutdown.type = outage::OutageType::GovernmentShutdown;
        shutdown.startDay = 18.0;
        shutdown.durationDays = 2.0;
        shutdown.countries = {"ET"};

        net::Rng impactRng{seed + 1};
        std::vector<outage::ImpactReport> impacts;
        for (const auto& event : {corridorCut, shutdown}) {
            impacts.push_back(analyzer.assess(event, impactRng));
            std::cout << outage::outageTypeName(event.type) << " at day "
                      << static_cast<int>(event.startDay) << ": "
                      << impacts.back().impactedCountries().size()
                      << " countries impacted\n";
        }

        // --- the batch reference (what Radar would publish) -------------
        const outage::RadarConfig radarCfg;
        const outage::RadarMonitor monitor{topo, radarCfg};
        net::Rng batchRng{seed + 2};
        const auto batch = monitor.detectAll(windowDays, impacts, batchRng);
        std::cout << "Batch radar reference: " << batch.size()
                  << " detections over a " << static_cast<int>(windowDays)
                  << "-day window\n\n";

        // --- emission through a hostile delivery layer ------------------
        const stream::StreamConfig streamCfg = [] {
            stream::StreamConfig cfg;
            cfg.checkpointEveryEvents = 512;
            return cfg;
        }();
        net::Rng emitRng{seed + 2}; // same state as the batch reference
        const stream::GroundTruthSource source{monitor};
        const auto emitted = source.emit(windowDays, impacts, emitRng);

        resilience::StreamFaultConfig faultCfg;
        faultCfg.dropProb = 0.08;
        faultCfg.duplicateProb = 0.12;
        faultCfg.reorderProb = 0.25;
        faultCfg.maxSkewDays = 0.5; // inside the one-day watermark
        faultCfg.churnBurstProb = 0.3;
        faultCfg.churnReconnects = 2;
        net::Rng faultRng{seed + 3};
        const resilience::StreamFaultInjector faults{
            faultCfg, stream::GroundTruthSource::probeIds(), windowDays,
            faultRng};
        stream::DeliveryStats delivery;
        const auto copies =
            stream::simulateDelivery(emitted, faults,
                                     radarCfg.samplesPerDay, faultRng,
                                     &delivery);

        persist::MemorySink logSink;
        stream::EventLogHeader header;
        header.configDigest =
            stream::streamConfigDigest(radarCfg, streamCfg, windowDays);
        header.samplesPerDay = radarCfg.samplesPerDay;
        header.windowDays = windowDays;
        stream::EventLogWriter logWriter{logSink, header, &metrics};
        stream::StreamIngestor ingestor{streamCfg, &metrics};
        ingestor.capture(copies, logWriter);
        const auto& ingest = ingestor.stats();

        net::TextTable deliveryTable({"delivery layer", "count"});
        deliveryTable.addRow({"events emitted",
                              std::to_string(delivery.emitted)});
        deliveryTable.addRow({"copies delivered",
                              std::to_string(delivery.copies)});
        deliveryTable.addRow({"duplicates injected",
                              std::to_string(delivery.duplicates)});
        deliveryTable.addRow({"dropped then redelivered",
                              std::to_string(delivery.delayedDrops)});
        deliveryTable.addRow({"reordered within skew",
                              std::to_string(delivery.reordered)});
        deliveryTable.addRow({"probe reconnects",
                              std::to_string(delivery.reconnects)});
        deliveryTable.addRow({"accepted into the log",
                              std::to_string(ingest.eventsAccepted)});
        deliveryTable.addRow({"deduped redeliveries",
                              std::to_string(ingest.duplicatesDropped)});
        deliveryTable.addRow({"backpressure stalls",
                              std::to_string(ingest.backpressureStalls)});
        deliveryTable.addRow({"event log bytes",
                              std::to_string(logSink.size())});
        std::cout << deliveryTable.render() << "\n";

        // --- crash-resumable consumption --------------------------------
        stream::StreamConsumer consumer{radarCfg, streamCfg, &metrics,
                                        &trace};
        const std::uint64_t killAfter = ingest.eventsAccepted * 2 / 5;
        persist::MemorySink firstJournal;
        const auto killed = consumer.run(logSink.bytes(), firstJournal, {},
                                         killAfter);
        std::cout << "Consumer killed after " << killed.eventsProcessed
                  << " events (journal: " << firstJournal.size()
                  << " bytes durable)\n";

        persist::MemorySink secondJournal;
        const auto outcome = consumer.run(logSink.bytes(), secondJournal,
                                          firstJournal.bytes());
        persist::MemorySink cleanJournal;
        stream::StreamConsumer uninterrupted{radarCfg, streamCfg};
        const auto reference =
            uninterrupted.run(logSink.bytes(), cleanJournal);
        std::cout << "Resumed run processed " << outcome.eventsProcessed
                  << " events total; equals the uninterrupted run: "
                  << (outcome == reference ? "yes" : "NO — BUG") << "\n";

        const auto& degradation = outcome.degradation;
        std::cout << "Degradation: " << degradation.lateDropped
                  << " late-dropped, " << degradation.sealedGaps
                  << " sealed gaps -> "
                  << (degradation.lossless() ? "lossless" : "degraded")
                  << "\n";
        std::cout << "Online == batch detections: "
                  << (outcome.detections == batch ? "yes" : "NO — BUG")
                  << " (" << outcome.alerts.size()
                  << " provisional alerts fired en route)\n\n";

        net::TextTable detTable({"country", "start day", "duration"});
        const std::size_t shown = std::min<std::size_t>(
            outcome.detections.size(), 10);
        for (std::size_t i = 0; i < shown; ++i) {
            const auto& d = outcome.detections[i];
            detTable.addRow({d.country,
                             net::TextTable::num(d.startDay, 2),
                             net::TextTable::num(d.durationDays, 2)});
        }
        std::cout << detTable.render();
        if (outcome.detections.size() > shown) {
            std::cout << "  ... and "
                      << outcome.detections.size() - shown << " more\n";
        }

        // --- beyond the watermark: honesty instead of silence -----------
        resilience::StreamFaultConfig lateCfg = faultCfg;
        lateCfg.lateProb = 0.1;
        lateCfg.lateDelayDays = 3.0; // far past the watermark
        net::Rng lateRng{seed + 4};
        const resilience::StreamFaultInjector lateFaults{
            lateCfg, stream::GroundTruthSource::probeIds(), windowDays,
            lateRng};
        const auto lateCopies = stream::simulateDelivery(
            emitted, lateFaults, radarCfg.samplesPerDay, lateRng, nullptr);
        persist::MemorySink lateSink;
        stream::EventLogWriter lateWriter{lateSink, header};
        stream::StreamIngestor lateIngestor{streamCfg};
        lateIngestor.capture(lateCopies, lateWriter);
        stream::OnlineRadarDetector lateDetector{radarCfg, streamCfg,
                                                 windowDays};
        lateDetector.ingestAll(
            stream::readEventLog(lateSink.bytes()).events);
        const auto lateReport = lateDetector.degradation();
        std::cout << "\nWith 3-day lateness injected: "
                  << lateReport.lateDropped
                  << " events arrived past their watermark ("
                  << lateReport.lateByCountry.size()
                  << " countries) -> report says "
                  << (lateReport.lossless() ? "lossless (BUG)" : "degraded")
                  << ", never silently merged\n";

        // --- the observability readout ----------------------------------
        std::cout << "\n=== metrics ===\n" << metrics.table();
        std::cout << "\n=== trace ===\n" << trace.json() << "\n";

        const bool ok = outcome == reference &&
                        outcome.detections == batch &&
                        !lateReport.lossless();
        return ok ? 0 : 1;
    } catch (const net::AioError& error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    }
}
