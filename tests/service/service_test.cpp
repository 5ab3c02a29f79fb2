#include "service/service.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "netbase/error.hpp"
#include "obs/clock.hpp"
#include "persist/record.hpp"
#include "service_test_util.hpp"
#include "sweep/scenario_sweep.hpp"

// End-to-end service semantics in step mode: answers byte-identical to
// the direct engines, typed deadline cancellation for admitted-but-late
// requests, the degradation ladder (failed swap -> stale-epoch answers
// flagged degraded; memory pressure -> cache shrink + heavy shed), the
// write-ahead ledger resume path, and shutdown draining.
namespace aio::service {
namespace {

using testutil::cableCuts;
using testutil::queryRequest;
using testutil::quotaFor;
using testutil::sweepRequest;
using testutil::tinySnapshot;

TEST(ObservatoryService, QueryMatchesTheDirectBaselineOracle) {
    const auto snapshot = tinySnapshot(31);
    obs::ManualClock clock;
    ObservatoryService service{snapshot, {}, &clock};
    service.registerTenant(quotaFor("acme"));

    const route::RouteOracle& oracle =
        *snapshot->substrate().analyzer().baselineOracle();
    const std::size_t asCount = snapshot->topology().asCount();

    std::vector<std::future<ServiceResponse>> futures;
    std::vector<std::pair<topo::AsIndex, topo::AsIndex>> pairs;
    for (std::size_t i = 0; i + 7 < asCount; i += asCount / 5 + 1) {
        pairs.emplace_back(i, asCount - 1 - i);
        futures.push_back(
            service.submit(queryRequest("acme", i, asCount - 1 - i)));
    }
    EXPECT_EQ(service.drain(), futures.size());

    for (std::size_t i = 0; i < futures.size(); ++i) {
        const ServiceResponse response = futures[i].get();
        ASSERT_EQ(response.status, ResponseStatus::Ok);
        EXPECT_EQ(response.nextHop,
                  oracle.nextHopOf(pairs[i].first, pairs[i].second));
        EXPECT_EQ(response.reachable,
                  oracle.nextHopOf(pairs[i].first, pairs[i].second) >= 0);
        EXPECT_EQ(response.epoch, 1u);
        EXPECT_EQ(response.digest, snapshot->digest());
        EXPECT_FALSE(response.degraded);
        EXPECT_GT(response.chargedUsd, 0.0);
    }
}

// Query endpoints are tenant input: an index past the serving
// snapshot's AS count resolves Failed with a typed message, instead of
// answering for an AS that does not exist or reading past the route
// matrix.
TEST(ObservatoryService, QueryOutsideTheSnapshotFailsTyped) {
    const auto snapshot = tinySnapshot(31);
    obs::ManualClock clock;
    ObservatoryService service{snapshot, {}, &clock};
    service.registerTenant(quotaFor("acme"));
    const auto asCount =
        static_cast<topo::AsIndex>(snapshot->topology().asCount());

    std::vector<std::future<ServiceResponse>> futures;
    futures.push_back(service.submit(queryRequest("acme", asCount, 0)));
    futures.push_back(service.submit(queryRequest("acme", 0, asCount)));
    futures.push_back(
        service.submit(queryRequest("acme", asCount - 1, 0)));
    ASSERT_EQ(service.drain(), 3u);

    for (std::size_t i = 0; i < 2; ++i) {
        const ServiceResponse response = futures[i].get();
        EXPECT_EQ(response.status, ResponseStatus::Failed) << "request " << i;
        EXPECT_EQ(response.nextHop, -1);
        EXPECT_FALSE(response.reachable);
        EXPECT_NE(response.error.find("precondition failed: query "
                                      "endpoints"),
                  std::string::npos)
            << response.error;
    }
    // The last valid index still answers.
    EXPECT_EQ(futures[2].get().status, ResponseStatus::Ok);
}

TEST(ObservatoryService, SweepMatchesTheDirectEngine) {
    const auto snapshot = tinySnapshot(31);
    obs::ManualClock clock;
    ObservatoryService service{snapshot, {}, &clock};
    service.registerTenant(quotaFor("acme"));

    const auto specs = cableCuts({"WACS", "SEACOM", "ACE"});
    auto future = service.submit(sweepRequest("acme", specs));
    EXPECT_EQ(service.drain(), 1u);
    const ServiceResponse response = future.get();
    ASSERT_EQ(response.status, ResponseStatus::Ok);
    ASSERT_TRUE(response.sweep.has_value());

    const sweep::ScenarioSweepEngine direct{snapshot->substrate()};
    const sweep::SweepResult expected = direct.run(specs);
    ASSERT_EQ(response.sweep->scenarios.size(),
              expected.scenarios.size());
    for (std::size_t i = 0; i < expected.scenarios.size(); ++i) {
        const auto& got = response.sweep->scenarios[i];
        const auto& want = expected.scenarios[i];
        EXPECT_EQ(got.scenario, want.scenario);
        ASSERT_EQ(got.outcome.hasValue(), want.outcome.hasValue());
        if (want.outcome.hasValue()) {
            EXPECT_EQ(got.outcome.value(), want.outcome.value());
        }
    }
}

TEST(ObservatoryService, DeadlineExpiringInQueueYieldsTypedCancellation) {
    const auto snapshot = tinySnapshot(31);
    obs::ManualClock clock;
    ObservatoryService service{snapshot, {}, &clock};
    service.registerTenant(quotaFor("acme"));

    auto late = sweepRequest("acme", cableCuts({"WACS"}));
    late.deadlineNanos = clock.nowNanos() + 1000; // meetable at submit
    auto future = service.submit(std::move(late));
    clock.advance(2000); // ...but the handler gets there too late
    EXPECT_EQ(service.drain(), 1u);

    const ServiceResponse response = future.get();
    EXPECT_EQ(response.status, ResponseStatus::Cancelled);
    EXPECT_FALSE(response.sweep.has_value());
    // The charge stands: admission metered it when capacity was reserved.
    EXPECT_GT(response.chargedUsd, 0.0);
}

TEST(ObservatoryService, FailedSwapDegradesUntilAValidPublish) {
    const auto first = tinySnapshot(31);
    const auto second = tinySnapshot(32);
    obs::ManualClock clock;
    ObservatoryService service{first, {}, &clock};
    service.registerTenant(quotaFor("acme"));

    // A swap that fails validation: stale epoch keeps serving, flagged.
    EXPECT_EQ(service.publish(net::Error::precondition("bad snapshot")),
              1u);
    EXPECT_TRUE(service.degradedMode());
    auto degraded = service.submit(queryRequest("acme", 0, 5));
    EXPECT_EQ(service.drain(), 1u);
    ServiceResponse response = degraded.get();
    EXPECT_EQ(response.status, ResponseStatus::Ok);
    EXPECT_TRUE(response.degraded);
    EXPECT_EQ(response.epoch, 1u);
    EXPECT_EQ(response.digest, first->digest());

    // A later valid publish clears degradation and swaps the epoch.
    EXPECT_EQ(service.publish(second), 2u);
    EXPECT_FALSE(service.degradedMode());
    auto healthy = service.submit(queryRequest("acme", 0, 5));
    EXPECT_EQ(service.drain(), 1u);
    response = healthy.get();
    EXPECT_EQ(response.status, ResponseStatus::Ok);
    EXPECT_FALSE(response.degraded);
    EXPECT_EQ(response.epoch, 2u);
    EXPECT_EQ(response.digest, second->digest());
}

TEST(ObservatoryService, AllocPressureShrinksCacheAndShedsHeavyKinds) {
    SnapshotConfig snapConfig;
    snapConfig.cacheCapacity = 8;
    const auto snapshot = tinySnapshot(31, snapConfig);

    // Warm the cache so the shrink is observable.
    const sweep::ScenarioSweepEngine warmer{snapshot->substrate()};
    (void)warmer.run(cableCuts({"WACS", "SEACOM", "ACE"}));
    ASSERT_GT(snapshot->cache().stats().entries, 1u);

    ServiceConfig config;
    config.admission.shedResidentBytes = snapshot->residentBytes() + 1000;
    obs::ManualClock clock;
    ObservatoryService service{snapshot, config, &clock};
    service.registerTenant(quotaFor("acme"));

    // Below the watermark: heavy work admitted.
    auto ok = service.submit(sweepRequest("acme", cableCuts({"EASSy"})));
    EXPECT_EQ(service.drain(), 1u);
    EXPECT_EQ(ok.get().status, ResponseStatus::Ok);

    // Cross the watermark by far more than the shrink can give back:
    // the ladder shrinks the cache immediately...
    service.injectAllocPressure(1ULL << 30);
    EXPECT_LE(snapshot->cache().stats().entries, 1u);
    // ...and heavy kinds shed while queries keep flowing.
    auto shed = service.submit(sweepRequest("acme", cableCuts({"WACS"})));
    ServiceResponse response = shed.get();
    EXPECT_EQ(response.status, ResponseStatus::Rejected);
    EXPECT_EQ(response.reject, RejectReason::MemoryPressure);
    EXPECT_GT(response.retryAfterNanos, clock.nowNanos());
    auto query = service.submit(queryRequest("acme", 0, 5));
    EXPECT_EQ(service.drain(), 1u);
    EXPECT_EQ(query.get().status, ResponseStatus::Ok);

    // Pressure released: heavy admission recovers.
    service.clearAllocPressure();
    auto recovered =
        service.submit(sweepRequest("acme", cableCuts({"ACE"})));
    EXPECT_EQ(service.drain(), 1u);
    EXPECT_EQ(recovered.get().status, ResponseStatus::Ok);
}

TEST(ObservatoryService, QueueFullRejectsWithRetryAfter) {
    ServiceConfig config;
    config.admission.queueCapacity = 2;
    config.admission.shedQueueDepth = 2;
    config.admission.retryAfterNanos = 700;
    const auto snapshot = tinySnapshot(31);
    obs::ManualClock clock;
    ObservatoryService service{snapshot, config, &clock};
    service.registerTenant(quotaFor("acme"));

    auto a = service.submit(queryRequest("acme", 0, 1));
    auto b = service.submit(queryRequest("acme", 0, 2));
    auto c = service.submit(queryRequest("acme", 0, 3));
    ServiceResponse rejected = c.get(); // resolves immediately
    EXPECT_EQ(rejected.status, ResponseStatus::Rejected);
    EXPECT_EQ(rejected.reject, RejectReason::QueueFull);
    EXPECT_EQ(rejected.retryAfterNanos, clock.nowNanos() + 700);
    EXPECT_EQ(service.drain(), 2u);
    EXPECT_EQ(a.get().status, ResponseStatus::Ok);
    EXPECT_EQ(b.get().status, ResponseStatus::Ok);
}

TEST(ObservatoryService, StopResolvesQueuedRequestsAsShuttingDown) {
    const auto snapshot = tinySnapshot(31);
    obs::ManualClock clock;
    ObservatoryService service{snapshot, {}, &clock};
    service.registerTenant(quotaFor("acme"));

    auto queued = service.submit(queryRequest("acme", 0, 1));
    service.stop();
    ServiceResponse response = queued.get();
    EXPECT_EQ(response.status, ResponseStatus::Rejected);
    EXPECT_EQ(response.reject, RejectReason::ShuttingDown);

    // After stop, nothing new is admitted either.
    auto refused = service.submit(queryRequest("acme", 0, 1));
    EXPECT_EQ(refused.get().reject, RejectReason::ShuttingDown);
}

TEST(ObservatoryService, LedgerReplayRestoresSpendWithoutDoubleCharging) {
    const auto snapshot = tinySnapshot(31);
    obs::ManualClock clock;
    persist::MemorySink journal;

    double spentBefore = 0.0;
    std::uint64_t lastSeq = 0;
    {
        ObservatoryService service{snapshot, {}, &clock, nullptr,
                                   &journal};
        service.registerTenant(quotaFor("acme"));
        for (int i = 0; i < 3; ++i) {
            auto future = service.submit(queryRequest("acme", 0, 1));
            (void)service.drain();
            lastSeq = future.get().seq;
        }
        spentBefore = service.admission().spentUsd("acme");
        EXPECT_GT(spentBefore, 0.0);
    }

    // A fresh process resumes from the journal: same spend, and the
    // sequence counter moves past the journal so (tenant, seq) keys
    // never collide with pre-crash charges.
    ObservatoryService resumed{snapshot, {}, &clock};
    resumed.registerTenant(quotaFor("acme"));
    resumed.restoreLedger(journal.bytes());
    EXPECT_DOUBLE_EQ(resumed.admission().spentUsd("acme"), spentBefore);
    auto future = resumed.submit(queryRequest("acme", 0, 1));
    (void)resumed.drain();
    EXPECT_EQ(future.get().seq, lastSeq + 1);
}

} // namespace
} // namespace aio::service
