#include "service/admission.hpp"

#include <gtest/gtest.h>

#include "netbase/error.hpp"
#include "obs/metrics.hpp"
#include "service/workload.hpp"
#include "service_test_util.hpp"

// The admission ladder in isolation, over the builtin workload registry:
// typed rejections in documented precedence order (unknown tenant, dead
// deadline, full queue, heavy shed at the depth watermark, heavy shed at
// the byte watermark, budget) and write-side metering through the
// tenant's TariffMeter.
namespace aio::service {
namespace {

using testutil::queryRequest;
using testutil::quotaFor;
using testutil::sweepRequest;

AdmissionConfig smallConfig() {
    AdmissionConfig config;
    config.queueCapacity = 4;
    config.shedQueueDepth = 2;
    config.shedResidentBytes = 1000;
    config.retryAfterNanos = 500;
    return config;
}

TEST(AdmissionConfig, ValidateRejectsEachBadKnob) {
    const auto rejects = [](auto mutate) {
        AdmissionConfig config;
        mutate(config);
        EXPECT_THROW(config.validate(), net::PreconditionError);
    };
    rejects([](auto& c) { c.queueCapacity = 0; });
    rejects([](auto& c) { c.shedQueueDepth = 0; });
    rejects([](auto& c) { c.shedQueueDepth = c.queueCapacity + 1; });
    rejects([](auto& c) { c.retryAfterNanos = 0; });
    rejects([](auto& c) { c.queryCostMb = -1.0; });
    rejects([](auto& c) { c.whatIfCostMb = -0.5; });
    rejects([](auto& c) { c.sweepCostMbPerScenario = -2.0; });
    EXPECT_NO_THROW(AdmissionConfig{}.validate());
}

TEST(AdmissionController, LadderRejectsInDocumentedOrder) {
    const auto registry = WorkloadRegistry::builtins(smallConfig());
    AdmissionController admission{smallConfig(), registry, nullptr};
    admission.registerTenant(quotaFor("acme"));
    const auto query = queryRequest("acme", 0, 1);
    const auto heavy =
        sweepRequest("acme", testutil::cableCuts({"WACS", "SEACOM"}));

    // Unknown tenant outranks everything, even a full queue.
    auto decision =
        admission.decide(queryRequest("ghost", 0, 1), 0, 99, 0);
    EXPECT_FALSE(decision.admitted);
    EXPECT_EQ(decision.reason, RejectReason::UnknownTenant);
    EXPECT_EQ(decision.retryAfterNanos, 0u);

    // A deadline at or before "now" is unmeetable regardless of load.
    auto dead = query;
    dead.deadlineNanos = 100;
    decision = admission.decide(dead, 100, 0, 0);
    EXPECT_EQ(decision.reason, RejectReason::DeadlineUnmeetable);
    EXPECT_EQ(decision.retryAfterNanos, 0u);

    // Full queue rejects light and heavy alike, with a retry hint.
    decision = admission.decide(query, 0, 4, 0);
    EXPECT_EQ(decision.reason, RejectReason::QueueFull);
    EXPECT_EQ(decision.retryAfterNanos, 500u);

    // At the depth watermark only heavy kinds shed.
    decision = admission.decide(heavy, 0, 2, 0);
    EXPECT_EQ(decision.reason, RejectReason::Overloaded);
    EXPECT_EQ(decision.retryAfterNanos, 500u);
    EXPECT_TRUE(admission.decide(query, 0, 2, 0).admitted);

    // At the byte watermark only heavy kinds shed.
    decision = admission.decide(heavy, 0, 0, 1000);
    EXPECT_EQ(decision.reason, RejectReason::MemoryPressure);
    EXPECT_EQ(decision.retryAfterNanos, 500u);
    EXPECT_TRUE(admission.decide(query, 0, 0, 1000).admitted);
}

TEST(AdmissionController, ZeroByteWatermarkDisablesMemoryShedding) {
    auto config = smallConfig();
    config.shedResidentBytes = 0;
    const auto registry = WorkloadRegistry::builtins(config);
    AdmissionController admission{config, registry, nullptr};
    admission.registerTenant(quotaFor("acme"));
    const auto heavy = sweepRequest("acme", testutil::cableCuts({"ACE"}));
    EXPECT_TRUE(admission.decide(heavy, 0, 0, 1ULL << 40).admitted);
}

TEST(AdmissionController, AdmissionChargesTheTenantMeter) {
    auto config = smallConfig();
    config.queryCostMb = 2.0; // flat default pricing: $0.01/MB
    const auto registry = WorkloadRegistry::builtins(config);
    AdmissionController admission{config, registry, nullptr};
    admission.registerTenant(quotaFor("acme", /*budgetUsd=*/0.05));

    const auto query = queryRequest("acme", 0, 1);
    const auto first = admission.decide(query, 0, 0, 0);
    EXPECT_TRUE(first.admitted);
    EXPECT_DOUBLE_EQ(first.chargedUsd, 0.02);
    EXPECT_DOUBLE_EQ(admission.spentUsd("acme"), 0.02);

    EXPECT_TRUE(admission.decide(query, 0, 0, 0).admitted);
    EXPECT_DOUBLE_EQ(admission.spentUsd("acme"), 0.04);

    // The third query would cost past the $0.05 budget: typed reject,
    // and crucially the meter is NOT charged for refused work.
    const auto third = admission.decide(query, 0, 0, 0);
    EXPECT_FALSE(third.admitted);
    EXPECT_EQ(third.reason, RejectReason::BudgetExhausted);
    EXPECT_EQ(third.retryAfterNanos, 0u);
    EXPECT_DOUBLE_EQ(admission.spentUsd("acme"), 0.04);
}

TEST(AdmissionController, CostDefaultsPerKindWithCallerOverride) {
    AdmissionConfig config;
    config.queryCostMb = 0.25;
    config.whatIfCostMb = 1.0;
    config.sweepCostMbPerScenario = 2.0;
    const auto registry = WorkloadRegistry::builtins(config);
    AdmissionController admission{config, registry, nullptr};

    EXPECT_DOUBLE_EQ(admission.costMbFor(queryRequest("t", 0, 1)), 0.25);
    EXPECT_DOUBLE_EQ(
        admission.costMbFor(
            sweepRequest("t", testutil::cableCuts({"WACS"}))),
        1.0); // one scenario = WhatIf
    EXPECT_DOUBLE_EQ(
        admission.costMbFor(sweepRequest(
            "t", testutil::cableCuts({"WACS", "SEACOM", "ACE"}))),
        6.0); // 3 scenarios x 2 MB

    auto custom = queryRequest("t", 0, 1);
    custom.costMb = 7.5;
    EXPECT_DOUBLE_EQ(admission.costMbFor(custom), 7.5);
}

TEST(AdmissionController, RestoreConsumptionResumesSpend) {
    const auto registry = WorkloadRegistry::builtins(smallConfig());
    AdmissionController admission{smallConfig(), registry, nullptr};
    admission.registerTenant(quotaFor("acme"));
    admission.restoreConsumption("acme", 30.0, 0.0);
    EXPECT_DOUBLE_EQ(admission.spentUsd("acme"), 0.3);
    EXPECT_THROW(admission.restoreConsumption("ghost", 1.0, 0.0),
                 net::PreconditionError);
}

TEST(AdmissionController, RejectionCountersAreTypedByReason) {
    obs::MetricsRegistry metrics;
    const auto registry = WorkloadRegistry::builtins(smallConfig());
    AdmissionController admission{smallConfig(), registry, &metrics};
    admission.registerTenant(quotaFor("acme"));
    (void)admission.decide(queryRequest("ghost", 0, 1), 0, 0, 0);
    (void)admission.decide(queryRequest("acme", 0, 1), 0, 4, 0);
    (void)admission.decide(queryRequest("acme", 0, 1), 0, 0, 0);
    EXPECT_EQ(metrics.counter("service.rejected.unknown_tenant").value(),
              1u);
    EXPECT_EQ(metrics.counter("service.rejected.queue_full").value(), 1u);
    EXPECT_EQ(metrics.counter("service.admitted").value(), 1u);
}

} // namespace
} // namespace aio::service
