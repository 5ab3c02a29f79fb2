#include "service/workload.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "netbase/error.hpp"
#include "obs/clock.hpp"
#include "persist/bytes.hpp"
#include "persist/record.hpp"
#include "service/ledger.hpp"
#include "service/service.hpp"
#include "service_test_util.hpp"

// The named-workload registry behind the service API: requests dispatch
// by workload name, cost defaults live on the workload attribute so the
// admission estimate and the billed charge share one seam (scenario
// workloads bill per scenario they run), and the plan/estimate workloads
// ride the same admission ladder as the query and sweep builtins.
namespace aio::service {
namespace {

using testutil::cableCuts;
using testutil::quotaFor;
using testutil::sweepRequest;
using testutil::tinySnapshot;

constexpr const char* kQuestionText = "question frontdoor demo\n"
                                      "kind content-locality\n"
                                      "top-sites 10\n"
                                      "budget-usd 40\n"
                                      "end\n";

ServiceRequest namedRequest(std::string workload, std::string tenant) {
    ServiceRequest request;
    request.workload = std::move(workload);
    request.tenant = std::move(tenant);
    return request;
}

TEST(WorkloadRegistry, BuiltinsCarryTheirAttributes) {
    const AdmissionConfig config;
    const WorkloadRegistry registry = WorkloadRegistry::builtins(config);
    ASSERT_EQ(registry.size(), 5u);

    const WorkloadInfo* query = registry.find("query");
    ASSERT_NE(query, nullptr);
    EXPECT_FALSE(query->heavy);
    EXPECT_EQ(query->defaultCostMb, config.queryCostMb);
    EXPECT_EQ(query->deadline, DeadlinePolicy::Optional);

    const WorkloadInfo* sweep = registry.find("sweep");
    ASSERT_NE(sweep, nullptr);
    EXPECT_TRUE(sweep->heavy);
    EXPECT_TRUE(sweep->perScenario);

    const WorkloadInfo* plan = registry.find("plan");
    ASSERT_NE(plan, nullptr);
    EXPECT_TRUE(plan->heavy);
    EXPECT_EQ(plan->deadline, DeadlinePolicy::Required);

    EXPECT_EQ(registry.find("nonsense"), nullptr);
    EXPECT_THROW((void)registry.handler("nonsense"), net::NotFoundError);

    // Cost resolution: explicit costMb wins; otherwise the attribute,
    // scaled per scenario for batch workloads.
    ServiceRequest request = sweepRequest("acme", cableCuts({"WACS"}));
    request.workload = "sweep";
    EXPECT_DOUBLE_EQ(registry.resolveCostMb(request),
                     config.sweepCostMbPerScenario);
    request.scenarios = cableCuts({"WACS", "SAT-3"});
    EXPECT_DOUBLE_EQ(registry.resolveCostMb(request),
                     2.0 * config.sweepCostMbPerScenario);
    request.costMb = 9.5;
    EXPECT_DOUBLE_EQ(registry.resolveCostMb(request), 9.5);
}

// The write-ahead ledger's bytes after one request of each billing
// shape (a light query, a one-scenario what-if, a three-scenario sweep
// and an estimate), recorded from the reference service: billing and
// journaling changes show up here even when every path moves together.
TEST(ObservatoryService, LedgerBytesMatchTheRecordedValues) {
    const auto snapshot = tinySnapshot(31);
    obs::ManualClock clock;
    persist::MemorySink journal;
    ObservatoryService service{snapshot, {}, &clock, nullptr, &journal};
    service.registerTenant(quotaFor("acme"));

    std::vector<ServiceRequest> requests;
    requests.push_back(namedRequest("query", "acme"));
    requests.back().src = 3;
    requests.back().dst = 7;
    requests.push_back(namedRequest("whatif", "acme"));
    requests.back().scenarios = cableCuts({"WACS"});
    requests.push_back(namedRequest("sweep", "acme"));
    requests.back().scenarios = cableCuts({"WACS", "SEACOM", "ACE"});
    requests.push_back(namedRequest("estimate", "acme"));
    requests.back().questionText = kQuestionText;
    for (ServiceRequest& request : requests) {
        auto future = service.submit(std::move(request));
        ASSERT_EQ(service.drain(), 1u);
        const ServiceResponse response = future.get();
        ASSERT_EQ(response.status, ResponseStatus::Ok) << response.error;
    }

    const auto bytes = journal.bytes();
    EXPECT_EQ(bytes.size(), 152u);
    EXPECT_EQ(persist::fnv1a64(bytes), 0xe70499c8735da822ULL)
        << std::hex << "0x" << persist::fnv1a64(bytes);
}

TEST(ObservatoryService, EstimateAndBillingShareTheWorkloadCostSeam) {
    const ServiceConfig config;
    const auto snapshot = tinySnapshot(31);
    obs::ManualClock clock;
    persist::MemorySink journal;
    ObservatoryService service{snapshot, config, &clock, nullptr,
                               &journal};
    service.registerTenant(quotaFor("acme"));

    // costMb deliberately left 0: resolution happens on the registry
    // attribute, so the pre-admission estimate and the billed charge
    // cannot disagree.
    ServiceRequest estimate = namedRequest("estimate", "acme");
    estimate.questionText = kQuestionText;
    EXPECT_DOUBLE_EQ(service.admission().costMbFor(estimate),
                     config.admission.estimateCostMb);

    ServiceRequest planned = namedRequest("plan", "acme");
    planned.questionText = kQuestionText;
    planned.deadlineNanos = clock.nowNanos() + 60'000'000'000ULL;
    EXPECT_DOUBLE_EQ(service.admission().costMbFor(planned),
                     config.admission.planCostMb);

    auto estimateFuture = service.submit(estimate);
    auto planFuture = service.submit(planned);
    ASSERT_EQ(service.drain(), 2u);
    ASSERT_EQ(estimateFuture.get().status, ResponseStatus::Ok);
    ASSERT_EQ(planFuture.get().status, ResponseStatus::Ok);

    const auto replayed = TenantLedger::replay(journal.bytes());
    const auto it = replayed.tenants.find("acme");
    ASSERT_NE(it, replayed.tenants.end());
    EXPECT_EQ(it->second.charges, 2u);
    EXPECT_DOUBLE_EQ(it->second.peakMb + it->second.offPeakMb,
                     config.admission.estimateCostMb +
                         config.admission.planCostMb);
}

// A what-if runs every scenario in its request, so it pays for every
// one: N scenarios bill N x whatIfCostMb (as a sweep bills N x
// sweepCostMbPerScenario), and the ledger replays to exactly what the
// responses were charged.
TEST(ObservatoryService, WhatIfBillsEveryScenarioItRuns) {
    const ServiceConfig config;
    const auto snapshot = tinySnapshot(31);
    obs::ManualClock clock;
    persist::MemorySink journal;
    ObservatoryService service{snapshot, config, &clock, nullptr,
                               &journal};
    const TenantQuota quota = quotaFor("acme");
    service.registerTenant(quota);

    double chargedUsd = 0.0;
    double billedMb = 0.0;
    for (const auto& scenarios :
         {cableCuts({"WACS"}), cableCuts({"WACS", "SEACOM", "ACE"}),
          cableCuts({"WACS", "SEACOM", "ACE", "EASSy", "SAT-3",
                     "MainOne"})}) {
        ServiceRequest request = namedRequest("whatif", "acme");
        request.scenarios = scenarios;
        const double mb = config.admission.whatIfCostMb *
                          static_cast<double>(scenarios.size());
        EXPECT_DOUBLE_EQ(service.admission().costMbFor(request), mb);

        auto future = service.submit(request);
        ASSERT_EQ(service.drain(), 1u);
        const ServiceResponse response = future.get();
        ASSERT_EQ(response.status, ResponseStatus::Ok) << response.error;
        ASSERT_TRUE(response.sweep.has_value());
        EXPECT_EQ(response.sweep->scenarios.size(), scenarios.size());
        EXPECT_DOUBLE_EQ(response.chargedUsd,
                         quota.pricing.costUsd(mb, false));
        chargedUsd += response.chargedUsd;
        billedMb += mb;
    }

    const auto replayed = TenantLedger::replay(journal.bytes());
    const auto it = replayed.tenants.find("acme");
    ASSERT_NE(it, replayed.tenants.end());
    EXPECT_EQ(it->second.charges, 3u);
    EXPECT_DOUBLE_EQ(it->second.peakMb + it->second.offPeakMb, billedMb);
    EXPECT_DOUBLE_EQ(quota.pricing.costUsd(it->second.peakMb, false) +
                         quota.pricing.costUsd(it->second.offPeakMb, true),
                     chargedUsd);
    EXPECT_DOUBLE_EQ(service.admission().spentUsd("acme"), chargedUsd);
}

TEST(ObservatoryService, UnknownWorkloadIsATypedReject) {
    const auto snapshot = tinySnapshot(31);
    obs::ManualClock clock;
    ObservatoryService service{snapshot, {}, &clock};
    service.registerTenant(quotaFor("acme"));

    auto future = service.submit(namedRequest("nonsense", "acme"));
    const ServiceResponse response = future.get();
    EXPECT_EQ(response.status, ResponseStatus::Rejected);
    EXPECT_EQ(response.reject, RejectReason::UnknownWorkload);
    EXPECT_EQ(service.drain(), 0u);
    // A typed reject is free: nothing was admitted, nothing billed.
    EXPECT_DOUBLE_EQ(service.admission().spentUsd("acme"), 0.0);
}

TEST(ObservatoryService, PlanWorkloadEnforcesItsDeadlinePolicy) {
    const auto snapshot = tinySnapshot(31);
    obs::ManualClock clock;
    ObservatoryService service{snapshot, {}, &clock};
    service.registerTenant(quotaFor("acme"));

    ServiceRequest bare = namedRequest("plan", "acme");
    bare.questionText = kQuestionText;
    auto rejected = service.submit(bare);
    EXPECT_EQ(rejected.get().reject, RejectReason::DeadlineUnmeetable);

    ServiceRequest withDeadline = bare;
    withDeadline.deadlineNanos = clock.nowNanos() + 60'000'000'000ULL;
    auto future = service.submit(withDeadline);
    ASSERT_EQ(service.drain(), 1u);
    const ServiceResponse response = future.get();
    ASSERT_EQ(response.status, ResponseStatus::Ok) << response.error;
    ASSERT_TRUE(response.plan.has_value());
    ASSERT_TRUE(response.report.has_value());
    EXPECT_FALSE(response.plan->tasks.empty());
    EXPECT_TRUE(response.report->withinBound);
    EXPECT_FALSE(response.report->answer.rows.empty());

    // A malformed question is an execution failure with the typed
    // line/field parse message, not a crash and not a reject.
    ServiceRequest garbled = withDeadline;
    garbled.questionText = "question q\ntop-sites ten\nend\n";
    auto failed = service.submit(garbled);
    ASSERT_EQ(service.drain(), 1u);
    const ServiceResponse failure = failed.get();
    EXPECT_EQ(failure.status, ResponseStatus::Failed);
    EXPECT_NE(failure.error.find("line 2"), std::string::npos)
        << failure.error;
}

TEST(ObservatoryService, CustomWorkloadsRegisterBeforeFirstSubmission) {
    const auto snapshot = tinySnapshot(31);
    obs::ManualClock clock;
    ObservatoryService service{snapshot, {}, &clock};
    service.registerTenant(quotaFor("acme"));

    service.registerWorkload(
        {.name = "echo", .heavy = false, .defaultCostMb = 0.01},
        [](const WorkloadContext&, const ServiceRequest&,
           ServiceResponse& response) { response.nextHop = 42; });
    EXPECT_NE(service.workloads().find("echo"), nullptr);

    auto future = service.submit(namedRequest("echo", "acme"));
    ASSERT_EQ(service.drain(), 1u);
    const ServiceResponse response = future.get();
    EXPECT_EQ(response.status, ResponseStatus::Ok);
    EXPECT_EQ(response.nextHop, 42);
    EXPECT_GT(response.chargedUsd, 0.0);

    // Registration is a configuration-time act: after the first
    // submission the dispatch table is frozen.
    EXPECT_THROW(service.registerWorkload({.name = "late",
                                           .defaultCostMb = 0.01},
                                          [](const WorkloadContext&,
                                             const ServiceRequest&,
                                             ServiceResponse&) {}),
                 net::PreconditionError);
}

} // namespace
} // namespace aio::service
