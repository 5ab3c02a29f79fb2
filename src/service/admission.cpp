#include "service/admission.hpp"

#include <cmath>
#include <tuple>
#include <utility>

#include "netbase/error.hpp"
#include "service/workload.hpp"

namespace aio::service {

std::string_view rejectReasonName(RejectReason reason) {
    switch (reason) {
    case RejectReason::None: return "none";
    case RejectReason::QueueFull: return "queue_full";
    case RejectReason::Overloaded: return "overloaded";
    case RejectReason::MemoryPressure: return "memory_pressure";
    case RejectReason::BudgetExhausted: return "budget_exhausted";
    case RejectReason::DeadlineUnmeetable: return "deadline_unmeetable";
    case RejectReason::UnknownTenant: return "unknown_tenant";
    case RejectReason::ShuttingDown: return "shutting_down";
    case RejectReason::UnknownWorkload: return "unknown_workload";
    }
    return "?";
}

void AdmissionConfig::validate() const {
    AIO_EXPECTS(queueCapacity >= 1, "admission queue needs capacity >= 1");
    AIO_EXPECTS(shedQueueDepth >= 1 && shedQueueDepth <= queueCapacity,
                "shed watermark must sit inside the queue capacity");
    AIO_EXPECTS(retryAfterNanos > 0,
                "retry-after hint must be a positive interval");
    const auto requireCost = [](double value, const char* what) {
        AIO_EXPECTS(std::isfinite(value) && value >= 0.0, what);
    };
    requireCost(queryCostMb, "query cost must be non-negative and finite");
    requireCost(whatIfCostMb,
                "what-if cost must be non-negative and finite");
    requireCost(sweepCostMbPerScenario,
                "sweep cost must be non-negative and finite");
    requireCost(estimateCostMb,
                "estimate cost must be non-negative and finite");
    requireCost(planCostMb, "plan cost must be non-negative and finite");
}

AdmissionController::AdmissionController(AdmissionConfig config,
                                         const WorkloadRegistry& registry,
                                         obs::MetricsRegistry* metrics)
    : config_(config), metrics_(metrics), registry_(&registry) {
    config_.validate();
}

void AdmissionController::registerTenant(const TenantQuota& quota) {
    AIO_EXPECTS(!quota.tenant.empty(), "tenant name must be non-empty");
    AIO_EXPECTS(std::isfinite(quota.budgetUsd) && quota.budgetUsd >= 0.0,
                "tenant budget must be non-negative and finite");
    quota.pricing.validate();
    // Re-registration replaces the tenant (fresh meter); the Tenant is
    // built in place because its meter aliases its own quota.pricing.
    const auto existing = tenants_.find(quota.tenant);
    if (existing != tenants_.end()) {
        tenants_.erase(existing);
    }
    tenants_.emplace(std::piecewise_construct,
                     std::forward_as_tuple(quota.tenant),
                     std::forward_as_tuple(quota));
}

double
AdmissionController::costMbFor(const ServiceRequest& request) const {
    // The registry attribute is the single default-cost seam: what
    // admission bills here is byte-for-byte what the ledger records and
    // what a plan estimate quotes.
    return registry_->resolveCostMb(request);
}

AdmissionDecision
AdmissionController::decide(const ServiceRequest& request,
                            std::uint64_t nowNanos, std::size_t queueDepth,
                            std::uint64_t residentBytes) {
    const auto it = tenants_.find(request.tenant);
    if (it == tenants_.end()) {
        return reject(RejectReason::UnknownTenant);
    }
    const WorkloadInfo* info = registry_->find(request.workload);
    if (info == nullptr) {
        return reject(RejectReason::UnknownWorkload);
    }
    if (request.deadlineNanos != exec::kNoDeadlineNanos &&
        request.deadlineNanos <= nowNanos) {
        return reject(RejectReason::DeadlineUnmeetable);
    }
    if (info->deadline == DeadlinePolicy::Required &&
        request.deadlineNanos == exec::kNoDeadlineNanos) {
        // A deadline-Required workload without a deadline can never meet
        // one — same reject family as an already-passed deadline.
        return reject(RejectReason::DeadlineUnmeetable);
    }
    if (queueDepth >= config_.queueCapacity) {
        return reject(RejectReason::QueueFull);
    }
    if (info->heavy) {
        // Degradation ladder, cheapest rung first: shed heavy work at
        // the depth watermark, then at the resident-byte watermark.
        if (queueDepth >= config_.shedQueueDepth) {
            return reject(RejectReason::Overloaded);
        }
        if (config_.shedResidentBytes != 0 &&
            residentBytes >= config_.shedResidentBytes) {
            return reject(RejectReason::MemoryPressure);
        }
    }
    Tenant& tenant = it->second;
    const double mb = costMbFor(request);
    const double marginal = tenant.meter.marginalCost(mb, false);
    if (tenant.meter.totalCost() + marginal >
        tenant.quota.budgetUsd + 1e-12) {
        return reject(RejectReason::BudgetExhausted);
    }
    tenant.meter.add(mb, false);
    if (metrics_ != nullptr) {
        metrics_->counter("service.admitted").add();
    }
    AdmissionDecision decision;
    decision.admitted = true;
    decision.chargedUsd = marginal;
    return decision;
}

double AdmissionController::spentUsd(std::string_view tenant) const {
    const auto it = tenants_.find(tenant);
    AIO_EXPECTS(it != tenants_.end(), "unknown tenant");
    return it->second.meter.totalCost();
}

double AdmissionController::budgetUsd(std::string_view tenant) const {
    const auto it = tenants_.find(tenant);
    AIO_EXPECTS(it != tenants_.end(), "unknown tenant");
    return it->second.quota.budgetUsd;
}

void AdmissionController::restoreConsumption(std::string_view tenant,
                                             double peakMb,
                                             double offPeakMb) {
    const auto it = tenants_.find(tenant);
    AIO_EXPECTS(it != tenants_.end(),
                "restore requires the tenant to be registered first");
    it->second.meter.restoreConsumption(peakMb, offPeakMb);
}

AdmissionDecision AdmissionController::reject(RejectReason reason) {
    if (metrics_ != nullptr) {
        metrics_
            ->counter(std::string{"service.rejected."} +
                      std::string{rejectReasonName(reason)})
            .add();
    }
    AdmissionDecision decision;
    decision.reason = reason;
    const bool shed = reason == RejectReason::QueueFull ||
                      reason == RejectReason::Overloaded ||
                      reason == RejectReason::MemoryPressure;
    decision.retryAfterNanos = shed ? config_.retryAfterNanos : 0;
    return decision;
}

} // namespace aio::service
