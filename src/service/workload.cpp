#include "service/workload.hpp"

#include <cmath>
#include <utility>

#include "netbase/error.hpp"
#include "plan/planner.hpp"
#include "plan/textio.hpp"
#include "routing/route_oracle.hpp"
#include "sweep/scenario_sweep.hpp"

namespace aio::service {

namespace {

void runQuery(const WorkloadContext& context, const ServiceRequest& request,
              ServiceResponse& response) {
    // The oracle's next-hop accessor is unchecked (the scoring loops
    // call it per pair), so tenant input is bounded here.
    const std::size_t asCount = context.snapshot->topology().asCount();
    AIO_EXPECTS(request.src < asCount && request.dst < asCount,
                "query endpoints must be AS indices of the serving "
                "snapshot");
    const route::RouteOracle& oracle =
        *context.snapshot->substrate().analyzer().baselineOracle();
    response.nextHop = oracle.nextHopOf(request.src, request.dst);
    response.reachable = response.nextHop >= 0;
}

void runSweep(const WorkloadContext& context, const ServiceRequest& request,
              ServiceResponse& response) {
    sweep::SweepOptions options;
    options.cancel = context.cancel;
    const sweep::ScenarioSweepEngine engine{
        context.snapshot->substrate(), options};
    response.sweep = engine.run(request.scenarios);
}

/// Shared front half of estimate and plan: textual question -> compiled,
/// costed CampaignPlan on the response. Parse and compile failures raise
/// typed errors the service resolves as Failed.
const plan::CampaignPlan& compileQuestion(const WorkloadContext& context,
                                          const ServiceRequest& request,
                                          ServiceResponse& response) {
    const plan::MeasurementQuestion question =
        plan::parseQuestion(request.questionText).valueOrRaise();
    const plan::CampaignPlanner planner{context.snapshot->substrate()};
    response.plan = planner.compile(question).valueOrRaise();
    return *response.plan;
}

void runEstimate(const WorkloadContext& context,
                 const ServiceRequest& request, ServiceResponse& response) {
    (void)compileQuestion(context, request, response);
}

void runPlan(const WorkloadContext& context, const ServiceRequest& request,
             ServiceResponse& response) {
    const plan::CampaignPlan& compiled =
        compileQuestion(context, request, response);
    const plan::CampaignPlanner planner{context.snapshot->substrate()};
    plan::ExecuteOptions options;
    options.cancel = context.cancel;
    response.report = planner.execute(compiled, options);
}

} // namespace

void WorkloadRegistry::add(WorkloadInfo info, WorkloadHandler handler) {
    AIO_EXPECTS(!info.name.empty(), "workload name must be non-empty");
    AIO_EXPECTS(handler != nullptr, "workload needs a handler");
    AIO_EXPECTS(std::isfinite(info.defaultCostMb) &&
                    info.defaultCostMb >= 0.0,
                "workload default cost must be non-negative and finite");
    // Key copied out first: the Entry argument moves from `info`, and
    // argument evaluation order is unspecified.
    std::string name = info.name;
    entries_.insert_or_assign(std::move(name),
                              Entry{std::move(info), std::move(handler)});
}

WorkloadRegistry WorkloadRegistry::builtins(const AdmissionConfig& config) {
    config.validate();
    WorkloadRegistry registry;
    registry.add({.name = "query",
                  .heavy = false,
                  .defaultCostMb = config.queryCostMb},
                 &runQuery);
    registry.add({.name = "whatif",
                  .heavy = true,
                  .defaultCostMb = config.whatIfCostMb,
                  .perScenario = true},
                 &runSweep);
    registry.add({.name = "sweep",
                  .heavy = true,
                  .defaultCostMb = config.sweepCostMbPerScenario,
                  .perScenario = true},
                 &runSweep);
    registry.add({.name = "estimate",
                  .heavy = false,
                  .defaultCostMb = config.estimateCostMb},
                 &runEstimate);
    registry.add({.name = "plan",
                  .heavy = true,
                  .defaultCostMb = config.planCostMb,
                  .deadline = DeadlinePolicy::Required},
                 &runPlan);
    return registry;
}

const WorkloadInfo* WorkloadRegistry::find(std::string_view name) const {
    const auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : &it->second.info;
}

const WorkloadHandler&
WorkloadRegistry::handler(std::string_view name) const {
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
        net::Error::notFound("unknown workload '" + std::string{name} +
                             "'")
            .raise();
    }
    return it->second.handler;
}

double
WorkloadRegistry::resolveCostMb(const ServiceRequest& request) const {
    if (request.costMb > 0.0) {
        return request.costMb;
    }
    const WorkloadInfo* info = find(request.workload);
    if (info == nullptr) {
        net::Error::notFound("unknown workload '" + request.workload + "'")
            .raise();
    }
    if (info->perScenario) {
        return info->defaultCostMb *
               static_cast<double>(request.scenarios.size());
    }
    return info->defaultCostMb;
}

std::vector<std::string> WorkloadRegistry::names() const {
    std::vector<std::string> names;
    names.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) {
        names.push_back(name);
    }
    return names;
}

} // namespace aio::service
