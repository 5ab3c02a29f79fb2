#include "service/storm.hpp"

#include <cmath>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "content/catalog.hpp"
#include "dns/resolver.hpp"
#include "netbase/error.hpp"
#include "netbase/rng.hpp"
#include "persist/bytes.hpp"
#include "phys/cable.hpp"
#include "topo/generator.hpp"

namespace aio::service {

namespace {

/// A storm-sized topology: the generator's defaults scaled down so one
/// snapshot builds in milliseconds and the whole rotation pool stays
/// cheap. Distinct seeds give the rotation genuinely different worlds.
topo::GeneratorConfig stormTopologyConfig(std::uint64_t seed) {
    auto config = topo::GeneratorConfig::defaults();
    config.seed = seed;
    for (auto& profile : config.africa) {
        profile.asPerMillionPeople *= 0.4;
        profile.minAsesPerCountry = 1;
        profile.ixpCount = std::max(1, profile.ixpCount / 2);
    }
    config.europe.accessPerCountry = 2;
    config.northAmerica.accessPerCountry = 2;
    config.southAmerica.accessPerCountry = 2;
    config.asiaPacific.accessPerCountry = 2;
    return config;
}

std::shared_ptr<const ServiceSnapshot>
buildStormSnapshot(std::uint64_t topologySeed, std::uint64_t substrateSeed) {
    const topo::Topology topology =
        topo::TopologyGenerator{stormTopologyConfig(topologySeed)}
            .generate();
    SnapshotConfig config;
    config.seed = substrateSeed;
    auto built = ServiceSnapshot::build(
        topology, phys::CableRegistry::africanDefaults(),
        dns::DnsConfig::defaults(), content::ContentConfig::defaults(),
        config);
    AIO_EXPECTS(built.hasValue(), "storm snapshot pool must build");
    return std::move(built).value();
}

core::ScenarioSpec stormScenario(net::Rng& rng, std::size_t ordinal) {
    static constexpr const char* kCables[] = {"WACS", "SEACOM", "ACE",
                                              "EASSy", "SAT-3",
                                              "MainOne"};
    core::ScenarioSpec spec;
    const auto pick =
        static_cast<std::size_t>(rng.uniformInt(std::size(kCables)));
    spec.name = "storm-" + std::to_string(ordinal) + "-" + kCables[pick];
    spec.cutCables = {kCables[pick]};
    spec.repairDays = {14.0};
    return spec;
}

} // namespace

void StormConfig::validate() const {
    AIO_EXPECTS(steps >= 1, "storm needs at least one step");
    AIO_EXPECTS(tenants >= 1, "storm needs at least one tenant");
    AIO_EXPECTS(snapshotPool >= 1, "storm needs at least one snapshot");
    AIO_EXPECTS(executePerStep >= 1,
                "storm must execute at least one request per step");
    AIO_EXPECTS(std::isfinite(tenantBudgetUsd) && tenantBudgetUsd >= 0.0,
                "tenant budget must be non-negative and finite");
    AIO_EXPECTS(queryProb >= 0.0 && queryProb <= 1.0,
                "query probability must lie in [0, 1]");
    AIO_EXPECTS(whatIfShare >= 0.0 && whatIfShare <= 1.0,
                "what-if share must lie in [0, 1]");
    AIO_EXPECTS(sweepScenarios >= 1,
                "sweep requests need at least one scenario");
    AIO_EXPECTS(stepNanos >= 1, "step interval must be positive");
    faults.validate();
    service.validate();
}

StormReport runStorm(const StormConfig& config) {
    config.validate();

    std::vector<std::shared_ptr<const ServiceSnapshot>> pool;
    pool.reserve(config.snapshotPool);
    for (std::size_t i = 0; i < config.snapshotPool; ++i) {
        pool.push_back(buildStormSnapshot(config.topologySeed + i,
                                          config.topologySeed + 100 + i));
    }

    obs::ManualClock clock;
    ObservatoryService service{pool.front(), config.service, &clock};
    for (std::size_t i = 0; i < config.tenants; ++i) {
        TenantQuota quota;
        quota.tenant = "tenant-" + std::to_string(i);
        quota.budgetUsd = config.tenantBudgetUsd;
        service.registerTenant(quota);
    }

    net::Rng rng{config.seed};
    resilience::ServiceFaultInjector injector{config.faults};
    StormReport report;
    std::vector<std::future<ServiceResponse>> futures;

    const auto submitOne = [&] {
        ServiceRequest request;
        request.tenant =
            "tenant-" +
            std::to_string(rng.uniformInt(
                static_cast<std::uint64_t>(config.tenants)));
        const double workloadDraw = rng.uniform01();
        const double heavyDraw = rng.uniform01();
        if (workloadDraw < config.queryProb) {
            request.workload = "query";
            const auto asCount = static_cast<std::uint64_t>(
                pool.front()->topology().asCount());
            request.src =
                static_cast<topo::AsIndex>(rng.uniformInt(asCount));
            request.dst =
                static_cast<topo::AsIndex>(rng.uniformInt(asCount));
        } else if (heavyDraw < config.whatIfShare) {
            request.workload = "whatif";
            request.scenarios = {stormScenario(rng, report.submitted)};
        } else {
            request.workload = "sweep";
            for (std::size_t s = 0; s < config.sweepScenarios; ++s) {
                request.scenarios.push_back(
                    stormScenario(rng, report.submitted));
            }
        }
        if (config.requestDeadlineNanos != exec::kNoDeadlineNanos) {
            request.deadlineNanos =
                clock.nowNanos() + config.requestDeadlineNanos;
        }
        ++report.submitted;
        futures.push_back(service.submit(std::move(request)));
    };

    std::size_t rotation = 1;
    for (std::size_t step = 0; step < config.steps; ++step) {
        const auto faults = injector.faultsFor(rng);

        if (faults.topologySwap) {
            if (faults.invalidSwap) {
                (void)service.publish(net::Error::precondition(
                    "storm: snapshot failed validation"));
                ++report.failedSwaps;
            } else {
                (void)service.publish(pool[rotation % pool.size()]);
                ++rotation;
                ++report.swaps;
            }
        }
        if (faults.allocPressure) {
            service.injectAllocPressure(config.faults.allocPressureBytes);
            ++report.pressureSpikes;
        }

        const std::size_t burst =
            faults.tenantFlood ? config.faults.floodBurst : 1;
        if (faults.tenantFlood) {
            ++report.floodBursts;
        }
        for (std::size_t i = 0; i < burst; ++i) {
            submitOne();
        }

        if (faults.slowHandler) {
            // A stalled handler: the clock runs past several deadlines
            // before anything executes.
            clock.advance(config.stepNanos *
                          static_cast<std::uint64_t>(
                              config.faults.slowFactor));
            ++report.slowSteps;
        }
        for (std::size_t i = 0; i < config.executePerStep; ++i) {
            (void)service.runOne();
        }
        service.clearAllocPressure();
        clock.advance(config.stepNanos);
    }
    (void)service.drain();

    // Fold every response into the decision digest in seq order (the
    // futures vector is submission order, and seq is assigned at
    // submission). Any divergence in admission, shedding, cancellation,
    // epoch routing or degradation flips the digest.
    persist::ByteWriter decisions;
    for (auto& future : futures) {
        const ServiceResponse response = future.get();
        decisions.u64(response.seq);
        decisions.u8(static_cast<std::uint8_t>(response.status));
        decisions.u8(static_cast<std::uint8_t>(response.reject));
        decisions.u64(response.epoch);
        decisions.boolean(response.degraded);
        decisions.u32(response.digest.nextHop);
        decisions.u32(response.digest.routeClass);
        switch (response.status) {
        case ResponseStatus::Ok:
            ++report.completed;
            if (response.degraded) {
                ++report.degradedResponses;
            }
            break;
        case ResponseStatus::Rejected:
            ++report.rejectedByReason[std::string{
                rejectReasonName(response.reject)}];
            break;
        case ResponseStatus::Cancelled:
            ++report.cancelled;
            break;
        case ResponseStatus::Failed:
            ++report.failed;
            break;
        }
    }
    report.admitted =
        report.completed + report.cancelled + report.failed;
    report.epochsReclaimed = service.epochs().reclaimed();
    report.decisionDigest = persist::fnv1a64(decisions.bytes());
    return report;
}

} // namespace aio::service
