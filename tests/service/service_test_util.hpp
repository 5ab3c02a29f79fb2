#pragma once

#include <memory>
#include <string>
#include <vector>

#include "content/catalog.hpp"
#include "dns/resolver.hpp"
#include "phys/cable.hpp"
#include "service/admission.hpp"
#include "service/request.hpp"
#include "service/snapshot.hpp"
#include "topo/generator.hpp"

namespace aio::service::testutil {

/// A test-sized world: the generator defaults scaled down so a snapshot
/// builds in milliseconds. Distinct seeds give distinct topologies (and
/// hence distinct route-matrix digests — the torn-read tests rely on
/// that).
inline topo::GeneratorConfig tinyConfig(std::uint64_t seed) {
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

inline std::shared_ptr<const ServiceSnapshot>
tinySnapshot(std::uint64_t topologySeed, SnapshotConfig config = {}) {
    const topo::Topology topology =
        topo::TopologyGenerator{tinyConfig(topologySeed)}.generate();
    auto built = ServiceSnapshot::build(
        topology, phys::CableRegistry::africanDefaults(),
        dns::DnsConfig::defaults(), content::ContentConfig::defaults(),
        config);
    if (!built.hasValue()) {
        throw std::runtime_error{"test snapshot failed to build"};
    }
    return std::move(built).value();
}

inline TenantQuota quotaFor(std::string tenant, double budgetUsd = 10.0) {
    TenantQuota quota;
    quota.tenant = std::move(tenant);
    quota.budgetUsd = budgetUsd;
    return quota;
}

inline std::vector<core::ScenarioSpec> cableCuts(
    std::initializer_list<const char*> cables) {
    std::vector<core::ScenarioSpec> specs;
    for (const char* cable : cables) {
        core::ScenarioSpec spec;
        spec.name = std::string{"cut-"} + cable;
        spec.cutCables = {cable};
        spec.repairDays = {14.0};
        specs.push_back(std::move(spec));
    }
    return specs;
}

inline ServiceRequest queryRequest(std::string tenant, topo::AsIndex src,
                                   topo::AsIndex dst) {
    ServiceRequest request;
    request.tenant = std::move(tenant);
    request.workload = "query";
    request.src = src;
    request.dst = dst;
    return request;
}

inline ServiceRequest sweepRequest(std::string tenant,
                                   std::vector<core::ScenarioSpec> specs) {
    ServiceRequest request;
    request.tenant = std::move(tenant);
    request.workload = specs.size() == 1 ? "whatif" : "sweep";
    request.scenarios = std::move(specs);
    return request;
}

} // namespace aio::service::testutil
