#pragma once

// Shared world construction for the reproduction harness. Every bench
// builds the same seeded substrate so numbers are comparable across
// binaries, then prints its table/figure as "paper vs measured" rows.

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "content/catalog.hpp"
#include "core/observatory.hpp"
#include "core/setcover.hpp"
#include "core/studies.hpp"
#include "dns/resolver.hpp"
#include "exec/worker_pool.hpp"
#include "measure/geoloc.hpp"
#include "measure/ixp_detect.hpp"
#include "measure/scanner.hpp"
#include "nautilus/inference.hpp"
#include "netbase/stats.hpp"
#include "outage/radar.hpp"
#include "routing/path_oracle.hpp"
#include "topo/generator.hpp"
#include "topo/growth.hpp"

namespace aio::bench {

inline constexpr std::uint64_t kWorldSeed = 20250704;

/// Thread-count plumbing for bench binaries: AIO_BENCH_THREADS pins the
/// shared pool (output is byte-identical either way; this only changes
/// wall time, e.g. for single-thread baselines on many-core boxes).
inline int benchThreadCount() {
    if (const char* env = std::getenv("AIO_BENCH_THREADS")) {
        const int parsed = std::atoi(env);
        if (parsed >= 1) {
            return parsed;
        }
    }
    return exec::WorkerPool::defaultThreadCount();
}

/// The full simulated world, built once per bench binary.
struct World {
    topo::Topology topo;
    /// Shared worker pool for the all-pairs route computations (oracle
    /// construction here, failure-scenario rebuilds in the benches).
    /// Parallel and sequential builds are byte-identical, so numbers stay
    /// comparable across machines with different core counts.
    exec::WorkerPool pool;
    route::PathOracle oracle;
    measure::TracerouteEngine engine;
    phys::CableRegistry registry;
    net::Rng mapRng;
    phys::PhysicalLinkMap linkMap;
    dns::ResolverEcosystem resolvers;
    content::ContentCatalog catalog;
    measure::ResponsivenessModel responsiveness;
    measure::GeolocationModel geoloc;

    World()
        : topo(topo::TopologyGenerator{topo::GeneratorConfig::defaults()}
                   .generate()),
          pool(benchThreadCount()),
          oracle(topo, route::LinkFilter{}, pool), engine(topo, oracle),
          registry(phys::CableRegistry::africanDefaults()),
          mapRng(kWorldSeed), linkMap(topo, registry, mapRng),
          resolvers(topo, dns::DnsConfig::defaults(), kWorldSeed + 1),
          catalog(topo, content::ContentConfig::defaults(), kWorldSeed + 2),
          responsiveness(topo, measure::ResponsivenessConfig{},
                         kWorldSeed + 3),
          geoloc(topo, measure::GeolocationConfig{}, kWorldSeed + 4) {}
};

inline void banner(const std::string& id, const std::string& title) {
    std::cout << "==============================================================\n"
              << id << " — " << title << "\n"
              << "(synthetic substrate, seed " << kWorldSeed
              << "; shapes, not absolute values, are the claim)\n"
              << "==============================================================\n";
}

inline std::string pct(double fraction, int decimals = 1) {
    return net::TextTable::pct(fraction, decimals);
}

inline std::string num(double value, int decimals = 1) {
    return net::TextTable::num(value, decimals);
}

/// The Rwandan residential/campus vantage used for the YARRP run (§6.1):
/// an RW stub whose transit is entirely European (NOT the AS36924 §7.3
/// probe).
inline std::optional<topo::AsIndex> yarrpVantage(const World& world) {
    for (const topo::AsIndex as : world.topo.asesInCountry("RW")) {
        if (world.topo.as(as).asn ==
            topo::TopologyGenerator::kKigaliProbeAsn) {
            continue;
        }
        bool euOnly = true;
        for (const topo::AsIndex p : world.topo.providersOf(as)) {
            euOnly = euOnly && !net::isAfrican(world.topo.as(p).region);
        }
        if (euOnly) {
            return as;
        }
    }
    return std::nullopt;
}

} // namespace aio::bench
