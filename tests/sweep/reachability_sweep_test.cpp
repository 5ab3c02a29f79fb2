// The reachability pass at the sweep's level: a one-state cacheless sweep
// over the default world, whose query plan spans more than one
// kReachBlock of destinations, at 1/2/8 lanes. Its report must equal the
// per-scenario reference bitwise, and routingImpacts must equal
// routingImpact over a dense oracle built for the same filter, at every
// lane count. CI runs this suite under ASan/UBSan with the routing one.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../core/whatif_reference.hpp"
#include "exec/worker_pool.hpp"
#include "routing/path_oracle.hpp"
#include "routing/route_kernel.hpp"
#include "sweep/scenario_sweep.hpp"
#include "topo/generator.hpp"

namespace aio::sweep {
namespace {

void expectSameImpact(const outage::RoutingImpact& want,
                      const outage::RoutingImpact& got,
                      const std::string& label) {
    ASSERT_EQ(got.countries.size(), want.countries.size()) << label;
    for (std::size_t i = 0; i < want.countries.size(); ++i) {
        EXPECT_EQ(got.countries[i].country, want.countries[i].country)
            << label;
        EXPECT_EQ(got.countries[i].pageLoadLoss,
                  want.countries[i].pageLoadLoss)
            << label;
        EXPECT_EQ(got.countries[i].dnsFailureShare,
                  want.countries[i].dnsFailureShare)
            << label;
    }
}

TEST(ReachabilityPass, OneStateSweepSpansBlocksAtAnyLaneCount) {
    auto config = topo::GeneratorConfig::defaults();
    config.seed = 20250704;
    const topo::Topology topo = topo::TopologyGenerator{config}.generate();
    core::ScenarioSpec spec;
    spec.name = "west-corridor";
    spec.cutCables = {"WACS", "MainOne", "SAT-3", "ACE"};
    spec.repairDays = 21.0;

    for (const int threads : {1, 2, 8}) {
        const std::string label = "threads=" + std::to_string(threads);
        exec::WorkerPool pool{threads};
        core::Substrate::Options options;
        options.pool = &pool;
        const core::Substrate substrate{
            topo, phys::CableRegistry::africanDefaults(),
            dns::DnsConfig::defaults(), content::ContentConfig::defaults(),
            options};
        const outage::ImpactAnalyzer& analyzer = substrate.analyzer();
        ASSERT_GT(analyzer.plannedDestinations(), route::kernel::kReachBlock)
            << label << ": the plan must span at least two blocks";

        const SweepResult result =
            ScenarioSweepEngine{substrate}.run(std::vector{spec});
        EXPECT_EQ(result.stats.incrementalBuilds, 1U) << label;
        ASSERT_TRUE(result.scenarios[0].outcome.hasValue()) << label;
        const auto want = core::reference::report(substrate, spec);
        ASSERT_TRUE(want.hasValue()) << label;
        EXPECT_TRUE(result.scenarios[0].outcome.value() == want.value())
            << label;
        EXPECT_FALSE(want.value().countries.empty())
            << label << ": the corridor cut should cost some country";

        net::Rng rng = substrate.assessStream();
        const route::LinkFilter filter = analyzer.filterFor(
            spec.makeEvent(substrate.registry()).valueOrRaise(), rng);
        const route::PathOracle oracle{topo, filter};
        const route::LinkFilter* states[] = {&filter};
        const std::vector<outage::RoutingImpact> got =
            analyzer.routingImpacts(states);
        ASSERT_EQ(got.size(), 1U) << label;
        expectSameImpact(analyzer.routingImpact(oracle), got.front(), label);
    }
}

} // namespace
} // namespace aio::sweep
