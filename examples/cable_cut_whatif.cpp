// Replays the March 2024 West-African subsea incident (WACS + MainOne +
// SAT-3 + ACE severed by one seabed event) and runs the paper's what-if:
// how much would a geographically diverse cable have helped?
//
// Written against the Substrate + scenario-sweep API, the one what-if
// path: both scenarios (status quo and the WestShield overlay) are
// ScenarioSpecs in one ScenarioSweepEngine batch, which scores each
// distinct cut set once and is byte-identical to assessing each
// scenario on its own Substrate.
//
//   ./build/examples/cable_cut_whatif

#include <iostream>

#include "netbase/error.hpp"
#include "netbase/stats.hpp"
#include "sweep/scenario_sweep.hpp"
#include "topo/generator.hpp"

using namespace aio;

int main() try {
    const topo::Topology topology =
        topo::TopologyGenerator{topo::GeneratorConfig::defaults()}.generate();
    const core::Substrate substrate{
        topology, phys::CableRegistry::africanDefaults(),
        dns::DnsConfig::defaults(), content::ContentConfig::defaults()};

    const std::vector<std::string> cables = {"WACS", "MainOne", "SAT-3",
                                             "ACE"};
    std::cout << "Scenario: correlated cut of";
    for (const auto& name : cables) std::cout << ' ' << name;
    std::cout << " (March 2024)\n\n";

    // What-if overlay: a diverse cable covering the ACE-only coast.
    phys::SubseaCable shield;
    shield.name = "WestShield";
    shield.corridor = substrate.registry()
                          .cable(substrate.registry().byName("Equiano"))
                          .corridor;
    shield.readyForService = 2026;
    shield.capacityTbps = 120.0;
    for (const auto code : {"PT", "SN", "GM", "GN", "SL", "LR", "CI", "GH",
                            "NG", "ZA"}) {
        shield.landings.push_back(phys::LandingStation{
            std::string{code},
            net::CountryTable::world().byCode(code).centroid});
    }

    std::vector<core::ScenarioSpec> scenarios(2);
    scenarios[0].name = "march-2024";
    scenarios[0].cutCables = cables;
    scenarios[1].name = "march-2024+WestShield";
    scenarios[1].cutCables = cables;
    scenarios[1].cablesAdded = {shield};

    const sweep::ScenarioSweepEngine engine{substrate};
    const sweep::SweepResult batch = engine.run(scenarios);
    const auto& report = batch.scenarios[0].outcome.valueOrRaise();
    const auto& after = batch.scenarios[1].outcome.valueOrRaise();

    std::cout << "Impacted countries (" << report.impactedCountries().size()
              << "):\n";
    for (const auto& impact : report.countries) {
        if (impact.effectiveOutageDays <= 0.0) continue;
        std::cout << "  " << impact.country << "  page-load loss "
                  << net::TextTable::pct(impact.pageLoadLoss)
                  << ", DNS failure "
                  << net::TextTable::pct(impact.dnsFailureShare)
                  << ", down for "
                  << net::TextTable::num(impact.effectiveOutageDays, 1)
                  << " days\n";
    }

    double beforeMean = 0.0;
    double afterMean = 0.0;
    int beforeCount = 0;
    int afterCount = 0;
    for (const auto& impact : report.countries) {
        if (impact.effectiveOutageDays > 0.0) {
            beforeMean += impact.effectiveOutageDays;
            ++beforeCount;
        }
    }
    for (const auto& impact : after.countries) {
        if (impact.effectiveOutageDays > 0.0) {
            afterMean += impact.effectiveOutageDays;
            ++afterCount;
        }
    }
    std::cout << "\nWhat-if (add diverse 'WestShield' cable):\n"
              << "  impacted countries: " << beforeCount << " -> "
              << afterCount << "\n  mean days down:     "
              << net::TextTable::num(beforeMean / std::max(1, beforeCount), 1)
              << " -> "
              << net::TextTable::num(afterMean / std::max(1, afterCount), 1)
              << "\n";
    return 0;
} catch (const net::AioError& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
}
