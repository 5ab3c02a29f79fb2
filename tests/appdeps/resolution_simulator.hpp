#pragma once

#include <string_view>

#include "dns/resolver.hpp"
#include "netbase/geo.hpp"
#include "routing/route_oracle.hpp"

// An independent model of DNS resolution under a (possibly
// failure-degraded) routing state: a client resolves when its resolver
// AS is reachable. The outage ImpactAnalyzer scores DNS from its own
// per-country tables, never through this model; the routing-impact
// tests check the analyzer's DNS shares against resolvableShare.
namespace aio::dns {

struct ResolutionOutcome {
    bool resolved = false;
    double rttMs = 0.0; ///< client -> resolver propagation RTT
};

class ResolutionSimulator {
public:
    explicit ResolutionSimulator(const ResolverEcosystem& ecosystem)
        : ecosystem_(&ecosystem) {}

    [[nodiscard]] ResolutionOutcome
    resolve(topo::AsIndex client, const route::RouteOracle& oracle) const {
        const auto assignment = ecosystem_->resolverOf(client);
        ResolutionOutcome outcome;
        if (!assignment || !oracle.reachable(client, assignment->resolverAs)) {
            return outcome;
        }
        const auto& topo = ecosystem_->topology();
        outcome.resolved = true;
        outcome.rttMs = net::rttMs(topo.as(client).location,
                                   topo.as(assignment->resolverAs).location);
        return outcome;
    }

    /// Fraction of eyeball ASes in a country that can resolve.
    [[nodiscard]] double
    resolvableShare(std::string_view countryCode,
                    const route::RouteOracle& oracle) const {
        int total = 0;
        int ok = 0;
        for (const topo::AsIndex as :
             ecosystem_->topology().asesInCountry(countryCode)) {
            if (!ecosystem_->resolverOf(as)) {
                continue;
            }
            ++total;
            ok += resolve(as, oracle).resolved ? 1 : 0;
        }
        return total == 0 ? 0.0 : static_cast<double>(ok) / total;
    }

private:
    const ResolverEcosystem* ecosystem_;
};

} // namespace aio::dns
