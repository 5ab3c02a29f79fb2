#pragma once

#include <string>
#include <vector>

#include "content/catalog.hpp"
#include "dns/resolver.hpp"
#include "phys/linkmap.hpp"

namespace aio::core {

/// A localization/diversity policy package, the kind §5.2 argues
/// regulators should legislate and watchdogs should continuously audit:
/// resolver localization, content/data localization, backup-capacity
/// minimums and — the piece existing legislation misses (§5.1) —
/// corridor diversity for that backup capacity.
struct PolicyTargets {
    /// Minimum share of eyeball networks resolving within Africa.
    double minDnsAfricanShare = 0.5;
    /// Minimum share of eyeball networks resolving in-country.
    double minDnsLocalShare = 0.25;
    /// Minimum popularity-weighted share of top content hosted in Africa.
    double minContentLocalShare = 0.3;
    /// Minimum number of international cables at the coastal gateway
    /// (the count-based legislation that exists today).
    int minInternationalCables = 2;
    /// Whether those cables must span >= 2 corridors (the diversity
    /// requirement the paper calls for).
    bool requireCorridorDiversity = true;
};

/// Audit result for one country.
struct CountryAudit {
    std::string country;
    net::Region region = net::Region::WesternAfrica;

    double dnsAfricanShare = 0.0;
    double dnsLocalShare = 0.0;
    double contentLocalShare = 0.0;
    int internationalCables = 0;
    int distinctCorridors = 0;
    bool landlocked = false; ///< audited through its coastal gateway

    bool dnsCompliant = false;
    bool contentCompliant = false;
    bool cableCountCompliant = false;
    bool corridorDiversityCompliant = false;

    [[nodiscard]] bool fullyCompliant() const {
        return dnsCompliant && contentCompliant && cableCountCompliant &&
               corridorDiversityCompliant;
    }
};

/// Aggregate compliance per region.
struct RegionalComplianceSummary {
    net::Region region = net::Region::WesternAfrica;
    int countries = 0;
    int fullyCompliant = 0;
    int cableCountOnlyCompliant = 0; ///< pass count-based law, fail
                                     ///< diversity — the paper's blind spot
};

/// The compliance watchdog: scores every African country against a
/// policy package using the same substrate the measurements run on —
/// the "auditing approach where metrics from the network are analyzed
/// for compliance" of §6.2.
class PolicyAuditor {
public:
    PolicyAuditor(const topo::Topology& topology,
                  const phys::CableRegistry& registry,
                  const dns::ResolverEcosystem& resolvers,
                  const content::ContentCatalog& catalog,
                  PolicyTargets targets = {});
    /// The auditor stores references: temporaries would dangle.
    PolicyAuditor(const topo::Topology&, phys::CableRegistry&&,
                  const dns::ResolverEcosystem&,
                  const content::ContentCatalog&,
                  PolicyTargets = {}) = delete;

    [[nodiscard]] CountryAudit audit(std::string_view iso2) const;
    [[nodiscard]] std::vector<CountryAudit> auditAfrica() const;
    [[nodiscard]] std::vector<RegionalComplianceSummary>
    regionalSummary() const;

private:
    const topo::Topology* topo_;
    const phys::CableRegistry* registry_;
    const dns::ResolverEcosystem* resolvers_;
    const content::ContentCatalog* catalog_;
    PolicyTargets targets_;
};

} // namespace aio::core
