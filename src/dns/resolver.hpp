#pragma once

#include <array>
#include <map>
#include <optional>

#include "netbase/rng.hpp"
#include "topo/as_graph.hpp"

namespace aio::dns {

/// Where an eyeball network's recursive DNS resolution actually happens
/// (§5.2's "hidden dependency"). Offshore classes fail with the subsea
/// cables; CloudInAfrica is centralized in South Africa.
enum class ResolverClass {
    LocalInCountry,      ///< resolver operated in the client's country
    OtherAfricanCountry, ///< outsourced to another African operator
    CloudInAfrica,       ///< public cloud resolver hosted in Africa (ZA)
    CloudOffshore,       ///< public cloud resolver in the EU/US
    IspOffshore,         ///< resolution outsourced to a European ISP
};

/// True when the class keeps resolution on the continent.
[[nodiscard]] bool isAfricanResolverClass(ResolverClass cls);

/// Regional resolver-class mix.
struct ResolverProfile {
    double localInCountry = 0.3;
    double otherAfricanCountry = 0.1;
    double cloudInAfrica = 0.1;
    double cloudOffshore = 0.35;
    double ispOffshore = 0.15;

    [[nodiscard]] bool operator==(const ResolverProfile&) const = default;
};

struct DnsConfig {
    /// Profiles for the five African regions (africanRegions() order).
    std::array<ResolverProfile, 5> africa;
    static DnsConfig defaults();

    [[nodiscard]] bool operator==(const DnsConfig&) const = default;
};

/// Concrete resolver used by one client AS.
struct ResolverAssignment {
    ResolverClass cls = ResolverClass::LocalInCountry;
    topo::AsIndex resolverAs = 0;
};

/// Assigns a recursive resolver to every African eyeball AS following the
/// regional class mix, then answers aggregate and per-client queries.
class ResolverEcosystem {
public:
    ResolverEcosystem(const topo::Topology& topology, DnsConfig config,
                      std::uint64_t seed);

    /// Resolver of a client AS; empty for non-eyeball or non-African ASes.
    [[nodiscard]] std::optional<ResolverAssignment>
    resolverOf(topo::AsIndex client) const;

    /// Fraction of eyeball networks per region in each class (one vote
    /// per AS) — the Figure 2c series.
    [[nodiscard]] std::map<ResolverClass, double>
    classShares(net::Region region) const;

    [[nodiscard]] const topo::Topology& topology() const { return *topo_; }

private:
    const topo::Topology* topo_;
    std::vector<std::optional<ResolverAssignment>> assignments_;
};

} // namespace aio::dns
