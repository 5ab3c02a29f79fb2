#include "core/substrate.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace aio::core {

namespace {

/// Shares must be non-negative and sum to ~1 (tolerating float drift).
[[nodiscard]] bool validShareSet(std::initializer_list<double> shares) {
    double sum = 0.0;
    for (const double share : shares) {
        if (!(share >= 0.0) || !std::isfinite(share)) {
            return false;
        }
        sum += share;
    }
    return std::abs(sum - 1.0) < 1e-6;
}

[[nodiscard]] bool validProbability(double p) {
    return std::isfinite(p) && p >= 0.0 && p <= 1.0;
}

// The per-config validation rules, shared between Substrate::validate
// (the base bundle) and ScenarioSpec::validate (the per-scenario
// overrides) so an overlay scenario cannot smuggle in a configuration
// the substrate itself would have rejected.

[[nodiscard]] net::Expected<void>
validLinkConfig(const phys::LinkMapConfig& config) {
    if (!validProbability(config.terrestrialProb) ||
        !validProbability(config.backupProb) ||
        !validProbability(config.backupSameCorridorProb)) {
        return net::Error::precondition(
            "link-map probabilities must lie in [0, 1]");
    }
    return net::Expected<void>::ok();
}

[[nodiscard]] net::Expected<void>
validDnsConfig(const dns::DnsConfig& config) {
    for (const dns::ResolverProfile& profile : config.africa) {
        if (!validShareSet({profile.localInCountry,
                            profile.otherAfricanCountry,
                            profile.cloudInAfrica, profile.cloudOffshore,
                            profile.ispOffshore})) {
            return net::Error::precondition(
                "DNS resolver profile shares must be non-negative and "
                "sum to 1");
        }
    }
    return net::Expected<void>::ok();
}

[[nodiscard]] net::Expected<void>
validContentConfig(const content::ContentConfig& config) {
    if (config.sitesPerCountry < 1) {
        return net::Error::precondition(
            "content config needs sitesPerCountry >= 1");
    }
    for (const content::HostingProfile& profile : config.africa) {
        if (!validShareSet({profile.localDatacenter, profile.ixpOffnetCache,
                            profile.africanRegionalDc, profile.europeDc,
                            profile.northAmericaDc})) {
            return net::Error::precondition(
                "content hosting profile shares must be non-negative and "
                "sum to 1");
        }
    }
    return net::Expected<void>::ok();
}

} // namespace

net::Expected<void>
Substrate::validate(const topo::Topology& topology,
                    const phys::CableRegistry& registry,
                    const dns::DnsConfig& dnsConfig,
                    const content::ContentConfig& contentConfig,
                    const Options& options) {
    (void)registry; // no structural constraints today; reserved
    if (!topology.finalized()) {
        return net::Error::precondition(
            "substrate topology must be finalized");
    }
    if (options.oracleCache != nullptr &&
        &options.oracleCache->topology() != &topology) {
        return net::Error::precondition(
            "oracle cache bound to a different topology");
    }
    if (options.oracleCache != nullptr &&
        options.oracleCache->storagePolicy() != options.impact.routeStorage) {
        // A cache miss builds under the cache's policy; letting it
        // disagree with the substrate's would silently mix dense and
        // sharded states across one sweep (identical answers, but the
        // memory/latency profile the caller chose would not hold).
        return net::Error::precondition(
            "oracle cache storage policy disagrees with the substrate's "
            "impact.routeStorage");
    }
    if (auto valid = validLinkConfig(options.linkConfig); !valid) {
        return valid.error();
    }
    if (auto valid = validDnsConfig(dnsConfig); !valid) {
        return valid.error();
    }
    if (auto valid = validContentConfig(contentConfig); !valid) {
        return valid.error();
    }
    return net::Expected<void>::ok();
}

Substrate::Substrate(const topo::Topology& topology,
                     phys::CableRegistry registry, dns::DnsConfig dnsConfig,
                     content::ContentConfig contentConfig, Options options)
    : topo_(&topology),
      registry_(std::make_unique<phys::CableRegistry>(std::move(registry))),
      dnsConfig_(dnsConfig), contentConfig_(contentConfig),
      options_(options) {
    const auto valid =
        validate(topology, *registry_, dnsConfig_, contentConfig_, options_);
    if (!valid) {
        valid.error().raise();
    }
    // Derived what-if engines and sweep overlays re-derive through this
    // constructor, so these seed offsets are the only ones in use.
    net::Rng mapRng{options_.seed};
    linkMap_ = std::make_unique<phys::PhysicalLinkMap>(
        *topo_, *registry_, mapRng, options_.linkConfig);
    resolvers_ = std::make_unique<dns::ResolverEcosystem>(
        *topo_, dnsConfig_, options_.seed + 1);
    catalog_ = std::make_unique<content::ContentCatalog>(
        *topo_, contentConfig_, options_.seed + 2);
    analyzer_ = std::make_unique<outage::ImpactAnalyzer>(
        *topo_, *linkMap_, *resolvers_, *catalog_, options_.impact,
        options_.oracleCache, options_.pool, options_.metrics);
}

net::Expected<Substrate>
Substrate::tryCreate(const topo::Topology& topology,
                     phys::CableRegistry registry, dns::DnsConfig dnsConfig,
                     content::ContentConfig contentConfig, Options options) {
    auto valid =
        validate(topology, registry, dnsConfig, contentConfig, options);
    if (!valid) {
        return valid.error();
    }
    return Substrate{topology, std::move(registry), dnsConfig,
                     contentConfig, options};
}

net::Expected<std::vector<phys::CableId>>
canonicalCutSet(const phys::CableRegistry& registry,
                std::span<const std::string> names) {
    std::vector<phys::CableId> ids;
    ids.reserve(names.size());
    for (const std::string& name : names) {
        try {
            ids.push_back(registry.byName(name));
        } catch (const net::NotFoundError&) {
            return net::Error::notFound("unknown cable: '" + name + "'");
        }
    }
    std::ranges::sort(ids);
    const auto dupes = std::ranges::unique(ids);
    ids.erase(dupes.begin(), dupes.end());
    return ids;
}

net::Expected<outage::OutageEvent>
ScenarioSpec::makeEvent(const phys::CableRegistry& registry) const {
    outage::OutageEvent event;
    event.type = eventType;
    event.macroRegion = net::MacroRegion::Africa;
    event.startDay = startDay;
    event.countries = countries;
    if (eventType == outage::OutageType::CableCut && cutCables.empty()) {
        // Add-only build-out future: nothing breaks, duration zero — the
        // scenario is scored against its (augmented) baseline.
        event.durationDays = 0.0;
        return event;
    }
    event.durationDays = repairDays;
    if (eventType == outage::OutageType::CableCut) {
        auto cuts = canonicalCutSet(registry, cutCables);
        if (!cuts) {
            return net::Error{cuts.error().kind,
                              "scenario '" + name + "': " +
                                  cuts.error().message};
        }
        event.cutCables = std::move(cuts.value());
    }
    return event;
}

net::Expected<void> ScenarioSpec::validate(const Substrate& substrate) const {
    if (name.empty()) {
        return net::Error::precondition("scenario needs a non-empty name");
    }
    if (!(repairDays > 0.0) || !std::isfinite(repairDays)) {
        return net::Error::precondition(
            "scenario '" + name + "': repairDays must be positive");
    }
    if (!(startDay >= 0.0) || !std::isfinite(startDay)) {
        return net::Error::precondition(
            "scenario '" + name + "': startDay must be finite and >= 0");
    }
    if (eventType == outage::OutageType::CableCut) {
        if (!countries.empty()) {
            return net::Error::precondition(
                "scenario '" + name + "': cable cuts derive their blast "
                "radius from the physical layer; countries must be empty");
        }
        if (cutCables.empty() && !hasOverlay()) {
            // The former unconditional "a cut needs at least one cable"
            // rule, now scoped to specs with no damage surface at all:
            // cut-free specs with an overlay are build-out futures scored
            // against their augmented baseline.
            return net::Error::precondition(
                "scenario '" + name +
                "': a cut scenario needs at least one cable or an overlay");
        }
    } else {
        if (!cutCables.empty()) {
            return net::Error::precondition(
                "scenario '" + name + "': " +
                std::string{outage::outageTypeName(eventType)} +
                " events scope by country; cutCables must be empty");
        }
        if (countries.empty()) {
            return net::Error::precondition(
                "scenario '" + name + "': " +
                std::string{outage::outageTypeName(eventType)} +
                " events need at least one country");
        }
        for (const std::string& country : countries) {
            if (substrate.topology().asesInCountry(country).empty()) {
                return net::Error::notFound(
                    "scenario '" + name + "': no ASes in country '" +
                    country + "'");
            }
        }
    }
    // Overrides obey the same rules Substrate::validate enforces on the
    // base bundle; a violation here would otherwise surface only when a
    // sweep lane re-derives the overlay's layers (wrong sampling, or an
    // exception escaping the lane).
    const auto checkOverride = [this](const net::Expected<void>& valid)
        -> net::Expected<void> {
        if (!valid) {
            return net::Error{valid.error().kind,
                              "scenario '" + name + "': " +
                                  valid.error().message};
        }
        return net::Expected<void>::ok();
    };
    if (dnsOverride.has_value()) {
        if (auto valid = checkOverride(validDnsConfig(*dnsOverride));
            !valid) {
            return valid;
        }
    }
    if (contentOverride.has_value()) {
        if (auto valid = checkOverride(validContentConfig(*contentOverride));
            !valid) {
            return valid;
        }
    }
    if (linkMapOverride.has_value()) {
        if (auto valid = checkOverride(validLinkConfig(*linkMapOverride));
            !valid) {
            return valid;
        }
    }
    std::unordered_set<std::string> added;
    for (const phys::SubseaCable& cable : cablesAdded) {
        if (cable.name.empty()) {
            return net::Error::precondition(
                "scenario '" + name + "': added cable needs a name");
        }
        if (cable.landings.size() < 2) {
            return net::Error::precondition(
                "scenario '" + name + "': added cable '" + cable.name +
                "' needs at least two landings");
        }
        if (!added.insert(cable.name).second) {
            return net::Error::precondition(
                "scenario '" + name + "': duplicate added cable '" +
                cable.name + "'");
        }
    }
    for (const std::string& cut : cutCables) {
        if (added.contains(cut)) {
            continue;
        }
        try {
            (void)substrate.registry().byName(cut);
        } catch (const net::NotFoundError&) {
            return net::Error::notFound("scenario '" + name +
                                        "': unknown cable '" + cut + "'");
        }
    }
    return net::Expected<void>::ok();
}

} // namespace aio::core
