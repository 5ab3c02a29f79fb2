#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "content/catalog.hpp"
#include "core/substrate.hpp"
#include "netbase/expected.hpp"
#include "outage/impact.hpp"

// The per-scenario what-if reference the scenario sweep is held to: one
// spec at a time, its overlay re-derived through the public Substrate
// constructor and its event assessed by ImpactAnalyzer::assess on a fresh
// Substrate::assessStream. It shares no code with the sweep's lanes (no
// dedupe, no routingImpacts, no overlay lane), so a differential check
// against it stays independent of the code it checks.
namespace aio::core::reference {

/// The substrate `spec`'s overlay describes: `base`'s topology, seed and
/// accelerators, with the spec's cables added and its overrides applied.
/// Throws net::PreconditionError when a changed layer fails validation.
[[nodiscard]] inline Substrate overlaid(const Substrate& base,
                                        const ScenarioSpec& spec) {
    phys::CableRegistry registry = base.registry();
    for (const phys::SubseaCable& cable : spec.cablesAdded) {
        registry.addCable(cable);
    }
    Substrate::Options options = base.options();
    options.linkConfig = spec.linkMapOverride.value_or(options.linkConfig);
    return Substrate{base.topology(), std::move(registry),
                     spec.dnsOverride.value_or(base.dnsConfig()),
                     spec.contentOverride.value_or(base.contentConfig()),
                     options};
}

/// `event` assessed on `substrate`, from a fresh assessment stream.
[[nodiscard]] inline outage::ImpactReport
assess(const Substrate& substrate, const outage::OutageEvent& event) {
    net::Rng rng = substrate.assessStream();
    return substrate.analyzer().assess(event, rng);
}

/// A cut of `cables` repaired after `repairDays`, compiled against
/// `substrate`'s registry; an unknown cable throws net::NotFoundError.
[[nodiscard]] inline outage::OutageEvent
cutEvent(const Substrate& substrate, std::vector<std::string> cables,
         double repairDays = 21.0) {
    ScenarioSpec spec;
    spec.name = "cut";
    spec.cutCables = std::move(cables);
    spec.repairDays = repairDays;
    return spec.makeEvent(substrate.registry()).valueOrRaise();
}

/// `spec`'s report on `base`: validated, overlaid when it has an
/// overlay, compiled against the (augmented) registry and assessed.
[[nodiscard]] inline net::Expected<outage::ImpactReport>
report(const Substrate& base, const ScenarioSpec& spec) {
    if (auto valid = spec.validate(base); !valid) {
        return valid.error();
    }
    const std::optional<Substrate> overlay =
        spec.hasOverlay() ? std::optional{overlaid(base, spec)}
                          : std::nullopt;
    const Substrate& substrate = overlay ? *overlay : base;
    auto event = spec.makeEvent(substrate.registry());
    if (!event) {
        return event.error();
    }
    return assess(substrate, event.value());
}

/// Content-locality share (Fig. 2b) of `substrate`'s catalog.
[[nodiscard]] inline double contentLocalShare(const Substrate& substrate) {
    return content::LocalityAnalyzer{substrate.catalog()}
        .overallLocalShare();
}

/// `country`'s DNS failure share in `report`; 0 when the report does not
/// list the country.
[[nodiscard]] inline double dnsFailureShare(const outage::ImpactReport& report,
                                            std::string_view country) {
    for (const outage::CountryImpact& impact : report.countries) {
        if (impact.country == country) {
            return impact.dnsFailureShare;
        }
    }
    return 0.0;
}

} // namespace aio::core::reference
