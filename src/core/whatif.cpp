#include "core/whatif.hpp"

#include <cmath>

#include "netbase/error.hpp"

namespace aio::core {

WhatIfEngine::WhatIfEngine(const Substrate& substrate)
    : substrate_(&substrate) {}

WhatIfEngine WhatIfEngine::withScenario(const ScenarioSpec& spec) const {
    phys::CableRegistry registry = substrate_->registry();
    for (const phys::SubseaCable& cable : spec.cablesAdded) {
        registry.addCable(cable);
    }
    Substrate::Options options = substrate_->options();
    options.linkConfig = spec.linkMapOverride.value_or(options.linkConfig);
    auto owned = std::make_unique<const Substrate>(
        substrate_->topology(), std::move(registry),
        spec.dnsOverride.value_or(substrate_->dnsConfig()),
        spec.contentOverride.value_or(substrate_->contentConfig()), options);
    WhatIfEngine engine{*owned};
    engine.owned_ = std::move(owned);
    return engine;
}

WhatIfEngine WhatIfEngine::withCable(phys::SubseaCable cable) const {
    ScenarioSpec overlay;
    overlay.cablesAdded = {std::move(cable)};
    return withScenario(overlay);
}

WhatIfEngine WhatIfEngine::withDnsConfig(dns::DnsConfig config) const {
    ScenarioSpec overlay;
    overlay.dnsOverride = config;
    return withScenario(overlay);
}

WhatIfEngine
WhatIfEngine::withContentConfig(content::ContentConfig config) const {
    ScenarioSpec overlay;
    overlay.contentOverride = config;
    return withScenario(overlay);
}

WhatIfEngine
WhatIfEngine::withLinkMapConfig(phys::LinkMapConfig config) const {
    ScenarioSpec overlay;
    overlay.linkMapOverride = config;
    return withScenario(overlay);
}

net::Expected<outage::OutageEvent>
WhatIfEngine::tryMakeCutEvent(std::span<const std::string> cableNames,
                              double repairDays) const {
    if (cableNames.empty()) {
        return net::Error::precondition("a cut needs at least one cable");
    }
    if (!(repairDays > 0.0) || !std::isfinite(repairDays)) {
        return net::Error::precondition("repairDays must be positive");
    }
    outage::OutageEvent event;
    event.type = outage::OutageType::CableCut;
    event.macroRegion = net::MacroRegion::Africa;
    event.durationDays = repairDays;
    // Canonical (sorted, deduplicated) so permuted or duplicated cut
    // lists build the same event and hence byte-identical reports.
    auto cuts = canonicalCutSet(substrate_->registry(), cableNames);
    if (!cuts) {
        return cuts.error();
    }
    event.cutCables = std::move(cuts.value());
    return event;
}

outage::OutageEvent
WhatIfEngine::makeCutEvent(std::span<const std::string> cableNames,
                           double repairDays) const {
    return tryMakeCutEvent(cableNames, repairDays).valueOrRaise();
}

outage::ImpactReport
WhatIfEngine::assess(const outage::OutageEvent& event) const {
    const obs::ScopedTimer timer{substrate_->metrics(),
                                 "whatif.assess_seconds"};
    net::Rng rng{seed() + 7};
    return analyzer().assess(event, rng);
}

double WhatIfEngine::contentLocalShare() const {
    const content::LocalityAnalyzer locality{substrate_->catalog()};
    return locality.overallLocalShare();
}

double
WhatIfEngine::dnsFailureShare(std::string_view country,
                              const outage::OutageEvent& event) const {
    net::Rng rng{seed() + 7};
    const auto report = analyzer().assess(event, rng);
    for (const auto& impact : report.countries) {
        if (impact.country == country) {
            return impact.dnsFailureShare;
        }
    }
    return 0.0;
}

} // namespace aio::core
