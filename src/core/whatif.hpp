#pragma once

#include <memory>
#include <span>

#include "core/substrate.hpp"
#include "netbase/expected.hpp"
#include "outage/impact.hpp"
#include "outage/radar.hpp"

namespace aio::core {

/// The "what-if" analysis engine the paper's conclusion calls for: apply
/// a hypothetical intervention (a geographically diverse cable, resolver
/// localization mandates, content localization) and re-evaluate outage
/// impact / dependency metrics on the same substrate.
///
/// An engine is a view over a `Substrate`: it reads the substrate's
/// layers (link map, resolvers, catalog, analyzer) instead of re-deriving
/// them, so engines over one substrate share one baseline. Value-style
/// scenario composition: `withCable(...)`, `withDnsConfig(...)` etc.
/// return an engine that owns a Substrate re-derived with the changed
/// layer — same topology, seed and accelerators — so before/after
/// differences isolate the intervention. For evaluating scenarios in
/// bulk, prefer `sweep::ScenarioSweepEngine`, which adds incremental
/// route recomputation and cut-set dedupe on top of the same substrate.
class WhatIfEngine {
public:
    /// `substrate` must outlive the engine and every engine derived from
    /// it: derived engines own their re-derived substrate but share this
    /// one's topology and accelerators (route cache, pool, metrics).
    explicit WhatIfEngine(const Substrate& substrate);

    WhatIfEngine(WhatIfEngine&&) noexcept = default;
    WhatIfEngine& operator=(WhatIfEngine&&) noexcept = default;

    // ---- scenario builders ----
    /// Applies a ScenarioSpec's *overlay* (cables added + config
    /// overrides) in one step; the spec's cut set is an event, not part
    /// of the engine — build it with tryMakeCutEvent on the result. A
    /// changed layer that fails Substrate::validate throws
    /// net::PreconditionError. The single-layer builders below are
    /// one-field overlays.
    [[nodiscard]] WhatIfEngine withScenario(const ScenarioSpec& spec) const;
    [[nodiscard]] WhatIfEngine withCable(phys::SubseaCable cable) const;
    [[nodiscard]] WhatIfEngine withDnsConfig(dns::DnsConfig config) const;
    [[nodiscard]] WhatIfEngine
    withContentConfig(content::ContentConfig config) const;
    [[nodiscard]] WhatIfEngine
    withLinkMapConfig(phys::LinkMapConfig config) const;

    // ---- evaluation ----
    /// Builds a cable-cut event from cable names in THIS engine's
    /// registry; an unknown name or an empty list is returned as an
    /// error value (so a sweep can degrade one scenario, not the batch).
    [[nodiscard]] net::Expected<outage::OutageEvent>
    tryMakeCutEvent(std::span<const std::string> cableNames,
                    double repairDays = 21.0) const;

    /// Throwing convenience over tryMakeCutEvent (NotFoundError /
    /// PreconditionError), kept for existing call sites.
    [[nodiscard]] outage::OutageEvent
    makeCutEvent(std::span<const std::string> cableNames,
                 double repairDays = 21.0) const;

    /// Assesses an event deterministically (fixed impact-sampling seed).
    [[nodiscard]] outage::ImpactReport
    assess(const outage::OutageEvent& event) const;

    /// Content locality (Fig. 2b metric) under this configuration.
    [[nodiscard]] double contentLocalShare() const;

    /// DNS failure share for one country under an event.
    [[nodiscard]] double
    dnsFailureShare(std::string_view country,
                    const outage::OutageEvent& event) const;

    [[nodiscard]] const phys::CableRegistry& registry() const {
        return substrate_->registry();
    }
    [[nodiscard]] const dns::ResolverEcosystem& resolvers() const {
        return substrate_->resolvers();
    }
    [[nodiscard]] const outage::ImpactAnalyzer& analyzer() const {
        return substrate_->analyzer();
    }
    [[nodiscard]] std::uint64_t seed() const { return substrate_->seed(); }

private:
    /// Set on derived engines only; heap-held so `substrate_` stays valid
    /// when the engine moves.
    std::unique_ptr<const Substrate> owned_;
    const Substrate* substrate_;
};

} // namespace aio::core
