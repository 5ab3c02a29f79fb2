#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "content/catalog.hpp"
#include "dns/resolver.hpp"
#include "exec/worker_pool.hpp"
#include "netbase/expected.hpp"
#include "netbase/rng.hpp"
#include "obs/metrics.hpp"
#include "outage/events.hpp"
#include "outage/impact.hpp"
#include "phys/cable.hpp"
#include "phys/linkmap.hpp"
#include "routing/oracle_cache.hpp"
#include "topo/as_graph.hpp"

namespace aio::core {

/// The one substrate bundle every scenario-evaluation entry point builds
/// from: topology + cable registry + DNS/content/link-map configuration +
/// derivation seed, plus the optional shared accelerators (route cache,
/// worker pool, metrics registry). The sweep engine, the planner and the
/// service snapshot all read their layers from one.
///
/// A Substrate owns the baseline derived layers (physical link map,
/// resolver ecosystem, content catalog, impact analyzer), built exactly
/// once — so engines sharing a Substrate share one baseline instead of
/// re-deriving it per engine. A what-if overlay (an added cable, a
/// config override) is a new Substrate built from this one's options, so
/// every layer in the codebase comes from the same derivation chain.
///
/// Configuration is validated at construction (profile shares must be
/// sane, probabilities in range, accelerators bound to the same
/// topology): a bad bundle fails before any scenario runs, not mid-sweep.
class Substrate;

/// Optional Substrate knobs beyond the four mandatory layers (namespace
/// scope so it is complete where Substrate's constructors default it).
struct SubstrateOptions {
    phys::LinkMapConfig linkConfig{};
    std::uint64_t seed = 99;
    /// Shared accelerators (all optional, not owned, must outlive the
    /// substrate and every engine built from it).
    route::OracleCache* oracleCache = nullptr;
    exec::WorkerPool* pool = nullptr;
    obs::MetricsRegistry* metrics = nullptr;
    outage::ImpactConfig impact{};
};

class Substrate {
public:
    using Options = SubstrateOptions;

    /// Validates and derives the baseline layers; throws
    /// net::PreconditionError on an invalid bundle (see validate()).
    Substrate(const topo::Topology& topology, phys::CableRegistry registry,
              dns::DnsConfig dnsConfig, content::ContentConfig contentConfig,
              Options options = Options());

    Substrate(Substrate&&) noexcept = default;
    Substrate& operator=(Substrate&&) noexcept = default;

    /// Non-throwing construction: the validation failure as a value.
    [[nodiscard]] static net::Expected<Substrate>
    tryCreate(const topo::Topology& topology, phys::CableRegistry registry,
              dns::DnsConfig dnsConfig, content::ContentConfig contentConfig,
              Options options = Options());

    /// The validation rule behind both constructors, exposed so callers
    /// can pre-flight a bundle: finalized topology, accelerator/topology
    /// agreement, probabilities in [0,1], resolver/hosting profile shares
    /// non-negative and summing to ~1, sitesPerCountry >= 1.
    [[nodiscard]] static net::Expected<void>
    validate(const topo::Topology& topology,
             const dns::DnsConfig& dnsConfig,
             const content::ContentConfig& contentConfig,
             const Options& options);

    // ---- configuration ----
    [[nodiscard]] const topo::Topology& topology() const { return *topo_; }
    [[nodiscard]] const phys::CableRegistry& registry() const {
        return *registry_;
    }
    [[nodiscard]] const dns::DnsConfig& dnsConfig() const {
        return dnsConfig_;
    }
    [[nodiscard]] const content::ContentConfig& contentConfig() const {
        return contentConfig_;
    }
    [[nodiscard]] const phys::LinkMapConfig& linkConfig() const {
        return options_.linkConfig;
    }
    [[nodiscard]] std::uint64_t seed() const { return options_.seed; }
    /// The stream one assessment draws from: every event is assessed on a
    /// fresh copy (filterFor's draws, then score's recovery draws), so a
    /// report depends only on the seed and its own event, never on which
    /// events were assessed before it or in which order.
    [[nodiscard]] net::Rng assessStream() const {
        return net::Rng{options_.seed + 7};
    }
    /// The stream one routing state's detour sample draws from: the
    /// sweep's plain and overlay lanes each take a fresh copy per state,
    /// so a share depends only on the seed and the state's routes.
    [[nodiscard]] net::Rng detourStream() const {
        return net::Rng{options_.seed + 11};
    }
    /// Everything beyond the four mandatory layers — what a re-derived
    /// Substrate copies to keep this one's seed and accelerators.
    [[nodiscard]] const Options& options() const { return options_; }
    [[nodiscard]] const outage::ImpactConfig& impactConfig() const {
        return options_.impact;
    }
    /// Storage policy of every route oracle built on this substrate's
    /// behalf (validated to agree with a wired-in cache's policy).
    [[nodiscard]] route::StoragePolicy storagePolicy() const {
        return options_.impact.routeStorage;
    }

    // ---- accelerators ----
    [[nodiscard]] route::OracleCache* oracleCache() const {
        return options_.oracleCache;
    }
    [[nodiscard]] exec::WorkerPool* pool() const { return options_.pool; }
    [[nodiscard]] obs::MetricsRegistry* metrics() const {
        return options_.metrics;
    }

    // ---- baseline derived layers (built once, shared) ----
    [[nodiscard]] const phys::PhysicalLinkMap& linkMap() const {
        return *linkMap_;
    }
    [[nodiscard]] const dns::ResolverEcosystem& resolvers() const {
        return *resolvers_;
    }
    [[nodiscard]] const content::ContentCatalog& catalog() const {
        return *catalog_;
    }
    /// The baseline impact analyzer — constructed from this substrate's
    /// layers and accelerators, shared by every engine borrowing the
    /// substrate.
    [[nodiscard]] const outage::ImpactAnalyzer& analyzer() const {
        return *analyzer_;
    }

private:
    const topo::Topology* topo_;
    /// Heap-held so its address is stable under Substrate moves: the
    /// derived layers (PhysicalLinkMap, and through it the analyzer's
    /// cable-recovery check) hold pointers into this registry, and the
    /// defaulted move operations — exercised by every tryCreate, whose
    /// Expected<Substrate> return moves the freshly built value — must
    /// not invalidate them. The configs below stay by value because the
    /// layers copy them at construction.
    std::unique_ptr<phys::CableRegistry> registry_;
    dns::DnsConfig dnsConfig_;
    content::ContentConfig contentConfig_;
    Options options_;

    std::unique_ptr<phys::PhysicalLinkMap> linkMap_;
    std::unique_ptr<dns::ResolverEcosystem> resolvers_;
    std::unique_ptr<content::ContentCatalog> catalog_;
    std::unique_ptr<outage::ImpactAnalyzer> analyzer_;
};

/// One named what-if scenario as a value: an overlay over a Substrate
/// (cables added, cable cuts applied, DNS/content/link-map overrides) plus
/// the repair policy for the cut. A batch of ScenarioSpecs is the unit the
/// ScenarioSweepEngine evaluates, and a single what-if is a batch of one.
/// Specs validate against a Substrate and return the failure as a value,
/// so one malformed scenario in a sweep degrades that scenario, not the
/// batch.
struct ScenarioSpec {
    std::string name;

    /// Event class this scenario models. CableCut scenarios damage the
    /// physical layer through `cutCables` (or, cut-free, express add-only
    /// build-out futures); the other classes — power outage, government
    /// shutdown, routing incident, the later phases of a compound cascade
    /// — scope their damage through `countries` instead.
    outage::OutageType eventType = outage::OutageType::CableCut;

    /// Hypothetical cables added to the registry before the cut.
    std::vector<phys::SubseaCable> cablesAdded;
    /// Cable names to cut (resolved against registry + cablesAdded).
    std::vector<std::string> cutCables;
    /// Countries in scope for the non-cable event classes.
    std::vector<std::string> countries;
    /// Day the event starts — the phase offset on a cascade timeline
    /// (informational for scoring, which models the event in isolation).
    double startDay = 0.0;
    /// Ground-truth repair/restoration time for the event.
    double repairDays = 21.0;

    /// Layer overrides; unset means "use the substrate's config".
    std::optional<dns::DnsConfig> dnsOverride;
    std::optional<content::ContentConfig> contentOverride;
    std::optional<phys::LinkMapConfig> linkMapOverride;

    /// True when the spec changes any derived layer (cables added or any
    /// override set): such scenarios re-derive their layers per scenario;
    /// pure cut sets share the substrate's baseline.
    [[nodiscard]] bool hasOverlay() const {
        return !cablesAdded.empty() || dnsOverride.has_value() ||
               contentOverride.has_value() || linkMapOverride.has_value();
    }

    /// True when the spec applies no damage at all: a cut-free CableCut
    /// spec — a build-out future (cables added and/or config overrides)
    /// scored against its own augmented baseline.
    [[nodiscard]] bool addOnly() const {
        return eventType == outage::OutageType::CableCut && cutCables.empty();
    }

    /// Compiles the spec into the outage event the analyzers score.
    /// `registry` must already include `cablesAdded` when the spec has
    /// any (the sweep's overlay lane passes the augmented registry). Cut
    /// names are canonicalized — resolved, sorted by id, deduplicated —
    /// so permuted or duplicated cut lists compile to the same event;
    /// add-only specs compile to a zero-duration no-damage event.
    [[nodiscard]] net::Expected<outage::OutageEvent>
    makeEvent(const phys::CableRegistry& registry) const;

    [[nodiscard]] bool operator==(const ScenarioSpec&) const = default;

    /// Checks the spec against `substrate`: non-empty name; a damage
    /// surface matching the event type (CableCut needs cuts or an
    /// overlay, the country-scoped classes need countries and no cuts);
    /// positive finite repairDays and finite non-negative startDay; added
    /// cables well-formed (name + >= 2 landings, no duplicate names);
    /// every cut cable resolvable in registry + cablesAdded; and every
    /// set override obeying the same share-sum/probability rules
    /// Substrate::validate enforces on the base bundle.
    [[nodiscard]] net::Expected<void>
    validate(const Substrate& substrate) const;
};

/// Resolves cable names against `registry` into the canonical cut set:
/// sorted by CableId, duplicates removed. Every event-construction path
/// digests and filters this canonical form, so permuted or duplicated cut
/// lists are one scenario to the sweep's dedupe cache and produce
/// byte-identical reports.
[[nodiscard]] net::Expected<std::vector<phys::CableId>>
canonicalCutSet(const phys::CableRegistry& registry,
                std::span<const std::string> names);

} // namespace aio::core
