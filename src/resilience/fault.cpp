#include "resilience/fault.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "netbase/error.hpp"

namespace aio::resilience {

std::string_view faultClassName(FaultClass cls) {
    switch (cls) {
    case FaultClass::PowerLoss: return "power loss";
    case FaultClass::TransitLoss: return "transit loss";
    case FaultClass::BundleExhausted: return "bundle exhausted";
    case FaultClass::PermanentFailure: return "permanent failure";
    }
    return "?";
}

FaultClass faultClassFor(outage::OutageType type) {
    switch (type) {
    case outage::OutageType::PowerOutage: return FaultClass::PowerLoss;
    case outage::OutageType::CableCut:
    case outage::OutageType::GovernmentShutdown:
    case outage::OutageType::RoutingIncident: break;
    }
    return FaultClass::TransitLoss;
}

std::string_view probeStatusName(ProbeStatus status) {
    switch (status) {
    case ProbeStatus::Up: return "up";
    case ProbeStatus::PowerDown: return "power down";
    case ProbeStatus::TransitDown: return "transit down";
    case ProbeStatus::BundleDry: return "bundle dry";
    case ProbeStatus::Dead: return "dead";
    }
    return "?";
}

FaultPlan FaultPlan::none(std::size_t probeCount) {
    return FaultPlan{probeCount};
}

FaultPlan FaultPlan::generate(const core::ProbeFleet& fleet,
                              const FaultPlanConfig& config, net::Rng& rng) {
    AIO_EXPECTS(config.horizonHours > 0.0, "horizon must be positive");
    AIO_EXPECTS(config.intensity >= 0.0, "intensity must be non-negative");
    AIO_EXPECTS(config.meanOutageHours > 0.0,
                "mean outage length must be positive");
    FaultPlan plan{fleet.size()};
    for (std::size_t p = 0; p < fleet.size(); ++p) {
        const core::Probe& probe = fleet.probe(p);
        // Expected downtime share ~= intensity * (1 - availability): the
        // availability field keeps its meaning, faults just gain timing.
        const double downShare =
            std::clamp(config.intensity * (1.0 - probe.availability), 0.0,
                       1.0);
        const double lambda =
            downShare * config.horizonHours / config.meanOutageHours;
        const int outages = rng.poisson(lambda);
        for (int i = 0; i < outages; ++i) {
            FaultWindow window;
            window.cls = FaultClass::PowerLoss;
            window.startHour = rng.uniformReal(0.0, config.horizonHours);
            window.endHour =
                window.startHour +
                std::max(0.1, rng.exponential(config.meanOutageHours));
            plan.addWindow(p, window);
        }
        const double deathProb = std::clamp(
            config.permanentFailureProb * config.intensity, 0.0, 1.0);
        if (rng.bernoulli(deathProb)) {
            FaultWindow death;
            death.cls = FaultClass::PermanentFailure;
            death.startHour = rng.uniformReal(0.0, config.horizonHours);
            death.endHour = kNeverEnds;
            plan.addWindow(p, death);
        }
    }
    plan.sortWindows();
    return plan;
}

namespace {

/// Unordered AS-pair key, matching PhysicalLinkMap's internal convention.
std::uint64_t pairKey(topo::AsIndex a, topo::AsIndex b) {
    const auto lo = static_cast<std::uint64_t>(a < b ? a : b);
    const auto hi = static_cast<std::uint64_t>(a < b ? b : a);
    return (hi << 32) | lo;
}

/// True when every provider adjacency of `as` is in the failed set — the
/// "host AS loses transit" condition for correlated probe loss.
bool losesAllTransit(const topo::Topology& topo, topo::AsIndex as,
                     const std::unordered_set<std::uint64_t>& failed) {
    const auto& providers = topo.providersOf(as);
    if (providers.empty()) {
        return false;
    }
    return std::ranges::all_of(providers, [&](topo::AsIndex provider) {
        return failed.contains(pairKey(as, provider));
    });
}

bool probeInCountries(const core::Probe& probe,
                      const std::vector<std::string>& countries) {
    return std::ranges::find(countries, probe.countryCode) !=
           countries.end();
}

} // namespace

void FaultPlan::overlayOutages(std::span<const outage::OutageEvent> events,
                               const core::ProbeFleet& fleet,
                               const phys::PhysicalLinkMap& linkMap,
                               const FaultPlanConfig& config) {
    AIO_EXPECTS(fleet.size() == windows_.size(),
                "fleet does not match the plan's probe count");
    const topo::Topology& topo = linkMap.topology();
    for (const outage::OutageEvent& event : events) {
        const double startHour =
            (event.startDay - config.campaignStartDay) * 24.0;
        double endHour = startHour + event.durationDays * 24.0;
        if (event.type == outage::OutageType::RoutingIncident) {
            endHour = startHour + config.routingFlapHours;
        }
        if (endHour <= 0.0 || startHour >= config.horizonHours) {
            continue; // the campaign never sees this event
        }

        const FaultClass cls = faultClassFor(event.type);
        std::unordered_set<std::uint64_t> failedLinks;
        if (event.type == outage::OutageType::CableCut) {
            const std::unordered_set<phys::CableId> cuts{
                event.cutCables.begin(), event.cutCables.end()};
            if (cuts.empty()) {
                continue; // non-African cut: no modelled blast radius
            }
            for (const auto& [a, b] : linkMap.failedLinks(cuts)) {
                failedLinks.insert(pairKey(a, b));
            }
        }

        for (std::size_t p = 0; p < fleet.size(); ++p) {
            const core::Probe& probe = fleet.probe(p);
            const bool hit =
                event.type == outage::OutageType::CableCut
                    ? losesAllTransit(topo, probe.hostAs, failedLinks)
                    : probeInCountries(probe, event.countries);
            if (hit) {
                addWindow(p, {cls, std::max(0.0, startHour), endHour});
            }
        }
    }
    sortWindows();
}

void FaultPlan::addWindow(std::size_t probeIndex, FaultWindow window) {
    AIO_EXPECTS(probeIndex < windows_.size(), "probe index out of range");
    AIO_EXPECTS(window.endHour > window.startHour,
                "fault window must have positive length");
    windows_[probeIndex].push_back(window);
}

const std::vector<FaultWindow>&
FaultPlan::windowsFor(std::size_t probeIndex) const {
    AIO_EXPECTS(probeIndex < windows_.size(), "probe index out of range");
    return windows_[probeIndex];
}

std::size_t FaultPlan::windowCount() const {
    std::size_t count = 0;
    for (const auto& perProbe : windows_) {
        count += perProbe.size();
    }
    return count;
}

void FaultPlan::sortWindows() {
    for (auto& perProbe : windows_) {
        std::ranges::sort(perProbe,
                          [](const FaultWindow& a, const FaultWindow& b) {
                              return a.startHour < b.startHour;
                          });
    }
}

FaultInjector::FaultInjector(const core::ProbeFleet& fleet,
                             const FaultPlan& plan, double budgetFraction)
    : fleet_(&fleet), plan_(plan) {
    AIO_EXPECTS(fleet.size() == plan.probeCount(),
                "fleet does not match the plan's probe count");
    AIO_EXPECTS(budgetFraction >= 0.0,
                "budget fraction must be non-negative");
    meters_.reserve(fleet.size());
    budgets_.reserve(fleet.size());
    for (const core::Probe& probe : fleet.probes()) {
        meters_.emplace_back(probe.pricing);
        budgets_.push_back(probe.monthlyBudgetUsd * budgetFraction);
    }
    exhausted_.assign(fleet.size(), false);
}

ProbeStatus FaultInjector::statusAt(std::size_t probeIndex,
                                    double hour) const {
    const auto& windows = plan_.windowsFor(probeIndex);
    // Sticky faults dominate transient ones; among transients the
    // earliest-starting covering window wins (windows are start-sorted).
    for (const FaultWindow& window : windows) {
        if (window.cls == FaultClass::PermanentFailure &&
            hour >= window.startHour) {
            return ProbeStatus::Dead;
        }
    }
    if (exhausted_[probeIndex]) {
        return ProbeStatus::BundleDry;
    }
    for (const FaultWindow& window : windows) {
        if (!window.coversHour(hour)) {
            continue;
        }
        switch (window.cls) {
        case FaultClass::PowerLoss: return ProbeStatus::PowerDown;
        case FaultClass::TransitLoss: return ProbeStatus::TransitDown;
        case FaultClass::BundleExhausted: return ProbeStatus::BundleDry;
        case FaultClass::PermanentFailure: return ProbeStatus::Dead;
        }
    }
    return ProbeStatus::Up;
}

void FaultInjector::requireUp(std::size_t probeIndex, double hour) const {
    const ProbeStatus status = statusAt(probeIndex, hour);
    const core::Probe& probe = fleet_->probe(probeIndex);
    switch (status) {
    case ProbeStatus::Up:
        return;
    case ProbeStatus::PowerDown:
    case ProbeStatus::TransitDown:
        throw net::TransientError{
            "probe " + probe.id + " is transiently down (" +
            std::string{probeStatusName(status)} + "), retry later"};
    case ProbeStatus::BundleDry:
    case ProbeStatus::Dead:
        throw net::PreconditionError{
            "probe " + probe.id + " is permanently unavailable (" +
            std::string{probeStatusName(status)} + ")"};
    }
}

bool FaultInjector::chargeTask(std::size_t probeIndex, double mb,
                               bool offPeak) {
    AIO_EXPECTS(probeIndex < meters_.size(), "probe index out of range");
    if (exhausted_[probeIndex]) {
        return false;
    }
    core::TariffMeter& meter = meters_[probeIndex];
    const double marginal = meter.marginalCost(mb, offPeak);
    if (meter.totalCost() + marginal > budgets_[probeIndex]) {
        exhausted_[probeIndex] = true; // the SIM is dry for the campaign
        return false;
    }
    meter.add(mb, offPeak);
    return true;
}

double FaultInjector::spentUsd(std::size_t probeIndex) const {
    AIO_EXPECTS(probeIndex < meters_.size(), "probe index out of range");
    return meters_[probeIndex].totalCost();
}

std::vector<persist::ProbeMeterState> FaultInjector::meterStates() const {
    std::vector<persist::ProbeMeterState> states;
    states.reserve(meters_.size());
    for (std::size_t p = 0; p < meters_.size(); ++p) {
        states.push_back({meters_[p].peakMbConsumed(),
                          meters_[p].offPeakMbConsumed(),
                          static_cast<bool>(exhausted_[p])});
    }
    return states;
}

void FaultInjector::restoreMeterStates(
    std::span<const persist::ProbeMeterState> states) {
    AIO_EXPECTS(states.size() == meters_.size(),
                "meter snapshot does not match the fleet");
    // Validate the whole snapshot before touching any meter so a bad
    // checkpoint leaves the injector untouched instead of half-restored.
    for (std::size_t p = 0; p < states.size(); ++p) {
        const persist::ProbeMeterState& state = states[p];
        AIO_EXPECTS(std::isfinite(state.peakMb) && state.peakMb >= 0.0 &&
                        std::isfinite(state.offPeakMb) &&
                        state.offPeakMb >= 0.0,
                    "meter snapshot holds a negative or non-finite volume");
        // Consumption and bundle exhaustion only ever grow within a
        // campaign; a snapshot that rewinds either describes a different
        // (earlier or foreign) run and must not be silently accepted.
        AIO_EXPECTS(state.peakMb >= meters_[p].peakMbConsumed() &&
                        state.offPeakMb >= meters_[p].offPeakMbConsumed(),
                    "meter snapshot rewinds consumed traffic");
        AIO_EXPECTS(state.exhausted || !exhausted_[p],
                    "meter snapshot clears a sticky bundle-dry flag");
    }
    for (std::size_t p = 0; p < states.size(); ++p) {
        meters_[p].restoreConsumption(states[p].peakMb,
                                      states[p].offPeakMb);
        exhausted_[p] = states[p].exhausted;
    }
}

int FaultInjector::exhaustedCount() const {
    return static_cast<int>(
        std::count(exhausted_.begin(), exhausted_.end(), true));
}

namespace {

void requireProbability(double value, const char* what) {
    if (!(std::isfinite(value) && value >= 0.0 && value <= 1.0)) {
        throw net::PreconditionError{std::string{what} +
                                     " must be a probability in [0,1]"};
    }
}

} // namespace

void StreamFaultConfig::validate() const {
    requireProbability(dropProb, "dropProb");
    requireProbability(duplicateProb, "duplicateProb");
    requireProbability(reorderProb, "reorderProb");
    requireProbability(lateProb, "lateProb");
    requireProbability(churnBurstProb, "churnBurstProb");
    AIO_EXPECTS(std::isfinite(maxSkewDays) && maxSkewDays >= 0.0,
                "maxSkewDays must be non-negative and finite");
    AIO_EXPECTS(std::isfinite(lateDelayDays) && lateDelayDays >= 0.0,
                "lateDelayDays must be non-negative and finite");
    AIO_EXPECTS(churnReconnects >= 0,
                "churnReconnects must be non-negative");
}

StreamFaultInjector::StreamFaultInjector(
    StreamFaultConfig config, std::span<const std::uint64_t> probeIds,
    double windowDays, net::Rng& rng)
    : config_(config) {
    config_.validate();
    AIO_EXPECTS(std::isfinite(windowDays) && windowDays > 0.0,
                "windowDays must be positive and finite");
    // std::map keys iterate sorted, so the draw order below is a pure
    // function of the probe-id set, not of the span's ordering.
    for (const std::uint64_t id : probeIds) {
        reconnects_[id];
    }
    for (auto& [id, days] : reconnects_) {
        if (!rng.bernoulli(config_.churnBurstProb)) {
            continue;
        }
        const double burstStart = rng.uniformReal(0.0, windowDays);
        for (int i = 0; i < config_.churnReconnects; ++i) {
            // Flaps cluster: reconnects land within a tenth of the
            // window after the burst starts ("Day in the Life of RIPE
            // Atlas"-style session churn).
            days.push_back(std::min(
                windowDays,
                burstStart + rng.uniformReal(0.0, windowDays * 0.1)));
        }
        std::ranges::sort(days);
    }
}

StreamFaultInjector::DeliveryFate
StreamFaultInjector::fateFor(net::Rng& rng) const {
    DeliveryFate fate;
    // One uniform draw picks among the mutually exclusive delay fates so
    // raising one probability never perturbs another fate's draw stream.
    const double roll = rng.uniform01();
    const double skew = rng.uniformReal(0.0, config_.maxSkewDays);
    if (roll < config_.dropProb) {
        fate.dropped = true;
        fate.delayDays = skew;
    } else if (roll < config_.dropProb + config_.reorderProb) {
        fate.reordered = true;
        fate.delayDays = skew;
    } else if (roll <
               config_.dropProb + config_.reorderProb + config_.lateProb) {
        fate.late = true;
        fate.delayDays = config_.lateDelayDays + skew;
    }
    if (rng.bernoulli(config_.duplicateProb)) {
        fate.duplicate = true;
        fate.duplicateDelayDays =
            rng.uniformReal(0.0, config_.maxSkewDays);
    }
    return fate;
}

std::span<const double>
StreamFaultInjector::reconnectDaysFor(std::uint64_t probeId) const {
    const auto it = reconnects_.find(probeId);
    AIO_EXPECTS(it != reconnects_.end(),
                "probe id not covered by the stream fault schedule");
    return it->second;
}

std::uint32_t StreamFaultInjector::sessionAt(std::uint64_t probeId,
                                             double day) const {
    const auto schedule = reconnectDaysFor(probeId);
    const auto firstAfter =
        std::upper_bound(schedule.begin(), schedule.end(), day);
    return static_cast<std::uint32_t>(firstAfter - schedule.begin());
}

std::size_t StreamFaultInjector::reconnectCount() const {
    std::size_t count = 0;
    for (const auto& [id, days] : reconnects_) {
        count += days.size();
    }
    return count;
}

} // namespace aio::resilience
