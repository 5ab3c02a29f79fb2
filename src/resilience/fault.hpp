#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string_view>
#include <vector>

#include "core/budget.hpp"
#include "core/probe.hpp"
#include "netbase/rng.hpp"
#include "outage/events.hpp"
#include "persist/state.hpp"
#include "phys/linkmap.hpp"

namespace aio::resilience {

/// Ways a vantage point fails mid-campaign (§7.1's operating reality:
/// cellular uplinks, prepaid bundles, intermittent power; §4/§6.3's
/// correlated cable-corridor cuts).
enum class FaultClass {
    PowerLoss,       ///< no power: the probe sends nothing (transient)
    TransitLoss,     ///< host AS lost all transit: packets go nowhere but
                     ///< still bill against the SIM (transient)
    BundleExhausted, ///< prepaid data ran dry (sticky for the campaign)
    PermanentFailure ///< device died / SIM deregistered (sticky)
};

[[nodiscard]] std::string_view faultClassName(FaultClass cls);

/// The fault class probes in an outage's scope experience — the taxonomy
/// bridge shared by FaultPlan::overlayOutages and the scenario catalog's
/// cascade phases: a cable cut or shutdown/routing incident manifests as
/// transit loss, a power outage as power loss.
[[nodiscard]] FaultClass faultClassFor(outage::OutageType type);

/// One fault interval on one probe's campaign timeline. `endHour` of
/// `kNeverEnds` marks a permanent fault.
struct FaultWindow {
    FaultClass cls = FaultClass::PowerLoss;
    double startHour = 0.0;
    double endHour = 0.0;

    [[nodiscard]] bool coversHour(double hour) const {
        return hour >= startHour && hour < endHour;
    }
};

inline constexpr double kNeverEnds = 1e18;

struct FaultPlanConfig {
    /// Campaign timeline length the stochastic faults are laid over.
    double horizonHours = 72.0;
    /// Global fault-rate multiplier; 0 disables stochastic faults, the
    /// resilience ablation sweeps it.
    double intensity = 1.0;
    /// Mean length of one power-loss window. The per-probe outage count
    /// is chosen so expected downtime ~= intensity * (1 - availability).
    double meanOutageHours = 4.0;
    /// Per-probe probability (scaled by intensity, clamped to [0,1]) of a
    /// permanent mid-campaign death — the probe-churn RIPE Atlas reports.
    double permanentFailureProb = 0.04;
    /// Day of the outage-event window at which the campaign starts, used
    /// when overlaying outage::events onto the campaign timeline.
    double campaignStartDay = 0.0;
    /// Transit-flap window length for routing-incident overlays.
    double routingFlapHours = 2.0;
};

/// Deterministic per-probe fault timeline for one campaign. Generated
/// from a seeded Rng (same seed => identical plan) and optionally
/// overlaid with ground-truth outage events so probe failures correlate
/// the way the paper says they do: a corridor cut downs every probe whose
/// host AS loses all transit at once.
class FaultPlan {
public:
    /// No faults at all for a `probeCount`-probe fleet (the oracle plan).
    [[nodiscard]] static FaultPlan none(std::size_t probeCount);

    /// Stochastic per-probe faults: power-loss windows sized to each
    /// probe's availability, plus rare permanent deaths.
    [[nodiscard]] static FaultPlan generate(const core::ProbeFleet& fleet,
                                            const FaultPlanConfig& config,
                                            net::Rng& rng);

    /// Adds correlated faults derived from ground-truth outage events:
    ///  * CableCut      -> TransitLoss for every probe whose host AS has
    ///                     all provider links severed by the cut set;
    ///  * PowerOutage   -> PowerLoss for probes in the event's countries;
    ///  * GovernmentShutdown -> TransitLoss for probes in its countries;
    ///  * RoutingIncident    -> short TransitLoss flap in its countries.
    /// Event times (days) are mapped onto campaign hours relative to
    /// `config.campaignStartDay`; events outside the horizon are ignored.
    void overlayOutages(std::span<const outage::OutageEvent> events,
                        const core::ProbeFleet& fleet,
                        const phys::PhysicalLinkMap& linkMap,
                        const FaultPlanConfig& config);

    void addWindow(std::size_t probeIndex, FaultWindow window);

    [[nodiscard]] std::size_t probeCount() const { return windows_.size(); }
    [[nodiscard]] const std::vector<FaultWindow>&
    windowsFor(std::size_t probeIndex) const;
    [[nodiscard]] std::size_t windowCount() const;
    [[nodiscard]] bool empty() const { return windowCount() == 0; }

private:
    explicit FaultPlan(std::size_t probeCount) : windows_(probeCount) {}

    void sortWindows();

    /// windows_[probe], sorted by startHour.
    std::vector<std::vector<FaultWindow>> windows_;
};

/// Probe health as the supervisor sees it at one instant.
enum class ProbeStatus {
    Up,
    PowerDown,   ///< transient: retry later
    TransitDown, ///< transient: retry later (attempts still bill the SIM)
    BundleDry,   ///< sticky: the SIM has no data left this campaign
    Dead         ///< sticky: reassign or abandon
};

[[nodiscard]] std::string_view probeStatusName(ProbeStatus status);

/// Executes a FaultPlan against a fleet: answers point-in-time probe
/// status and meters every task's bytes against the probe's prepaid
/// budget through the same marginal-cost TariffMeter the scheduler uses,
/// so bundle exhaustion emerges mid-campaign instead of being scripted.
class FaultInjector {
public:
    /// `budgetFraction` scales each probe's monthly budget down to what
    /// is actually left for this campaign (a month hosts many campaigns).
    FaultInjector(const core::ProbeFleet& fleet, const FaultPlan& plan,
                  double budgetFraction = 1.0);

    [[nodiscard]] ProbeStatus statusAt(std::size_t probeIndex,
                                       double hour) const;

    /// Throws net::TransientError when the probe is transiently down at
    /// `hour` (the retryable classification), PreconditionError when it
    /// is permanently gone. Returns normally when the probe is usable.
    void requireUp(std::size_t probeIndex, double hour) const;

    /// Bills `mb` megabytes to the probe's SIM. Returns false — and
    /// marks the probe BundleDry for the rest of the campaign — when the
    /// marginal cost would exceed the remaining campaign budget.
    [[nodiscard]] bool chargeTask(std::size_t probeIndex, double mb,
                                  bool offPeak);

    [[nodiscard]] double spentUsd(std::size_t probeIndex) const;
    [[nodiscard]] int exhaustedCount() const;
    [[nodiscard]] const FaultPlan& plan() const { return plan_; }

    /// Snapshot of every probe's billing state (meter sums + bundle-dry
    /// flag), in probe order — what a campaign checkpoint persists.
    [[nodiscard]] std::vector<persist::ProbeMeterState> meterStates() const;

    /// Overwrites billing state from a checkpoint snapshot; the snapshot
    /// must cover exactly this fleet. Used only by journal resume.
    void restoreMeterStates(
        std::span<const persist::ProbeMeterState> states);

private:
    const core::ProbeFleet* fleet_;
    /// Owned copy: injectors routinely outlive the plan expression they
    /// were built from (e.g. FaultPlan::none() temporaries).
    FaultPlan plan_;
    std::vector<core::TariffMeter> meters_;
    std::vector<double> budgets_;
    std::vector<bool> exhausted_;
};

/// Rates and bounds for an adversarial-delivery schedule: ways the
/// *delivery path* between a probe and the stream consumer misbehaves.
/// The probe fault classes above model the vantage point itself dying;
/// these model what "Day in the Life of RIPE Atlas" documents about the
/// result stream even when probes are healthy: results lost and
/// retransmitted, delivered twice, arriving out of order, and probes
/// flapping through disconnect/reconnect sessions (the stream tests kill
/// the consumer itself mid-stream on top). The skew bound is the
/// contract with the consumer's watermark: drop/duplicate/reorder
/// displacement stays within `maxSkewDays`, so a consumer whose watermark
/// exceeds it absorbs those faults without changing any final detection.
/// `lateProb` events are the deliberate exception — displaced by
/// `lateDelayDays` (set it beyond the watermark), they must surface in
/// the stream DegradationReport instead.
struct StreamFaultConfig {
    double dropProb = 0.0;      ///< lost first copy, redelivered within skew
    double duplicateProb = 0.0; ///< extra copy delivered within skew
    double reorderProb = 0.0;   ///< delayed within skew
    double maxSkewDays = 0.5;   ///< displacement bound for the three above
    double lateProb = 0.0;      ///< delivered hopelessly late (lost)
    double lateDelayDays = 2.0; ///< displacement for late events
    double churnBurstProb = 0.0; ///< per-probe chance of a reconnect burst
    int churnReconnects = 3;     ///< reconnects per burst

    /// Throws net::PreconditionError when any probability is outside
    /// [0,1], a delay/skew is negative or non-finite, or the reconnect
    /// count is negative (mirrors SupervisorConfig::validate).
    void validate() const;
};

/// Deterministic delivery-fault source for one stream window: a fixed
/// per-probe reconnect schedule drawn at construction, plus a per-event
/// fate sampler. The injector is deliberately ignorant of event types —
/// the stream layer owns what an event is; resilience owns how delivery
/// fails — so the same injector could misdeliver any future stream.
class StreamFaultInjector {
public:
    /// Draws the reconnect schedule for `probeIds` over `windowDays`
    /// from `rng` (same seed => identical schedule).
    StreamFaultInjector(StreamFaultConfig config,
                        std::span<const std::uint64_t> probeIds,
                        double windowDays, net::Rng& rng);

    [[nodiscard]] const StreamFaultConfig& config() const { return config_; }

    /// What the delivery layer does to one event emitted at
    /// `emissionDay`. At most one of {drop, reorder, late} applies; a
    /// duplicate ride-along is drawn independently. Deterministic given
    /// the rng state; callers draw once per event in emission order.
    struct DeliveryFate {
        double delayDays = 0.0; ///< added to the emission day
        bool dropped = false;   ///< the delay is a drop + redelivery
        bool reordered = false; ///< the delay is in-flight reordering
        bool late = false;      ///< delayed past any reasonable watermark
        bool duplicate = false; ///< deliver a second copy as well
        double duplicateDelayDays = 0.0;
    };
    [[nodiscard]] DeliveryFate fateFor(net::Rng& rng) const;

    /// Reconnect days (sorted ascending) for one probe; empty when the
    /// probe drew no churn burst.
    [[nodiscard]] std::span<const double>
    reconnectDaysFor(std::uint64_t probeId) const;

    /// The session a probe is in at `day`: the number of reconnects at
    /// or before it (session 0 until the first reconnect).
    [[nodiscard]] std::uint32_t sessionAt(std::uint64_t probeId,
                                          double day) const;

    /// Total reconnects across every probe's schedule.
    [[nodiscard]] std::size_t reconnectCount() const;

private:
    StreamFaultConfig config_;
    std::map<std::uint64_t, std::vector<double>> reconnects_;
};

} // namespace aio::resilience
