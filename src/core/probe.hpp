#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netbase/rng.hpp"
#include "topo/as_graph.hpp"

namespace aio::core {

/// Monotonic (session, sequence) counter for one probe's measurement
/// stream. A probe stamps every event it emits with its current session
/// and the next sequence number; a disconnect/reconnect opens a new
/// session and restarts sequencing at zero. The (session, seq) pair
/// therefore totally orders a probe's lifetime output and never repeats —
/// which is what lets the stream layer (stream::StreamIngestor) recognise
/// at-least-once redeliveries and probe churn instead of double-counting
/// them.
struct ProbeStreamCursor {
    std::uint32_t session = 0;
    std::uint64_t nextSeq = 0;

    /// Stamps one event: returns the sequence number to emit and
    /// advances the cursor.
    std::uint64_t issue() { return nextSeq++; }

    /// Disconnect/reconnect: opens the next session and restarts the
    /// sequence. Throws net::PreconditionError when the session counter
    /// would wrap — a wrapped session aliases ancient events.
    void reconnect();

    /// Restores a persisted cursor position. Monotonic only: rewinding
    /// the session, or the sequence within the current session, throws
    /// net::PreconditionError — a cursor that moves backwards would
    /// re-issue (session, seq) pairs and silently alias distinct events.
    void restore(std::uint32_t session, std::uint64_t nextSeq);

    [[nodiscard]] bool operator==(const ProbeStreamCursor&) const = default;
};

/// How a probe's (mobile) connectivity is billed. The paper requires the
/// platform to support multiple pricing models because they differ per
/// country (§7.1 "Cost-conscious").
struct PricingModel {
    enum class Kind {
        FlatPerMb,       ///< pure usage-based
        PrepaidBundle,   ///< whole bundles are consumed (quantized!)
        TimeOfDayDiscount///< off-peak bytes are cheaper
    };
    Kind kind = Kind::FlatPerMb;
    double perMbUsd = 0.01;
    double bundleMb = 500.0;    ///< PrepaidBundle only
    double bundleCostUsd = 4.0; ///< PrepaidBundle only
    double offPeakFactor = 0.5; ///< TimeOfDayDiscount only

    /// Cost of sending `mb` megabytes (marginal, from a zero balance).
    [[nodiscard]] double costUsd(double mb, bool offPeak) const;

    /// Throws PreconditionError when the parameters relevant to `kind` are
    /// out of range (non-positive bundle size, negative rates/factors).
    /// Guards the `ceil(mb / bundleMb)` tariff math against inf/NaN costs.
    void validate() const;
};

/// One observatory vantage point: a Raspberry-Pi-class device or a
/// residential proxy, with the constraints §7.1 highlights (cellular
/// uplink, prepaid budget, unreliable power).
struct Probe {
    std::string id;
    topo::AsIndex hostAs = 0;
    std::string countryCode;
    bool cellular = true;
    bool wired = false;
    /// Probability the probe has power/connectivity at measurement time.
    double availability = 0.9;
    double monthlyBudgetUsd = 10.0;
    PricingModel pricing;
};

/// A set of probes plus builders for the two deployment philosophies the
/// paper contrasts.
class ProbeFleet {
public:
    ProbeFleet() = default;

    void add(Probe probe);
    [[nodiscard]] const std::vector<Probe>& probes() const {
        return probes_;
    }
    [[nodiscard]] std::size_t size() const { return probes_.size(); }
    [[nodiscard]] const Probe& probe(std::size_t index) const;
    /// Indices of every probe sharing `index`'s country, excluding
    /// `index` itself — the reassignment candidates the resilience layer
    /// falls back to when a probe dies mid-campaign.
    [[nodiscard]] std::vector<std::size_t>
    siblingsInCountry(std::size_t index) const;
    /// Number of distinct countries hosting at least one probe.
    [[nodiscard]] std::size_t countryCount() const;

    /// The Observatory deployment: probes recruited across most African
    /// countries, preferentially on *mobile* networks and on networks
    /// that peer at IXPs, with cellular uplinks, prepaid budgets and
    /// realistic power availability.
    static ProbeFleet observatory(const topo::Topology& topology,
                                  net::Rng& rng, int probesPerCountry = 2);

    /// The Atlas-like baseline: geographically biased (probes concentrate
    /// in a handful of well-connected countries), wired, hosted in
    /// fixed-line/academic networks — the bias §6.2 quantifies.
    static ProbeFleet atlasLike(const topo::Topology& topology,
                                net::Rng& rng);

private:
    std::vector<Probe> probes_;
};

} // namespace aio::core
