#include "core/probe.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "netbase/error.hpp"

namespace aio::core {

void ProbeStreamCursor::reconnect() {
    AIO_EXPECTS(session != std::numeric_limits<std::uint32_t>::max(),
                "probe session counter exhausted");
    ++session;
    nextSeq = 0;
}

void ProbeStreamCursor::restore(std::uint32_t restoredSession,
                                std::uint64_t restoredNextSeq) {
    AIO_EXPECTS(restoredSession >= session,
                "probe cursor restore rewinds the session");
    AIO_EXPECTS(restoredSession > session || restoredNextSeq >= nextSeq,
                "probe cursor restore rewinds the sequence");
    session = restoredSession;
    nextSeq = restoredNextSeq;
}

void PricingModel::validate() const {
    switch (kind) {
    case Kind::FlatPerMb:
        AIO_EXPECTS(perMbUsd >= 0.0, "perMbUsd must be non-negative");
        break;
    case Kind::PrepaidBundle:
        AIO_EXPECTS(bundleMb > 0.0, "bundleMb must be positive");
        AIO_EXPECTS(bundleCostUsd >= 0.0,
                    "bundleCostUsd must be non-negative");
        break;
    case Kind::TimeOfDayDiscount:
        AIO_EXPECTS(perMbUsd >= 0.0, "perMbUsd must be non-negative");
        AIO_EXPECTS(offPeakFactor >= 0.0,
                    "offPeakFactor must be non-negative");
        break;
    }
}

double PricingModel::costUsd(double mb, bool offPeak) const {
    AIO_EXPECTS(mb >= 0.0, "negative traffic volume");
    validate();
    switch (kind) {
    case Kind::FlatPerMb:
        return mb * perMbUsd;
    case Kind::PrepaidBundle:
        return std::ceil(mb / bundleMb) * bundleCostUsd;
    case Kind::TimeOfDayDiscount:
        return mb * perMbUsd * (offPeak ? offPeakFactor : 1.0);
    }
    return mb * perMbUsd;
}

void ProbeFleet::add(Probe probe) {
    AIO_EXPECTS(!probe.id.empty(), "probe needs an id");
    probes_.push_back(std::move(probe));
}

const Probe& ProbeFleet::probe(std::size_t index) const {
    AIO_EXPECTS(index < probes_.size(), "probe index out of range");
    return probes_[index];
}

std::vector<std::size_t>
ProbeFleet::siblingsInCountry(std::size_t index) const {
    AIO_EXPECTS(index < probes_.size(), "probe index out of range");
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < probes_.size(); ++i) {
        if (i != index &&
            probes_[i].countryCode == probes_[index].countryCode) {
            out.push_back(i);
        }
    }
    return out;
}

std::size_t ProbeFleet::countryCount() const {
    std::set<std::string> countries;
    for (const Probe& probe : probes_) {
        countries.insert(probe.countryCode);
    }
    return countries.size();
}

namespace {

PricingModel randomAfricanPricing(net::Rng& rng) {
    PricingModel pricing;
    const double roll = rng.uniform01();
    if (roll < 0.5) {
        pricing.kind = PricingModel::Kind::PrepaidBundle;
        pricing.bundleMb = rng.uniformReal(200.0, 1000.0);
        pricing.bundleCostUsd = rng.uniformReal(1.5, 6.0);
    } else if (roll < 0.8) {
        pricing.kind = PricingModel::Kind::FlatPerMb;
        // Mobile data in Africa is expensive relative to income (§7.1).
        pricing.perMbUsd = rng.uniformReal(0.004, 0.02);
    } else {
        pricing.kind = PricingModel::Kind::TimeOfDayDiscount;
        pricing.perMbUsd = rng.uniformReal(0.004, 0.015);
        pricing.offPeakFactor = rng.uniformReal(0.3, 0.7);
    }
    return pricing;
}

} // namespace

ProbeFleet ProbeFleet::observatory(const topo::Topology& topology,
                                   net::Rng& rng, int probesPerCountry) {
    AIO_EXPECTS(probesPerCountry > 0, "need at least one probe per country");
    ProbeFleet fleet;
    int serial = 0;
    for (const auto* country : net::CountryTable::world().african()) {
        // Candidate hosts: eyeballs, preferring mobile networks and
        // networks present at IXPs (purpose-driven placement, §7).
        std::vector<topo::AsIndex> candidates;
        for (const topo::AsIndex as : topology.asesInCountry(country->iso2)) {
            if (topo::isEyeball(topology.as(as).type)) {
                candidates.push_back(as);
            }
        }
        if (candidates.empty()) {
            continue;
        }
        std::ranges::sort(candidates, [&](topo::AsIndex a, topo::AsIndex b) {
            const auto score = [&](topo::AsIndex idx) {
                return (topology.as(idx).mobileDominant ? 2 : 0) +
                       (topology.ixpsOf(idx).empty() ? 0 : 1);
            };
            if (score(a) != score(b)) return score(a) > score(b);
            return topology.as(a).asn < topology.as(b).asn;
        });
        for (int i = 0;
             i < probesPerCountry &&
             i < static_cast<int>(candidates.size());
             ++i) {
            Probe probe;
            probe.id = "obs-" + std::string{country->iso2} + "-" +
                       std::to_string(++serial);
            probe.hostAs = candidates[static_cast<std::size_t>(i)];
            probe.countryCode = std::string{country->iso2};
            probe.cellular = true;
            probe.wired = rng.bernoulli(0.4); // dual-homed device
            probe.availability = rng.uniformReal(0.75, 0.98);
            probe.monthlyBudgetUsd = rng.uniformReal(5.0, 15.0);
            probe.pricing = randomAfricanPricing(rng);
            fleet.add(std::move(probe));
        }
    }
    return fleet;
}

ProbeFleet ProbeFleet::atlasLike(const topo::Topology& topology,
                                 net::Rng& rng) {
    ProbeFleet fleet;
    // Geographic bias: Atlas-style coverage concentrates in a few
    // well-connected markets (§6.2), on wired academic/fixed networks.
    const char* hostCountries[] = {"ZA", "ZA", "ZA", "KE", "KE", "NG",
                                   "EG", "TN", "MU", "RW", "GH", "SN"};
    int serial = 0;
    for (const char* iso2 : hostCountries) {
        std::vector<topo::AsIndex> candidates;
        for (const topo::AsIndex as : topology.asesInCountry(iso2)) {
            const auto& info = topology.as(as);
            // Wired bias: fixed-line, enterprise and academic hosts.
            if (info.type == topo::AsType::AccessIsp ||
                info.type == topo::AsType::Education ||
                info.type == topo::AsType::Enterprise) {
                candidates.push_back(as);
            }
        }
        if (candidates.empty()) {
            continue;
        }
        Probe probe;
        probe.id = "atlas-" + std::string{iso2} + "-" +
                   std::to_string(++serial);
        probe.hostAs = rng.pick(candidates);
        probe.countryCode = iso2;
        probe.cellular = false;
        probe.wired = true;
        probe.availability = 0.99;
        probe.monthlyBudgetUsd = 1e9; // hosted, unmetered
        probe.pricing.kind = PricingModel::Kind::FlatPerMb;
        probe.pricing.perMbUsd = 0.0;
        fleet.add(std::move(probe));
    }
    return fleet;
}

} // namespace aio::core
