#include "core/studies.hpp"

#include <algorithm>

#include "netbase/error.hpp"

namespace aio::core {

double DetourReport::euTier1OrIxpShare() const {
    double share = 0.0;
    for (const auto& [cls, value] : attribution) {
        if (cls == route::DetourClass::EuTier1 ||
            cls == route::DetourClass::EuIxp) {
            share += value;
        }
    }
    return share;
}

ConnectivityStudies::ConnectivityStudies(const topo::Topology& topology,
                                         const route::RouteOracle& oracle)
    : topo_(&topology), oracle_(&oracle), analyzer_(topology) {}

std::vector<topo::AsIndex>
ConnectivityStudies::eyeballsInRegion(net::Region region) const {
    std::vector<topo::AsIndex> out;
    for (const topo::AsIndex as : topo_->asesInRegion(region)) {
        if (topo::isEyeball(topo_->as(as).type)) {
            out.push_back(as);
        }
    }
    return out;
}

DetourReport ConnectivityStudies::detourStudy(std::size_t samplePairs,
                                              net::Rng& rng) const {
    AIO_EXPECTS(samplePairs > 0, "need a positive sample");
    std::vector<topo::AsIndex> eyeballs;
    for (const net::Region region : net::africanRegions()) {
        const auto regional = eyeballsInRegion(region);
        eyeballs.insert(eyeballs.end(), regional.begin(), regional.end());
    }
    AIO_EXPECTS(eyeballs.size() >= 2, "too few African eyeballs");

    std::map<net::Region, std::pair<std::size_t, std::size_t>> regional;
    std::map<route::DetourClass, std::size_t> attribution;
    std::size_t total = 0;
    std::size_t detoured = 0;
    while (total < samplePairs) {
        const topo::AsIndex src = rng.pick(eyeballs);
        const topo::AsIndex dst = rng.pick(eyeballs);
        if (src == dst ||
            topo_->as(src).countryCode == topo_->as(dst).countryCode) {
            continue;
        }
        const auto path = oracle_->path(src, dst);
        if (path.empty()) {
            continue;
        }
        ++total;
        auto& [pairs, detours] = regional[topo_->as(src).region];
        ++pairs;
        const auto cls = analyzer_.classify(path);
        if (cls != route::DetourClass::NoDetour) {
            ++detoured;
            ++detours;
            ++attribution[cls];
        }
    }

    DetourReport report;
    report.totalPairs = total;
    report.overallDetourShare =
        static_cast<double>(detoured) / static_cast<double>(total);
    for (const net::Region region : net::africanRegions()) {
        const auto& [pairs, detours] = regional[region];
        DetourReport::RegionRow row;
        row.region = region;
        row.pairs = pairs;
        row.detourShare = pairs == 0 ? 0.0
                                     : static_cast<double>(detours) /
                                           static_cast<double>(pairs);
        report.byRegion.push_back(row);
    }
    if (detoured > 0) {
        for (const auto& [cls, count] : attribution) {
            report.attribution[cls] =
                static_cast<double>(count) / static_cast<double>(detoured);
        }
    }
    return report;
}

IxpPrevalenceReport
ConnectivityStudies::ixpPrevalence(std::size_t pairsPerRegion,
                                   net::Rng& rng) const {
    AIO_EXPECTS(pairsPerRegion > 0, "need a positive sample");
    IxpPrevalenceReport report;
    std::size_t total = 0;
    std::size_t crossing = 0;
    for (const net::Region region : net::africanRegions()) {
        const auto eyeballs = eyeballsInRegion(region);
        IxpPrevalenceReport::RegionRow row;
        row.region = region;
        if (eyeballs.size() < 2) {
            report.byRegion.push_back(row);
            continue;
        }
        std::size_t pairs = 0;
        std::size_t crossed = 0;
        std::size_t attempts = 0;
        while (pairs < pairsPerRegion && attempts < pairsPerRegion * 50) {
            ++attempts;
            const topo::AsIndex src = rng.pick(eyeballs);
            const topo::AsIndex dst = rng.pick(eyeballs);
            if (src == dst) {
                continue;
            }
            const auto path = oracle_->path(src, dst);
            if (path.empty()) {
                continue;
            }
            ++pairs;
            crossed += analyzer_.crossesAfricanIxp(path) ? 1 : 0;
        }
        row.pairs = pairs;
        row.ixpShare = pairs == 0 ? 0.0
                                  : static_cast<double>(crossed) /
                                        static_cast<double>(pairs);
        report.byRegion.push_back(row);
    }
    // Overall share over ALL African probe pairs (intra- and
    // inter-regional): inter-region routes almost never cross an African
    // exchange, which is what pulls the continent-wide figure down to the
    // paper's ~10%.
    std::vector<topo::AsIndex> eyeballs;
    for (const net::Region region : net::africanRegions()) {
        const auto regional = eyeballsInRegion(region);
        eyeballs.insert(eyeballs.end(), regional.begin(), regional.end());
    }
    std::size_t attempts = 0;
    const std::size_t target = pairsPerRegion * net::africanRegions().size();
    while (total < target && attempts < target * 50) {
        ++attempts;
        const topo::AsIndex src = rng.pick(eyeballs);
        const topo::AsIndex dst = rng.pick(eyeballs);
        if (src == dst) {
            continue;
        }
        const auto path = oracle_->path(src, dst);
        if (path.empty()) {
            continue;
        }
        ++total;
        crossing += analyzer_.crossesAfricanIxp(path) ? 1 : 0;
    }
    report.overallShare = total == 0 ? 0.0
                                     : static_cast<double>(crossing) /
                                           static_cast<double>(total);
    return report;
}

} // namespace aio::core
