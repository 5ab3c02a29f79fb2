#include "measure/latency.hpp"

#include "netbase/error.hpp"
#include "netbase/stats.hpp"

namespace aio::measure {

LatencyStudy::LatencyStudy(const topo::Topology& topology,
                           const route::RouteOracle& oracle,
                           const TracerouteEngine& engine)
    : topo_(&topology), oracle_(&oracle), engine_(&engine),
      analyzer_(topology) {}

std::vector<topo::AsIndex>
LatencyStudy::eyeballs(std::string_view country) const {
    std::vector<topo::AsIndex> out;
    for (const topo::AsIndex as : topo_->asesInCountry(country)) {
        if (topo::isEyeball(topo_->as(as).type)) {
            out.push_back(as);
        }
    }
    return out;
}

CountryPairLatency LatencyStudy::between(std::string_view countryA,
                                         std::string_view countryB,
                                         int samples, net::Rng& rng) const {
    AIO_EXPECTS(samples > 0, "need a positive sample count");
    const auto fromA = eyeballs(countryA);
    const auto fromB = eyeballs(countryB);
    if (fromA.empty() || fromB.empty()) {
        throw net::NotFoundError{"no eyeball networks in country pair"};
    }
    CountryPairLatency result;
    result.a = std::string{countryA};
    result.b = std::string{countryB};
    std::vector<double> rtts;
    int detoured = 0;
    for (int i = 0; i < samples; ++i) {
        const topo::AsIndex src = rng.pick(fromA);
        const topo::AsIndex dst = rng.pick(fromB);
        if (src == dst) {
            continue;
        }
        const auto trace = engine_->traceToAs(src, dst, rng);
        if (!trace.reachedTarget) {
            continue;
        }
        rtts.push_back(trace.lastRttMs());
        detoured +=
            analyzer_.leavesAfrica(oracle_->path(src, dst)) ? 1 : 0;
    }
    result.samples = rtts.size();
    if (!rtts.empty()) {
        result.meanRttMs = net::mean(rtts);
        result.p90RttMs = net::percentile(rtts, 90.0);
        result.detourShare =
            static_cast<double>(detoured) / static_cast<double>(rtts.size());
    }
    return result;
}

std::vector<RegionPairLatency>
LatencyStudy::regionalMatrix(int samplesPerPair, net::Rng& rng) const {
    AIO_EXPECTS(samplesPerPair > 0, "need a positive sample count");
    std::vector<RegionPairLatency> out;
    for (const net::Region from : net::africanRegions()) {
        std::vector<topo::AsIndex> srcPool;
        for (const auto* c : net::CountryTable::world().inRegion(from)) {
            const auto e = eyeballs(c->iso2);
            srcPool.insert(srcPool.end(), e.begin(), e.end());
        }
        for (const net::Region to : net::africanRegions()) {
            std::vector<topo::AsIndex> dstPool;
            for (const auto* c : net::CountryTable::world().inRegion(to)) {
                const auto e = eyeballs(c->iso2);
                dstPool.insert(dstPool.end(), e.begin(), e.end());
            }
            RegionPairLatency cell;
            cell.from = from;
            cell.to = to;
            std::vector<double> rtts;
            for (int i = 0;
                 i < samplesPerPair && !srcPool.empty() && !dstPool.empty();
                 ++i) {
                const topo::AsIndex src = rng.pick(srcPool);
                const topo::AsIndex dst = rng.pick(dstPool);
                if (src == dst) {
                    continue;
                }
                const auto trace = engine_->traceToAs(src, dst, rng);
                if (trace.reachedTarget) {
                    rtts.push_back(trace.lastRttMs());
                }
            }
            cell.samples = rtts.size();
            if (!rtts.empty()) {
                cell.meanRttMs = net::mean(rtts);
            }
            out.push_back(cell);
        }
    }
    return out;
}

std::pair<double, double> LatencyStudy::detourPenalty(int samples,
                                                      net::Rng& rng) const {
    AIO_EXPECTS(samples > 0, "need a positive sample count");
    std::vector<topo::AsIndex> pool;
    for (const net::Region region : net::africanRegions()) {
        for (const auto* c : net::CountryTable::world().inRegion(region)) {
            const auto e = eyeballs(c->iso2);
            pool.insert(pool.end(), e.begin(), e.end());
        }
    }
    AIO_EXPECTS(pool.size() >= 2, "too few eyeballs");
    std::vector<double> local;
    std::vector<double> detoured;
    for (int i = 0; i < samples; ++i) {
        const topo::AsIndex src = rng.pick(pool);
        const topo::AsIndex dst = rng.pick(pool);
        if (src == dst ||
            topo_->as(src).countryCode == topo_->as(dst).countryCode) {
            continue;
        }
        const auto trace = engine_->traceToAs(src, dst, rng);
        if (!trace.reachedTarget) {
            continue;
        }
        (analyzer_.leavesAfrica(oracle_->path(src, dst)) ? detoured : local)
            .push_back(trace.lastRttMs());
    }
    return {local.empty() ? 0.0 : net::mean(local),
            detoured.empty() ? 0.0 : net::mean(detoured)};
}

} // namespace aio::measure
