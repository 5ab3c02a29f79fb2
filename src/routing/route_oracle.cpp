#include "routing/route_oracle.hpp"

#include <array>
#include <cstddef>

#include "netbase/crc32c.hpp"
#include "netbase/error.hpp"

namespace aio::route {

namespace {

/// splitmix64 finalizer: full-avalanche 64-bit mixer.
std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

// Domain salts so a disabled AS never aliases a disabled link.
constexpr std::uint64_t kLinkSalt = 0xa5a5a5a5a5a5a5a5ULL;
constexpr std::uint64_t kAsSalt = 0x5a5a5a5a5a5a5a5aULL;

} // namespace

std::size_t FilterDigestHash::operator()(const FilterDigest& digest) const {
    std::uint64_t h = mix64(digest.sum);
    h = mix64(h ^ digest.product);
    h = mix64(h ^ (digest.linkCount << 32 | digest.asCount));
    return static_cast<std::size_t>(h);
}

void LinkFilter::disableLink(topo::AsIndex a, topo::AsIndex b) {
    links_.insert(key(a, b));
}

void LinkFilter::disableAs(topo::AsIndex as) { ases_.insert(as); }

bool LinkFilter::linkAllowed(topo::AsIndex a, topo::AsIndex b) const {
    return !links_.contains(key(a, b));
}

bool LinkFilter::asAllowed(topo::AsIndex as) const {
    return !ases_.contains(as);
}

std::vector<std::pair<topo::AsIndex, topo::AsIndex>>
LinkFilter::disabledLinks() const {
    std::vector<std::pair<topo::AsIndex, topo::AsIndex>> out;
    out.reserve(links_.size());
    for (const std::uint64_t packed : links_) {
        out.emplace_back(static_cast<topo::AsIndex>(packed & 0xffffffffULL),
                         static_cast<topo::AsIndex>(packed >> 32));
    }
    return out;
}

FilterDigest LinkFilter::digest() const {
    FilterDigest digest;
    digest.linkCount = links_.size();
    digest.asCount = ases_.size();
    // Commutative combiners (integer sum; product of odd mixes) make the
    // digest a pure function of the *sets*, independent of both the hash
    // table's iteration order and the caller's insertion order.
    for (const std::uint64_t link : links_) {
        const std::uint64_t h = mix64(link ^ kLinkSalt);
        digest.sum += h;
        digest.product *= (mix64(h) | 1ULL);
    }
    for (const topo::AsIndex as : ases_) {
        const std::uint64_t h =
            mix64(static_cast<std::uint64_t>(as) ^ kAsSalt);
        digest.sum += h;
        digest.product *= (mix64(h) | 1ULL);
    }
    return digest;
}

RouteOracle::RouteOracle(const topo::Topology& topology)
    : topo_(&topology), n_(topology.asCount()) {}

bool RouteOracle::reachable(topo::AsIndex src, topo::AsIndex dst) const {
    AIO_EXPECTS(src < n_ && dst < n_, "AS index OOB");
    return routeClass(src, dst) != RouteClass::None;
}

std::size_t RouteOracle::walk(
    topo::AsIndex src, topo::AsIndex dst,
    const std::function<void(topo::AsIndex)>& visit) const {
    AIO_EXPECTS(src < n_ && dst < n_, "AS index OOB");
    if (routeClass(src, dst) == RouteClass::None) {
        return 0;
    }
    topo::AsIndex cur = src;
    std::size_t visited = 1;
    visit(cur);
    while (cur != dst) {
        const std::int32_t nh = nextHopOf(cur, dst);
        AIO_EXPECTS(nh >= 0, "broken next-hop chain");
        cur = static_cast<topo::AsIndex>(nh);
        visit(cur);
        ++visited;
        AIO_EXPECTS(visited <= n_ + 1, "routing loop detected");
    }
    return visited;
}

std::vector<topo::AsIndex> RouteOracle::path(topo::AsIndex src,
                                             topo::AsIndex dst) const {
    std::vector<topo::AsIndex> out;
    walk(src, dst, [&out](topo::AsIndex hop) { out.push_back(hop); });
    return out;
}

int RouteOracle::pathLength(topo::AsIndex src, topo::AsIndex dst) const {
    const std::size_t visited = walk(src, dst, [](topo::AsIndex) {});
    if (visited == 0) {
        return -1;
    }
    return static_cast<int>(visited) - 1;
}

RouteMatrixDigest routeMatrixDigest(const RouteOracle& oracle) {
    const std::size_t n = oracle.asCount();
    // Stream row by row through the query surface — never materializes a
    // dense copy, so this digests a 50 k sharded oracle in bounded memory
    // (one n-element row buffer at a time).
    std::uint32_t hopCrc = net::crc32cInit();
    std::uint32_t klassCrc = net::crc32cInit();
    std::vector<std::int32_t> hopRow(n);
    std::vector<std::uint8_t> klassRow(n);
    for (topo::AsIndex dst = 0; dst < n; ++dst) {
        for (topo::AsIndex src = 0; src < n; ++src) {
            hopRow[src] = oracle.nextHopOf(src, dst);
            klassRow[src] =
                static_cast<std::uint8_t>(oracle.routeClass(src, dst));
        }
        hopCrc = net::crc32cUpdate(
            hopCrc, std::as_bytes(std::span<const std::int32_t>(hopRow)));
        klassCrc = net::crc32cUpdate(
            klassCrc, std::as_bytes(std::span<const std::uint8_t>(klassRow)));
    }
    return RouteMatrixDigest{net::crc32cFinish(hopCrc),
                             net::crc32cFinish(klassCrc)};
}

} // namespace aio::route
