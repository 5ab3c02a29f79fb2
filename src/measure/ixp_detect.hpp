#pragma once

#include <vector>

#include "measure/traceroute.hpp"
#include "netbase/prefix_trie.hpp"
#include "netbase/rng.hpp"

namespace aio::measure {

/// The prefix knowledge base a traIXroute-style detector matches against.
/// Real detectors only know the IXP LANs registered in PeeringDB/PCH;
/// `completeness` is the fraction of fabrics present in the database
/// (African registrations are notoriously incomplete).
class IxpKnowledgeBase {
public:
    /// Builds a knowledge base covering `completeness` of all fabrics
    /// (big EU exchanges are always registered).
    static IxpKnowledgeBase build(const topo::Topology& topology,
                                  double completeness, net::Rng& rng);

    /// Full ground-truth knowledge base (the Observatory's advantage:
    /// purpose-built target/prefix curation, §7).
    static IxpKnowledgeBase full(const topo::Topology& topology);

    [[nodiscard]] bool knows(topo::IxpIndex ixp) const;
    [[nodiscard]] std::optional<topo::IxpIndex>
    match(net::Ipv4Address address) const;
    [[nodiscard]] std::size_t knownCount() const { return known_.size(); }

private:
    std::vector<topo::IxpIndex> known_;
    net::PrefixTrie<topo::IxpIndex> trie_;
};

/// traIXroute-style IXP detection: a traceroute crosses an IXP when one of
/// its hop addresses falls inside a *known* IXP LAN prefix.
class IxpDetector {
public:
    IxpDetector(const topo::Topology& topology, IxpKnowledgeBase kb);

    /// IXPs detected on one traceroute (deduplicated, hop order).
    [[nodiscard]] std::vector<topo::IxpIndex>
    detect(const TracerouteResult& trace) const;

private:
    const topo::Topology* topo_;
    IxpKnowledgeBase kb_;
};

} // namespace aio::measure
