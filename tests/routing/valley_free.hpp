#pragma once

#include <algorithm>
#include <vector>

#include "topo/as_graph.hpp"

// The valley-free check the routing property tests hold every oracle
// path to: an AS-level path climbs customer-to-provider links, crosses
// at most one peering link, then only descends (Up* Peer? Down*).
namespace aio::route {

[[nodiscard]] inline bool
isValleyFree(const topo::Topology& topology,
             const std::vector<topo::AsIndex>& path) {
    if (path.size() < 2) {
        return true;
    }
    enum class Edge { Up, Peer, Down };
    int state = 0; // 0 = climbing, 1 = after peer, 2 = descending
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const topo::AsIndex a = path[i];
        const topo::AsIndex b = path[i + 1];
        Edge edge{};
        const auto providers = topology.providersOf(a);
        const auto customers = topology.customersOf(a);
        const auto peers = topology.peersOf(a);
        if (std::ranges::find(providers, b) != providers.end()) {
            edge = Edge::Up;
        } else if (std::ranges::find(customers, b) != customers.end()) {
            edge = Edge::Down;
        } else if (std::ranges::find(peers, b) != peers.end()) {
            edge = Edge::Peer;
        } else {
            return false; // not an adjacency at all
        }
        switch (edge) {
        case Edge::Up:
            if (state != 0) return false;
            break;
        case Edge::Peer:
            if (state != 0) return false;
            state = 1;
            break;
        case Edge::Down:
            state = 2;
            break;
        }
    }
    return true;
}

} // namespace aio::route
