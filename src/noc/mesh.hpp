/**
 * @file
 * 2D mesh with dimension-order (X-Y) routing and per-link contention,
 * matching the CC-NUMA machine of the paper (4x4 mesh of nodes).
 */

#ifndef TLSIM_NOC_MESH_HPP
#define TLSIM_NOC_MESH_HPP

#include <vector>

#include "common/resource.hpp"
#include "noc/interconnect.hpp"

namespace tlsim::noc {

/**
 * RxC mesh. Each directed link is a Resource; a message reserves every
 * link on its X-Y route. Queueing delays on consecutive links compound,
 * which is how hot-spot contention (e.g. commit bursts toward one home
 * node) becomes visible to the requester.
 */
class Mesh2D : public Interconnect
{
  public:
    Mesh2D(unsigned rows, unsigned cols);

    unsigned hops(NodeId src, NodeId dst) const override;
    Cycle traverse(Cycle when, NodeId src, NodeId dst,
                   MsgClass cls) override;
    NodeId numNodes() const override { return rows_ * cols_; }

    unsigned rows() const { return rows_; }
    unsigned cols() const { return cols_; }

  private:
    unsigned rows_;
    unsigned cols_;
    // Directed links: for each node, 4 outgoing (N, S, E, W); absent
    // links at the mesh edge are simply never used.
    std::vector<Resource> links_;

    unsigned rowOf(NodeId n) const { return n / cols_; }
    unsigned colOf(NodeId n) const { return n % cols_; }
    Resource &link(NodeId from, int dir);
};

} // namespace tlsim::noc

#endif // TLSIM_NOC_MESH_HPP
