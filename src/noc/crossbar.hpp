/**
 * @file
 * Crossbar interconnect for the CMP configuration: L2s connect through
 * a crossbar to on-chip directory/L3-tag banks.
 */

#ifndef TLSIM_NOC_CROSSBAR_HPP
#define TLSIM_NOC_CROSSBAR_HPP

#include <vector>

#include "common/resource.hpp"
#include "noc/interconnect.hpp"

namespace tlsim::noc {

/**
 * Non-blocking crossbar: contention only at the output port of the
 * destination node. Every pair of distinct nodes is one hop apart.
 */
class Crossbar : public Interconnect
{
  public:
    explicit Crossbar(unsigned nodes);

    unsigned
    hops(NodeId src, NodeId dst) const override
    {
        return src == dst ? 0 : 1;
    }

    Cycle traverse(Cycle when, NodeId src, NodeId dst,
                   MsgClass cls) override;
    NodeId numNodes() const override
    {
        return static_cast<NodeId>(ports_.size());
    }

  private:
    std::vector<Resource> ports_;
};

} // namespace tlsim::noc

#endif // TLSIM_NOC_CROSSBAR_HPP
