/**
 * @file
 * Abstract interconnect: zero-load latency lives in the machine latency
 * table; the interconnect contributes hop counts and queueing delay.
 */

#ifndef TLSIM_NOC_INTERCONNECT_HPP
#define TLSIM_NOC_INTERCONNECT_HPP

#include <cstdint>

#include "common/types.hpp"

namespace tlsim::fault {
class FaultPlan;
} // namespace tlsim::fault

namespace tlsim::noc {

/** Node index inside an interconnect (processors/banks). */
using NodeId = std::uint32_t;

/** Message classes with different serialization costs. */
enum class MsgClass : std::uint8_t {
    Control, ///< request/ack, a few bytes
    Data     ///< carries a 64-byte cache line
};

/**
 * Base interface for interconnect models.
 *
 * The paper quotes *minimum round-trip* latencies per access type, so
 * the zero-load traversal time is already folded into the machine's
 * latency table. An Interconnect therefore only answers two questions:
 * how many hops separate two nodes (for picking the right table row)
 * and how much *extra* delay congestion adds right now.
 */
class Interconnect
{
  public:
    virtual ~Interconnect() = default;

    /** Number of network hops between two nodes. */
    virtual unsigned hops(NodeId src, NodeId dst) const = 0;

    /**
     * Reserve the path src->dst for one message at time @p when.
     * @return queueing delay in cycles caused by contention.
     */
    virtual Cycle traverse(Cycle when, NodeId src, NodeId dst,
                           MsgClass cls) = 0;

    /** Number of nodes attached. */
    virtual NodeId numNodes() const = 0;

    /**
     * Attach a fault plan consulted on every hop (nullptr detaches).
     * The caller keeps ownership and must outlive the interconnect's
     * use of it; the engine attaches its own plan at construction.
     */
    void attachFaults(fault::FaultPlan *plan) { faults_ = plan; }

  protected:
    fault::FaultPlan *faults_ = nullptr;
};

/** Serialization occupancy (cycles) of one message on a link. */
Cycle msgOccupancy(MsgClass cls);

} // namespace tlsim::noc

#endif // TLSIM_NOC_INTERCONNECT_HPP
