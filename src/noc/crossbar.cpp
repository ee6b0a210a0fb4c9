#include "noc/crossbar.hpp"

#include "common/fault.hpp"
#include "common/log.hpp"
#include "common/trace.hpp"

namespace tlsim::noc {

Crossbar::Crossbar(unsigned nodes) : ports_(nodes)
{
    if (nodes == 0)
        fatal("Crossbar: zero nodes");
}

Cycle
Crossbar::traverse(Cycle when, NodeId src, NodeId dst, MsgClass cls)
{
    if (src == dst)
        return 0;
    TLSIM_TRACE_EVENT_AT(when, trace::Kind::NocSend, src,
                         unsigned(cls), dst, 1);
    Cycle delay = ports_[dst].acquire(when, msgOccupancy(cls));
    if (faults_ != nullptr)
        delay += faults_->nocLinkFault(ports_[dst], when + delay);
    TLSIM_TRACE_EVENT_AT(when + delay + msgOccupancy(cls),
                         trace::Kind::NocDeliver, src, unsigned(cls),
                         dst, delay);
    return delay;
}

} // namespace tlsim::noc
