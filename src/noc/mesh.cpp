#include "noc/mesh.hpp"

#include <cstdlib>

#include "common/fault.hpp"
#include "common/log.hpp"
#include "common/trace.hpp"

namespace tlsim::noc {

Cycle
msgOccupancy(MsgClass cls)
{
    // 8-byte-wide links: a control message is one flit, a 64-byte data
    // message serializes over 8 flits.
    return cls == MsgClass::Data ? 8 : 1;
}

namespace {
// Direction encoding for directed links.
enum { kNorth = 0, kSouth = 1, kEast = 2, kWest = 3, kNumDirs = 4 };
} // namespace

Mesh2D::Mesh2D(unsigned rows, unsigned cols)
    : rows_(rows), cols_(cols), links_(rows * cols * kNumDirs)
{
    if (rows == 0 || cols == 0)
        fatal("Mesh2D: degenerate dimensions");
}

unsigned
Mesh2D::hops(NodeId src, NodeId dst) const
{
    int dr = int(rowOf(dst)) - int(rowOf(src));
    int dc = int(colOf(dst)) - int(colOf(src));
    return unsigned(std::abs(dr) + std::abs(dc));
}

Resource &
Mesh2D::link(NodeId from, int dir)
{
    return links_[from * kNumDirs + dir];
}

Cycle
Mesh2D::traverse(Cycle when, NodeId src, NodeId dst, MsgClass cls)
{
    if (src == dst)
        return 0;

    TLSIM_TRACE_EVENT_AT(when, trace::Kind::NocSend, src,
                         unsigned(cls), dst, hops(src, dst));
    const Cycle occ = msgOccupancy(cls);
    Cycle t = when;
    Cycle delay = 0;

    // X-first dimension-order routing. Both ends' (row, col) are
    // computed once and stepped along with cur: no division per hop.
    auto hop = [&](NodeId from, int dir) {
        Resource &l = link(from, dir);
        Cycle d = l.acquire(t, occ);
        if (faults_ != nullptr)
            d += faults_->nocLinkFault(l, t + d);
        delay += d;
        t += d + occ;
    };
    NodeId cur = src;
    unsigned col = colOf(src), row = rowOf(src);
    const unsigned dst_col = colOf(dst), dst_row = rowOf(dst);
    while (col != dst_col) {
        if (dst_col > col) {
            hop(cur, kEast);
            ++col;
            ++cur;
        } else {
            hop(cur, kWest);
            --col;
            --cur;
        }
    }
    while (row != dst_row) {
        if (dst_row > row) {
            hop(cur, kSouth);
            ++row;
            cur += cols_;
        } else {
            hop(cur, kNorth);
            --row;
            cur -= cols_;
        }
    }
    TLSIM_TRACE_EVENT_AT(t, trace::Kind::NocDeliver, src,
                         unsigned(cls), dst, delay);
    return delay;
}

} // namespace tlsim::noc
