#include "mem/overflow_area.hpp"

#include "common/trace.hpp"

namespace tlsim::mem {

void
OverflowArea::put(Addr line, VersionTag version)
{
    if (entries_.insert(Key{line, version.producer, version.incarnation})) {
        ++spills_;
        TLSIM_TRACE_EVENT(trace::Kind::VersionOverflow, ~0u,
                          version.producer, line, version.incarnation);
    }
    if (entries_.size() > peak_)
        peak_ = entries_.size();
}

bool
OverflowArea::contains(Addr line, VersionTag version) const
{
    return entries_.contains(Key{line, version.producer,
                                 version.incarnation});
}

bool
OverflowArea::remove(Addr line, VersionTag version)
{
    return entries_.erase(Key{line, version.producer,
                              version.incarnation});
}

void
OverflowArea::dropTask(TaskId producer)
{
    entries_.eraseIf(
        [producer](const Key &key) { return key.producer == producer; });
}

void
OverflowArea::clear()
{
    entries_.clear();
}

} // namespace tlsim::mem
