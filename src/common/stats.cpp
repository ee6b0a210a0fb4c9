#include "common/stats.hpp"

#include <sstream>

#include "common/log.hpp"

namespace tlsim {

const char *
cycleKindName(CycleKind kind)
{
    switch (kind) {
      case CycleKind::Busy: return "busy";
      case CycleKind::LogOverhead: return "log_overhead";
      case CycleKind::MemStall: return "mem_stall";
      case CycleKind::CommitWork: return "commit_work";
      case CycleKind::TokenStall: return "token_stall";
      case CycleKind::VersionStall: return "version_stall";
      case CycleKind::OverflowStall: return "overflow_stall";
      case CycleKind::RecoveryWork: return "recovery_work";
      case CycleKind::DispatchOverhead: return "dispatch";
      case CycleKind::EndStall: return "end_stall";
      default: return "?";
    }
}

Cycle
CycleBreakdown::total() const
{
    Cycle sum = 0;
    for (Cycle bin : bins_)
        sum += bin;
    return sum;
}

Cycle
CycleBreakdown::busy() const
{
    return get(CycleKind::Busy) + get(CycleKind::LogOverhead);
}

CycleBreakdown &
CycleBreakdown::operator+=(const CycleBreakdown &other)
{
    for (std::size_t i = 0; i < kNumCycleKinds; ++i)
        bins_[i] += other.bins_[i];
    return *this;
}

std::string
CycleBreakdown::toString() const
{
    std::ostringstream oss;
    bool first = true;
    for (std::size_t i = 0; i < kNumCycleKinds; ++i) {
        if (bins_[i] == 0)
            continue;
        if (!first)
            oss << " ";
        oss << cycleKindName(static_cast<CycleKind>(i)) << "=" << bins_[i];
        first = false;
    }
    return oss.str();
}

StatId
CounterSet::intern(const std::string &name)
{
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].first == name)
            return StatId(i);
    }
    entries_.emplace_back(name, 0);
    return StatId(entries_.size() - 1);
}

std::uint64_t &
CounterSet::find(const std::string &name)
{
    for (auto &entry : entries_) {
        if (entry.first == name)
            return entry.second;
    }
    entries_.emplace_back(name, 0);
    return entries_.back().second;
}

std::uint64_t
CounterSet::get(const std::string &name) const
{
    for (const auto &entry : entries_) {
        if (entry.first == name)
            return entry.second;
    }
    return 0;
}

void
CounterSet::merge(const CounterSet &other)
{
    for (const auto &entry : other.entries_)
        find(entry.first) += entry.second;
}

} // namespace tlsim
