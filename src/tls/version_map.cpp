#include "tls/version_map.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/trace.hpp"

namespace tlsim::tls {

VersionInfo *
VersionMap::latestVisible(Addr line, TaskId reader)
{
    VersionList *list = lines_.find(line);
    return list ? latestVisibleIn(*list, reader) : nullptr;
}

VersionInfo *
VersionMap::find(Addr line, mem::VersionTag tag)
{
    VersionList *list = lines_.find(line);
    return list ? findIn(*list, tag) : nullptr;
}

VersionInfo *
VersionMap::memoryHolder(Addr line)
{
    VersionList *list = lines_.find(line);
    if (!list)
        return nullptr;
    for (auto &v : *list) {
        if (v.inMemory)
            return &v;
    }
    return nullptr;
}

VersionInfo *
VersionMap::latestCommitted(Addr line)
{
    VersionList *list = lines_.find(line);
    if (!list)
        return nullptr;
    for (auto rit = list->rbegin(); rit != list->rend(); ++rit) {
        if (rit->committed)
            return &*rit;
    }
    return nullptr;
}

TaskId
VersionMap::latestWordWriter(Addr line, std::uint8_t word_bit,
                             TaskId reader)
{
    VersionList *list = lines_.find(line);
    return list ? latestWordWriterIn(*list, word_bit, reader) : 0;
}

VersionList &
VersionMap::versionsOf(Addr line)
{
    return lines_[line];
}

VersionInfo &
VersionMap::create(Addr line, mem::VersionTag tag, ProcId owner)
{
    auto &vec = lines_[line];
    auto pos = std::lower_bound(
        vec.begin(), vec.end(), tag.producer,
        [](const VersionInfo &v, TaskId p) { return v.tag.producer < p; });
    if (pos != vec.end() && pos->tag.producer == tag.producer)
        panic("VersionMap::create: duplicate producer for line");
    VersionInfo info;
    info.tag = tag;
    info.cacheOwner = owner;
    ++totalVersions_;
    TLSIM_TRACE_EVENT(trace::Kind::VersionCreate, owner, tag.producer,
                      line, tag.incarnation);
    return *vec.insert(pos, info);
}

void
VersionMap::remove(Addr line, mem::VersionTag tag)
{
    VersionList *list = lines_.find(line);
    if (!list)
        return;
    if (VersionInfo *v = findIn(*list, tag)) {
        TLSIM_TRACE_EVENT(trace::Kind::VersionRemove, v->cacheOwner,
                          tag.producer, line, tag.incarnation);
        list->erase(v);
        --totalVersions_;
    }
    if (list->empty())
        lines_.erase(line);
}

void
VersionMap::clear()
{
    lines_.clear();
    totalVersions_ = 0;
}

} // namespace tlsim::tls
