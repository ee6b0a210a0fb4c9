#include "mem/cache.hpp"

#include <string>

#include "common/log.hpp"

namespace tlsim::mem {

VersionedCache::VersionedCache(CacheGeometry geo, bool multi_version)
    : geo_(geo), multiVersion_(multi_version),
      setMask_(Addr(geo.numSets()) - 1),
      frames_(std::size_t(geo.numSets()) * geo.assoc)
{
    unsigned sets = geo.numSets();
    if (sets == 0)
        fatal("VersionedCache: zero sets");
    if ((sets & (sets - 1)) != 0)
        fatal("VersionedCache: set count " + std::to_string(sets) +
              " is not a power of two");
}

CacheLineState *
VersionedCache::setBase(Addr line)
{
    return &frames_[std::size_t(line & setMask_) * geo_.assoc];
}

CacheLineState *
VersionedCache::findVersion(Addr line, VersionTag version)
{
    CacheLineState *base = setBase(line);
    for (unsigned w = 0; w < geo_.assoc; ++w) {
        CacheLineState &f = base[w];
        if (f.valid && f.line == line && f.version == version)
            return &f;
    }
    return nullptr;
}

CacheLineState *
VersionedCache::findAnyOf(Addr line)
{
    CacheLineState *base = setBase(line);
    for (unsigned w = 0; w < geo_.assoc; ++w) {
        CacheLineState &f = base[w];
        if (f.valid && f.line == line)
            return &f;
    }
    return nullptr;
}

VersionedCache::FrameList
VersionedCache::framesOf(Addr line)
{
    FrameList out;
    forEachFrameOf(line, [&out](CacheLineState &f) { out.push_back(&f); });
    return out;
}

int
VersionedCache::evictClass(const CacheLineState &frame)
{
    if (!frame.valid)
        return 0;
    if (!frame.dirty && !frame.committedDirty)
        return 1; // clean replica / architectural data
    if (frame.committedDirty)
        return 2; // committed but unmerged (Lazy AMM)
    return 3;     // speculative dirty
}

InsertResult
VersionedCache::insert(const CacheLineState &want, Cycle now,
                       bool pin_speculative)
{
    InsertResult result;
    CacheLineState *base = setBase(want.line);

    // Same (line, version) already resident: update in place.
    if (CacheLineState *hit = findVersion(want.line, want.version)) {
        *hit = want;
        hit->valid = true;
        hit->lastUse = now;
        result.frame = hit;
        return result;
    }

    // Single-version caches: a different version of the same line gets
    // replaced in place (the caller is responsible for not replacing
    // state it still needs; the displaced copy is reported as victim).
    if (!multiVersion_) {
        if (CacheLineState *resident = findAnyOf(want.line)) {
            result.evicted = true;
            result.victim = *resident;
            *resident = want;
            resident->valid = true;
            resident->lastUse = now;
            result.frame = resident;
            return result;
        }
    }

    // Pick a victim: lowest evict class, LRU within the class.
    CacheLineState *victim = nullptr;
    int victim_class = 4;
    for (unsigned w = 0; w < geo_.assoc; ++w) {
        CacheLineState &f = base[w];
        int cls = evictClass(f);
        if (pin_speculative && cls == 3)
            continue;
        if (cls < victim_class ||
            (cls == victim_class && victim && f.lastUse < victim->lastUse)) {
            victim = &f;
            victim_class = cls;
        }
    }
    if (!victim)
        return result; // all frames pinned; caller must stall

    if (victim->valid) {
        result.evicted = true;
        result.victim = *victim;
    }
    *victim = want;
    victim->valid = true;
    victim->lastUse = now;
    result.frame = victim;
    return result;
}

bool
VersionedCache::canInsert(Addr line, bool pin_speculative)
{
    if (findAnyOf(line) && !multiVersion_)
        return true; // replace-in-place path
    if (!pin_speculative)
        return true;
    CacheLineState *base = setBase(line);
    for (unsigned w = 0; w < geo_.assoc; ++w) {
        if (evictClass(base[w]) != 3)
            return true;
    }
    return false;
}

void
VersionedCache::invalidate(CacheLineState *frame)
{
    if (frame)
        frame->valid = false;
}

void
VersionedCache::invalidateVersion(Addr line, VersionTag version)
{
    invalidate(findVersion(line, version));
}

void
VersionedCache::invalidateAll()
{
    for (auto &f : frames_)
        f.valid = false;
}

void
VersionedCache::forEach(const std::function<void(CacheLineState &)> &fn)
{
    for (auto &f : frames_) {
        if (f.valid)
            fn(f);
    }
}

std::size_t
VersionedCache::residentLines() const
{
    std::size_t n = 0;
    for (const auto &f : frames_) {
        if (f.valid)
            ++n;
    }
    return n;
}

unsigned
VersionedCache::versionsResident(Addr line)
{
    unsigned n = 0;
    CacheLineState *base = setBase(line);
    for (unsigned w = 0; w < geo_.assoc; ++w) {
        if (base[w].valid && base[w].line == line)
            ++n;
    }
    return n;
}

} // namespace tlsim::mem
