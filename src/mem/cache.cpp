#include "mem/cache.hpp"

#include <new>
#include <string>

#include "common/log.hpp"

namespace tlsim::mem {

VersionedCache::VersionedCache(CacheGeometry geo, bool multi_version)
    : geo_(geo), multiVersion_(multi_version),
      setMask_(Addr(geo.numSets()) - 1),
      frames_(static_cast<CacheLineState *>(::operator new(
          std::size_t(geo.numSets()) * geo.assoc *
          sizeof(CacheLineState)))),
      built_((std::size_t(geo.numSets()) + 63) / 64, 0)
{
    unsigned sets = geo.numSets();
    if (sets == 0)
        fatal("VersionedCache: zero sets");
    if ((sets & (sets - 1)) != 0)
        fatal("VersionedCache: set count " + std::to_string(sets) +
              " is not a power of two");
}

CacheLineState *
VersionedCache::builtSet(Addr line)
{
    std::size_t set = std::size_t(line & setMask_);
    if (!isBuilt(set))
        return nullptr;
    return frames_.get() + set * geo_.assoc;
}

CacheLineState *
VersionedCache::findVersion(Addr line, VersionTag version)
{
    CacheLineState *base = builtSet(line);
    if (!base)
        return nullptr;
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
    CacheLineState *base = builtSet(line);
    if (!base)
        return nullptr;
    for (unsigned w = 0; w < geo_.assoc; ++w) {
        CacheLineState &f = base[w];
        if (f.valid && f.line == line)
            return &f;
    }
    return nullptr;
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
    std::size_t set = std::size_t(want.line & setMask_);
    CacheLineState *base = frames_.get() + set * geo_.assoc;
    if (!isBuilt(set)) {
        for (unsigned w = 0; w < geo_.assoc; ++w)
            ::new (base + w) CacheLineState();
        built_[set >> 6] |= std::uint64_t(1) << (set & 63);
    }

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
    CacheLineState *base = builtSet(line);
    if (!base)
        return true; // a never-written set has only free frames
    if (findAnyOf(line) && !multiVersion_)
        return true; // replace-in-place path
    if (!pin_speculative)
        return true;
    for (unsigned w = 0; w < geo_.assoc; ++w) {
        if (evictClass(base[w]) != 3)
            return true;
    }
    return false;
}

void
VersionedCache::invalidateVersion(Addr line, VersionTag version)
{
    if (CacheLineState *f = findVersion(line, version))
        f->valid = false;
}

std::size_t
VersionedCache::residentLines() const
{
    std::size_t n = 0;
    const CacheLineState *frames = frames_.get();
    for (std::size_t set = 0; set <= setMask_; ++set) {
        if (!isBuilt(set))
            continue;
        for (unsigned w = 0; w < geo_.assoc; ++w) {
            if (frames[set * geo_.assoc + w].valid)
                ++n;
        }
    }
    return n;
}

unsigned
VersionedCache::versionsResident(Addr line)
{
    unsigned n = 0;
    CacheLineState *base = builtSet(line);
    if (!base)
        return 0;
    for (unsigned w = 0; w < geo_.assoc; ++w) {
        if (base[w].valid && base[w].line == line)
            ++n;
    }
    return n;
}

} // namespace tlsim::mem
