/**
 * @file
 * Set-associative cache holding (possibly multiple) versions of lines.
 *
 * This is the container half of the paper's buffering support: the
 * CTID tag is CacheLineState::version, and the MultiT&MV ability to
 * keep several lines with the same address tag but different task IDs
 * in one set (serviced by the Cache Retrieval Logic) corresponds to
 * constructing the cache with multi_version = true.
 */

#ifndef TLSIM_MEM_CACHE_HPP
#define TLSIM_MEM_CACHE_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "mem/geometry.hpp"
#include "mem/version_tag.hpp"

namespace tlsim::mem {

/**
 * State of one cache line (frame).
 *
 * dirty distinguishes the authoritative copy of a version from clean
 * replicas fetched for reading. committedDirty marks Lazy-AMM lines
 * whose producing task has committed but whose data has not merged
 * with main memory yet.
 */
struct CacheLineState {
    Addr line = 0;
    VersionTag version = VersionTag::arch();
    bool valid = false;
    bool dirty = false;
    bool speculative = false;
    bool committedDirty = false;
    Cycle lastUse = 0;
};

/**
 * Result of an insertion attempt.
 */
struct InsertResult {
    /** Frame now holding the new line; nullptr if insertion failed. */
    CacheLineState *frame = nullptr;
    /** True if a victim was displaced (victim holds its pre-eviction state). */
    bool evicted = false;
    /** Copy of the displaced line, meaningful when evicted. */
    CacheLineState victim;
};

/**
 * Set-associative, LRU-within-priority-class cache.
 *
 * Victim priority (most evictable first): invalid frames, clean lines,
 * committed-dirty lines, speculative-dirty lines. The engine decides
 * what displacing each class means (silent drop, lazy merge via VCL,
 * spill to the overflow area, or an MTID-guarded write-back).
 */
class VersionedCache
{
  public:
    /**
     * @param geo cache geometry; its set count must be a power of two
     *        (lines map to sets by masking)
     * @param multi_version allow several versions of one line per set
     *        (MultiT&MV). When false, at most one frame per line
     *        address may be resident.
     */
    VersionedCache(CacheGeometry geo, bool multi_version);

    const CacheGeometry &geometry() const { return geo_; }
    bool multiVersion() const { return multiVersion_; }

    /** Find the frame holding exactly (line, version), or nullptr. */
    CacheLineState *findVersion(Addr line, VersionTag version);

    /** Find any valid frame for @p line (single-version caches). */
    CacheLineState *findAnyOf(Addr line);

    /**
     * Pointers to every valid frame for @p line. A set holds at most
     * `assoc` versions of one line, so the list stays inline (no heap
     * allocation) for every geometry the studies use.
     */
    using FrameList = SmallVec<CacheLineState *, 8>;
    FrameList framesOf(Addr line);

    /** Apply @p fn to every valid frame of @p line (no allocation). */
    template <typename Fn>
    void
    forEachFrameOf(Addr line, Fn &&fn)
    {
        CacheLineState *base = setBase(line);
        for (unsigned w = 0; w < geo_.assoc; ++w) {
            CacheLineState &f = base[w];
            if (f.valid && f.line == line)
                fn(f);
        }
    }

    /**
     * Insert a line, choosing a victim if the set is full.
     *
     * @param want the new line contents (valid is forced true)
     * @param now current time, recorded as LRU timestamp
     * @param pin_speculative if true, speculative-dirty frames cannot
     *        be victims; insertion fails when all frames are pinned.
     */
    InsertResult insert(const CacheLineState &want, Cycle now,
                        bool pin_speculative = false);

    /**
     * True if insert() would find a frame for @p line (used to detect
     * the stall condition when speculative lines are pinned).
     */
    bool canInsert(Addr line, bool pin_speculative);

    /** Invalidate one frame (no write-back; the engine handles data). */
    void invalidate(CacheLineState *frame);

    /** Invalidate the frame holding (line, version), if resident. */
    void invalidateVersion(Addr line, VersionTag version);

    /** Invalidate every frame. */
    void invalidateAll();

    /** Apply @p fn to every valid frame (mutation allowed). */
    void forEach(const std::function<void(CacheLineState &)> &fn);

    /** Count of valid frames. */
    std::size_t residentLines() const;

    /** Number of valid frames whose line address equals @p line. */
    unsigned versionsResident(Addr line);

  private:
    CacheGeometry geo_;
    bool multiVersion_;
    Addr setMask_; // numSets - 1
    std::vector<CacheLineState> frames_; // numSets * assoc

    CacheLineState *setBase(Addr line);
    static int evictClass(const CacheLineState &frame);
};

} // namespace tlsim::mem

#endif // TLSIM_MEM_CACHE_HPP
