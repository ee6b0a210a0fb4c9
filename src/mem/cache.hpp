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

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

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
 *
 * Sets are built on first write: the frame array is allocated but not
 * constructed, and one bit per set records whether insert() has
 * constructed that set's frames. Lookups on a never-written set answer
 * from the bit (nothing resident, every frame free) without touching
 * frame memory, so a cache costs memory only for the sets a run uses.
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

    /** Invalidate the frame holding (line, version), if resident. */
    void invalidateVersion(Addr line, VersionTag version);

    /** Count of valid frames. */
    std::size_t residentLines() const;

    /** Number of valid frames whose line address equals @p line. */
    unsigned versionsResident(Addr line);

  private:
    struct FreeFrames {
        void operator()(CacheLineState *p) const noexcept
        {
            ::operator delete(p);
        }
    };

    CacheGeometry geo_;
    bool multiVersion_;
    Addr setMask_; // numSets - 1
    /** numSets * assoc frames of raw storage; a set's frames are
     *  constructed by its first insert. */
    std::unique_ptr<CacheLineState, FreeFrames> frames_;
    /** One bit per set: set the first time insert() builds it. */
    std::vector<std::uint64_t> built_;

    bool
    isBuilt(std::size_t set) const
    {
        return (built_[set >> 6] >> (set & 63)) & 1;
    }
    /** @p line's set, or nullptr if that set was never written. */
    CacheLineState *builtSet(Addr line);
    static int evictClass(const CacheLineState &frame);
};

} // namespace tlsim::mem

#endif // TLSIM_MEM_CACHE_HPP
