/**
 * @file
 * Memory Task ID (MTID) support: per-line task-ID tags in main memory.
 *
 * In FMM (and as one implementation option in Lazy AMM), main memory
 * keeps, for each line under speculation, the task ID of the version
 * it currently holds, and selectively *rejects* write-backs that carry
 * an earlier version (Zhang99&T). The simulator uses this table in all
 * schemes as the authoritative record of what main memory holds; the
 * reject logic is only exercised where the scheme provides MTID.
 */

#ifndef TLSIM_MEM_MTID_TABLE_HPP
#define TLSIM_MEM_MTID_TABLE_HPP

#include <cstdint>

#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "mem/version_tag.hpp"

namespace tlsim::mem {

/**
 * Task-ID tags for main memory lines. Lines never written under
 * speculation implicitly hold the architectural version.
 */
class MtidTable
{
  public:
    /** Version currently held by main memory for @p line. */
    VersionTag
    versionOf(Addr line) const
    {
        const VersionTag *tag = tags_.find(line);
        return tag ? *tag : VersionTag::arch();
    }

    /**
     * MTID comparison: would memory accept a write-back of @p incoming?
     * Accepts same-or-newer producers; an equal producer with a new
     * incarnation (re-execution after squash) is also accepted.
     */
    bool
    wouldAccept(Addr line, VersionTag incoming) const
    {
        VersionTag cur = versionOf(line);
        if (incoming.producer > cur.producer)
            return true;
        if (incoming.producer == cur.producer &&
            incoming.incarnation >= cur.incarnation)
            return true;
        return false;
    }

    /**
     * Record a write-back, honoring the MTID check.
     * @return true if accepted, false if rejected (discarded).
     */
    bool
    writeBack(Addr line, VersionTag incoming)
    {
        if (!wouldAccept(line, incoming)) {
            ++rejects_;
            return false;
        }
        set(line, incoming);
        ++accepts_;
        return true;
    }

    /** Force-set (recovery restore path; bypasses the check). */
    void
    set(Addr line, VersionTag version)
    {
        if (version.isArch())
            tags_.erase(line);
        else
            tags_.insertOrAssign(line, version);
    }

    std::uint64_t accepts() const { return accepts_; }
    std::uint64_t rejects() const { return rejects_; }
    std::size_t taggedLines() const { return tags_.size(); }

    /**
     * Cap the tag store at @p lines entries: the MTID table is a
     * fixed hardware structure on the scaled machines, so outgrowing
     * it must panic, never silently reallocate. The store still grows
     * on demand below the cap. 0 = no cap.
     */
    void limitCapacity(std::size_t lines) { tags_.limitCapacity(lines); }

    void
    clear()
    {
        tags_.clear();
        accepts_ = 0;
        rejects_ = 0;
    }

  private:
    FlatMap<Addr, VersionTag> tags_;
    std::uint64_t accepts_ = 0;
    std::uint64_t rejects_ = 0;
};

} // namespace tlsim::mem

#endif // TLSIM_MEM_MTID_TABLE_HPP
