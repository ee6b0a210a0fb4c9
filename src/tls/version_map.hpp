/**
 * @file
 * Global version bookkeeping: for every line touched under speculation,
 * which versions exist, who produced them, and where their data lives.
 *
 * This is the simulator's omniscient view of the distributed version
 * state (MROB or MHB plus memory). Real machines reconstruct this
 * information with the CTID/CRL/VCL/MTID supports; the engine charges
 * the corresponding latencies, while this map answers the questions
 * exactly. The simulator tracks no data values: a version is pure
 * metadata (see DESIGN.md).
 */

#ifndef TLSIM_TLS_VERSION_MAP_HPP
#define TLSIM_TLS_VERSION_MAP_HPP

#include <cstdint>

#include "common/flat_map.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "mem/version_tag.hpp"

namespace tlsim::tls {

/** Where the data of one version can be found. */
struct VersionInfo {
    mem::VersionTag tag;
    std::uint8_t writeMask = 0;
    /** Producing task has committed. */
    bool committed = false;
    /** Main memory holds this version (authoritative copy). */
    bool inMemory = false;
    /** Processor whose L2 holds the dirty authoritative copy. */
    ProcId cacheOwner = kNoProc;
    /** The copy lives in cacheOwner's overflow area, not its L2. */
    bool inOverflow = false;
    /** A backup copy exists in some processor's MHB (undo log). */
    bool inMhb = false;
    ProcId mhbProc = kNoProc;

    bool
    reachable() const
    {
        return inMemory || cacheOwner != kNoProc || inMhb;
    }
};

/**
 * Per-line version list.
 *
 * Inline storage for two versions: almost every line has one producer
 * plus at most the architectural-successor version, so the common case
 * allocates nothing. Heavily multi-versioned lines (the P3m pattern)
 * spill to the heap transparently.
 */
using VersionList = SmallVec<VersionInfo, 2>;

/**
 * Versions of all lines, ordered by producer within each line.
 *
 * The line→versions index is an open-addressed FlatMap: one probe per
 * access instead of a node chase, and squash-time line removals shift
 * in place instead of freeing nodes. Pointers and list references are
 * invalidated by create()/remove() on *any* line (the table may grow
 * or backward-shift); callers already refetch after structural calls.
 * The *In() statics let the engine resolve several questions from one
 * listOf() probe on the hot path.
 */
class VersionMap
{
  public:
    /**
     * The youngest version with producer <= @p reader, or nullptr when
     * the reader should see the architectural/pre-section state.
     */
    VersionInfo *latestVisible(Addr line, TaskId reader);

    /** The version with exactly @p tag, or nullptr. */
    VersionInfo *find(Addr line, mem::VersionTag tag);

    /** The version currently held by main memory, or nullptr (arch). */
    VersionInfo *memoryHolder(Addr line);

    /** The youngest committed version of @p line, or nullptr. */
    VersionInfo *latestCommitted(Addr line);

    /**
     * Word-granularity visibility for violation detection: producer of
     * the youngest version <= @p reader that wrote the word selected
     * by @p word_bit, or 0 (architectural).
     */
    TaskId latestWordWriter(Addr line, std::uint8_t word_bit,
                            TaskId reader);

    /** All versions of @p line (ascending producer). */
    VersionList &versionsOf(Addr line);

    /** @p line's list without inserting, or nullptr if untracked. */
    VersionList *
    listOf(Addr line)
    {
        return lines_.find(line);
    }

    /** latestVisible over an already-fetched list. */
    static VersionInfo *
    latestVisibleIn(VersionList &list, TaskId reader)
    {
        for (auto rit = list.rbegin(); rit != list.rend(); ++rit) {
            if (rit->tag.producer <= reader)
                return &*rit;
        }
        return nullptr;
    }

    /** find over an already-fetched list. */
    static VersionInfo *
    findIn(VersionList &list, mem::VersionTag tag)
    {
        for (auto &v : list) {
            if (v.tag == tag)
                return &v;
        }
        return nullptr;
    }

    /** latestWordWriter over an already-fetched list. */
    static TaskId
    latestWordWriterIn(const VersionList &list, std::uint8_t word_bit,
                       TaskId reader)
    {
        for (auto rit = list.rbegin(); rit != list.rend(); ++rit) {
            if (rit->tag.producer <= reader && (rit->writeMask & word_bit))
                return rit->tag.producer;
        }
        return 0;
    }

    /** True if any version of @p line exists. */
    bool
    anyVersion(Addr line) const
    {
        return lines_.contains(line);
    }

    /**
     * Create a version (keeps the per-line vector sorted by producer).
     * @pre no version with the same producer exists for the line.
     */
    VersionInfo &create(Addr line, mem::VersionTag tag, ProcId owner);

    /** Remove the version with @p tag (squash). No-op if absent. */
    void remove(Addr line, mem::VersionTag tag);

    /**
     * Apply @p fn(Addr, VersionInfo &) to every (line, version) pair.
     * No structural calls from inside @p fn.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        lines_.forEach([&fn](const Addr &line, VersionList &vec) {
            for (auto &v : vec)
                fn(line, v);
        });
    }

    /** Number of lines with at least one version. */
    std::size_t linesTracked() const { return lines_.size(); }

    /** Total versions across all lines. */
    std::size_t totalVersions() const { return totalVersions_; }

    void clear();

  private:
    FlatMap<Addr, VersionList> lines_;
    std::size_t totalVersions_ = 0;
};

} // namespace tlsim::tls

#endif // TLSIM_TLS_VERSION_MAP_HPP
