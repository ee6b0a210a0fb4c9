/**
 * @file
 * Cache geometry and address decomposition helpers.
 */

#ifndef TLSIM_MEM_GEOMETRY_HPP
#define TLSIM_MEM_GEOMETRY_HPP

#include <cstdint>

#include "common/types.hpp"

namespace tlsim::mem {

/** Line size used throughout the machine (paper: 64-byte lines). */
inline constexpr unsigned kLineBytes = 64;
/** Word size for version/violation tracking (Fortran double). */
inline constexpr unsigned kWordBytes = 8;
/** Words per line. */
inline constexpr unsigned kWordsPerLine = kLineBytes / kWordBytes;

/** Line-aligned address of a byte address. */
inline Addr lineAddr(Addr addr) { return addr / kLineBytes; }

/** Word index of a byte address within its line (0..7). */
inline unsigned
wordIndex(Addr addr)
{
    return unsigned((addr / kWordBytes) % kWordsPerLine);
}

/** Global word address (line-crossing-free word id). */
inline Addr wordAddr(Addr addr) { return addr / kWordBytes; }

/** Bitmask with only the bit for @p addr's word set. */
inline std::uint8_t
wordBit(Addr addr)
{
    return std::uint8_t(1u << wordIndex(addr));
}

/**
 * Set-associative cache geometry.
 */
struct CacheGeometry {
    std::uint64_t sizeBytes = 0;
    unsigned assoc = 1;

    unsigned
    numSets() const
    {
        return unsigned(sizeBytes / (std::uint64_t(kLineBytes) * assoc));
    }

    static CacheGeometry
    of(std::uint64_t size_bytes, unsigned assoc)
    {
        return CacheGeometry{size_bytes, assoc};
    }
};

} // namespace tlsim::mem

#endif // TLSIM_MEM_GEOMETRY_HPP
