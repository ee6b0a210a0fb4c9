/**
 * @file
 * Banked main-memory (and CMP L3) timing model.
 */

#ifndef TLSIM_MEM_MEMORY_BANKS_HPP
#define TLSIM_MEM_MEMORY_BANKS_HPP

#include <vector>

#include "common/resource.hpp"
#include "common/types.hpp"

namespace tlsim::mem {

/**
 * A set of independently contended banks. Zero-load latency lives in
 * the machine latency table; this class only adds queueing delay.
 */
class MemoryBanks
{
  public:
    MemoryBanks(unsigned banks, Cycle occupancy)
        : banks_(banks), occupancy_(occupancy)
    {}

    /** Reserve @p bank at @p when; @return queueing delay. */
    Cycle
    access(unsigned bank, Cycle when)
    {
        return banks_[bank % banks_.size()].acquire(when, occupancy_);
    }

  private:
    std::vector<Resource> banks_;
    Cycle occupancy_;
};

} // namespace tlsim::mem

#endif // TLSIM_MEM_MEMORY_BANKS_HPP
