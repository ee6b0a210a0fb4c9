/**
 * @file
 * Fatal-error reporting for the simulator.
 *
 * Follows the gem5 split between conditions that are the user's fault
 * (fatal) and conditions that are a simulator bug (panic).
 */

#ifndef TLSIM_COMMON_LOG_HPP
#define TLSIM_COMMON_LOG_HPP

#include <cstdio>
#include <cstdlib>
#include <string>

namespace tlsim {

/**
 * Terminate with an error that is the *user's* fault (bad configuration,
 * impossible parameter combination). Exits with status 1.
 */
[[noreturn]] void fatal(const std::string &msg);

/**
 * Terminate because of an internal simulator bug (broken invariant).
 * Aborts so that a debugger/core dump can capture the state.
 */
[[noreturn]] void panic(const std::string &msg);

} // namespace tlsim

#endif // TLSIM_COMMON_LOG_HPP
