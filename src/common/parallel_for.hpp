/**
 * @file
 * The simulator's one thread fan-out: run fn(0..n-1) over a few worker
 * threads, for coarse-grained, embarrassingly parallel sweeps.
 *
 * Each sweep point is an independent simulation with no shared mutable
 * state, so a sweep can spread its points over threads and still
 * produce byte-identical results at any thread count: every index
 * writes only into its own pre-allocated result slot, and the caller
 * reads the slots in a fixed order once parallelFor returns.
 *
 * With one thread (or one index) the indices run inline, in order, on
 * the calling thread, which makes the single-threaded path literally
 * sequential — the baseline the determinism tests compare against.
 */

#ifndef TLSIM_COMMON_PARALLEL_FOR_HPP
#define TLSIM_COMMON_PARALLEL_FOR_HPP

#include <cstddef>
#include <functional>

namespace tlsim {

/** Most worker threads any sweep uses. */
constexpr unsigned kMaxSweepThreads = 256;

/**
 * Number of worker threads to use when the caller does not say.
 *
 * Resolution order: the TLSIM_THREADS environment variable (clamped to
 * [1, kMaxSweepThreads]) if set and parseable, otherwise the hardware
 * concurrency, otherwise 1.
 */
unsigned defaultThreadCount();

/** Resolve a user-supplied thread count: 0 means defaultThreadCount();
 *  anything else is clamped to [1, kMaxSweepThreads]. */
unsigned resolveThreadCount(unsigned threads);

/**
 * Run fn(0..n-1) across up to @p threads workers and block until all
 * indices completed.
 *
 * Workers claim indices in ascending order from a shared counter, but
 * interleaving across workers is unspecified; determinism therefore
 * requires fn(i) to write only to state owned by index i. The calling
 * thread is worker 0, and no more than n workers run. threads = 0
 * uses defaultThreadCount(); threads = 1 (or n <= 1) runs every index
 * in order on the calling thread. If some fn(i) throw, every other
 * index still runs and the first exception is rethrown once all have
 * finished.
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
                 unsigned threads = 0);

} // namespace tlsim

#endif // TLSIM_COMMON_PARALLEL_FOR_HPP
