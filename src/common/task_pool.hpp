/**
 * @file
 * A small thread-pool job scheduler for coarse-grained, embarrassingly
 * parallel simulation sweeps.
 *
 * Each (app, scheme, replication) point of a study is an independent
 * simulation with no shared mutable state, so the sweep layer can fan
 * points out across worker threads and still produce byte-identical
 * results at any thread count: every job writes only into its own
 * pre-allocated result slot, and the caller aggregates slots in a
 * fixed sweep order after wait().
 *
 * The pool deliberately stays tiny: submit() + wait(), no futures, no
 * work stealing. With one thread (or zero workers) jobs run inline on
 * the calling thread, which makes the single-threaded path literally
 * sequential — the baseline the determinism tests compare against.
 */

#ifndef TLSIM_COMMON_TASK_POOL_HPP
#define TLSIM_COMMON_TASK_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tlsim {

/**
 * Number of worker threads to use when the caller does not say.
 *
 * Resolution order: the TLSIM_THREADS environment variable (clamped to
 * [1, 256]) if set and parseable, otherwise the hardware concurrency,
 * otherwise 1.
 */
unsigned defaultThreadCount();

/** Resolve a user-supplied thread count: 0 means defaultThreadCount(). */
unsigned resolveThreadCount(unsigned threads);

/**
 * Fixed-size pool of worker threads draining a FIFO job queue.
 *
 * Thread-safety: submit() and wait() may be called from the owning
 * thread; jobs run on worker threads and must not touch shared mutable
 * state unless they synchronize it themselves. If a job throws, the
 * first exception is captured and rethrown from wait() (remaining jobs
 * still run, so result slots stay consistent).
 */
class TaskPool
{
  public:
    /** @param threads worker count; 0 = defaultThreadCount(). A pool
     *  with one thread runs jobs inline in submit(). */
    explicit TaskPool(unsigned threads = 0);
    ~TaskPool();

    TaskPool(const TaskPool &) = delete;
    TaskPool &operator=(const TaskPool &) = delete;

    /** Enqueue a job. Inline pools execute it before returning. */
    void submit(std::function<void()> job);

    /** Block until every submitted job has finished; rethrows the
     *  first job exception, if any. The pool is reusable afterwards. */
    void wait();

    /** Resolved worker count (>= 1; 1 means inline execution). */
    unsigned threadCount() const { return threads_; }

  private:
    void workerLoop();
    void recordError(std::exception_ptr err);

    unsigned threads_;
    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mu_;
    std::condition_variable jobReady_;
    std::condition_variable allDone_;
    std::size_t pending_ = 0; ///< queued + currently running jobs
    bool stopping_ = false;
    std::exception_ptr firstError_;
};

/**
 * Run fn(0..n-1) across up to @p threads workers and block until all
 * indices completed.
 *
 * Index order within a worker is monotone but interleaving across
 * workers is unspecified; determinism therefore requires fn(i) to
 * write only to state owned by index i. threads = 0 uses
 * defaultThreadCount(); threads = 1 (or n <= 1) runs inline in index
 * order. Rethrows the first exception thrown by any fn(i).
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
                 unsigned threads = 0);

} // namespace tlsim

#endif // TLSIM_COMMON_TASK_POOL_HPP
