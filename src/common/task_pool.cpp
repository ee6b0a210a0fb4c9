#include "common/task_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

namespace tlsim {

unsigned
defaultThreadCount()
{
    if (const char *env = std::getenv("TLSIM_THREADS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1)
            return v > 256 ? 256u : unsigned(v);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1u;
}

unsigned
resolveThreadCount(unsigned threads)
{
    return threads ? threads : defaultThreadCount();
}

TaskPool::TaskPool(unsigned threads)
    : threads_(resolveThreadCount(threads))
{
    if (threads_ <= 1)
        return; // inline mode: no workers, submit() executes directly
    workers_.reserve(threads_);
    for (unsigned i = 0; i < threads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

TaskPool::~TaskPool()
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        stopping_ = true;
    }
    jobReady_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
TaskPool::submit(std::function<void()> job)
{
    if (workers_.empty()) {
        // Inline mode: run now, in submission order.
        try {
            job();
        } catch (...) {
            recordError(std::current_exception());
        }
        return;
    }
    {
        std::unique_lock<std::mutex> lock(mu_);
        queue_.push_back(std::move(job));
        ++pending_;
    }
    jobReady_.notify_one();
}

void
TaskPool::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    allDone_.wait(lock, [this] { return pending_ == 0; });
    if (firstError_) {
        std::exception_ptr err = firstError_;
        firstError_ = nullptr;
        std::rethrow_exception(err);
    }
}

void
TaskPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            jobReady_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping_ and drained
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        try {
            job();
        } catch (...) {
            recordError(std::current_exception());
        }
        {
            std::unique_lock<std::mutex> lock(mu_);
            if (--pending_ == 0)
                allDone_.notify_all();
        }
    }
}

void
TaskPool::recordError(std::exception_ptr err)
{
    std::unique_lock<std::mutex> lock(mu_);
    if (!firstError_)
        firstError_ = err;
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
            unsigned threads)
{
    unsigned workers = resolveThreadCount(threads);
    if (n <= 1 || workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    if (std::size_t(workers) > n)
        workers = unsigned(n);

    std::atomic<std::size_t> next{0};
    std::mutex err_mu;
    std::exception_ptr first_error;
    auto drain = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::unique_lock<std::mutex> lock(err_mu);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned t = 1; t < workers; ++t)
        pool.emplace_back(drain);
    drain(); // the calling thread is worker 0
    for (std::thread &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace tlsim
