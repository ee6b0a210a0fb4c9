#include "common/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace tlsim {

namespace {

unsigned
clampThreads(long threads)
{
    return unsigned(std::clamp(threads, 1L, long(kMaxSweepThreads)));
}

} // namespace

unsigned
defaultThreadCount()
{
    if (const char *env = std::getenv("TLSIM_THREADS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1)
            return clampThreads(v);
    }
    return clampThreads(long(std::thread::hardware_concurrency()));
}

unsigned
resolveThreadCount(unsigned threads)
{
    return threads ? clampThreads(long(threads)) : defaultThreadCount();
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
            unsigned threads)
{
    const std::size_t workers =
        std::min(std::size_t(resolveThreadCount(threads)), n);

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
    for (std::size_t t = 1; t < workers; ++t)
        pool.emplace_back(drain);
    drain(); // the calling thread is worker 0
    for (std::thread &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace tlsim
