#include "common/parallel.h"

#include <exception>

#include "common/config.h"
#include "common/logging.h"

namespace simr
{

int
hardwareThreads()
{
    unsigned hc = std::thread::hardware_concurrency();
    return hc > 0 ? static_cast<int>(hc) : 1;
}

int
defaultThreads()
{
    int64_t env = envInt("SIMR_THREADS", 0, 0);
    if (env > 0)
        return static_cast<int>(env);
    return hardwareThreads();
}

void
parallelFor(size_t n, const std::function<void(size_t)> &body,
            int threads)
{
    if (n == 0)
        return;
    int t = threads > 0 ? threads : defaultThreads();
    if (t > static_cast<int>(n))
        t = static_cast<int>(n);
    if (t <= 1) {
        // Serial fallback: same thread, same order, no workers.
        for (size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    // Self-scheduling: each worker claims indices from the shared
    // counter until the range is exhausted or a body has thrown.
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;  // written by the first body to throw
    auto work = [&] {
        size_t i;
        while (!failed.load(std::memory_order_relaxed) &&
               (i = next.fetch_add(1, std::memory_order_relaxed)) < n) {
            try {
                body(i);
            } catch (...) {
                if (!failed.exchange(true, std::memory_order_relaxed))
                    first_error = std::current_exception();
            }
        }
    };
    {
        // A jthread joins on destruction, so the workers are joined
        // before the state they share goes, even if starting one fails.
        std::vector<std::jthread> workers;
        workers.reserve(static_cast<size_t>(t));
        for (int w = 0; w < t; ++w)
            workers.emplace_back(work);
    }
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace simr
