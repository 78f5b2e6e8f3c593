#include "common/parallel.h"

#include "common/config.h"
#include "common/logging.h"

namespace simr
{

namespace
{

std::atomic<int> g_thread_override{0};

} // namespace

int
hardwareThreads()
{
    unsigned hc = std::thread::hardware_concurrency();
    return hc > 0 ? static_cast<int>(hc) : 1;
}

int
defaultThreads()
{
    int override = g_thread_override.load(std::memory_order_relaxed);
    if (override > 0)
        return override;
    int64_t env = envInt("SIMR_THREADS", 0, 0);
    if (env > 0)
        return static_cast<int>(env);
    return hardwareThreads();
}

void
setDefaultThreads(int threads)
{
    g_thread_override.store(threads > 0 ? threads : 0,
                            std::memory_order_relaxed);
}

ThreadPool::ThreadPool(int threads)
{
    nthreads_ = threads > 0 ? threads : defaultThreads();
    workers_.reserve(static_cast<size_t>(nthreads_));
    for (int i = 0; i < nthreads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    shutdown();
}

void
ThreadPool::run(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        simr_assert(!stopping_, "task submitted to a stopped pool");
        queue_.push_back(std::move(task));
        ++outstanding_;
    }
    workCv_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    idleCv_.wait(lock, [this] { return outstanding_ == 0; });
    if (firstError_) {
        std::exception_ptr err = firstError_;
        firstError_ = nullptr;
        lock.unlock();
        std::rethrow_exception(err);
    }
}

void
ThreadPool::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_ && workers_.empty())
            return;
        stopping_ = true;
    }
    workCv_.notify_all();
    for (auto &w : workers_)
        w.join();
    workers_.clear();
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
        workCv_.wait(lock,
                     [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) {
            // stopping_ with a drained queue: exit.
            return;
        }
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        lock.unlock();
        try {
            task();
        } catch (...) {
            std::lock_guard<std::mutex> guard(mu_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        lock.lock();
        if (--outstanding_ == 0)
            idleCv_.notify_all();
    }
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
        // Serial fallback: same thread, same order, no pool.
        for (size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    // Chunked self-scheduling: each pool task claims indices from the
    // shared counter until the range is exhausted or a peer failed.
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    ThreadPool pool(t);
    for (int w = 0; w < t; ++w) {
        pool.run([&] {
            size_t i;
            while (!failed.load(std::memory_order_relaxed) &&
                   (i = next.fetch_add(1, std::memory_order_relaxed)) <
                       n) {
                try {
                    body(i);
                } catch (...) {
                    failed.store(true, std::memory_order_relaxed);
                    throw;
                }
            }
        });
    }
    pool.wait();
}

} // namespace simr
