/**
 * @file
 * Shared-queue thread pool and data-parallel helpers for the experiment
 * harness.
 *
 * Every reproduction figure iterates embarrassingly-parallel
 * (service x config x policy) cells; this is the fan-out primitive they
 * share. Scheduling is chunked self-scheduling: workers pull the next
 * index from a shared atomic counter, so load balances dynamically while
 * results land in caller-owned, index-addressed slots -- output is
 * bit-identical to the serial order regardless of worker count or
 * interleaving.
 *
 * Thread-count resolution (first match wins):
 *   1. an explicit `threads` argument > 0,
 *   2. a process-wide override installed with setDefaultThreads(),
 *   3. the SIMR_THREADS environment variable,
 *   4. std::thread::hardware_concurrency().
 *
 * A resolved count of 1 falls back to a plain serial loop on the calling
 * thread: no threads are spawned, so single-threaded runs behave exactly
 * as before the harness existed (same stack, same debugger experience).
 */

#ifndef SIMR_COMMON_PARALLEL_H
#define SIMR_COMMON_PARALLEL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.h"

namespace simr
{

/** Usable hardware threads (>= 1 even when the runtime reports 0). */
int hardwareThreads();

/**
 * Worker count used when a call site passes threads = 0: the
 * setDefaultThreads() override if set, else SIMR_THREADS, else
 * hardwareThreads().
 */
int defaultThreads();

/**
 * Install a process-wide worker-count override (config file / CLI flag
 * plumbing). Pass 0 to clear it and fall back to SIMR_THREADS.
 */
void setDefaultThreads(int threads);

/**
 * Fixed-size pool of worker threads draining one shared task queue.
 *
 * Tasks run in submission order (pickup order; completion order is
 * scheduling-dependent). The first exception a task throws is captured
 * and rethrown from wait(); later exceptions in the same batch are
 * dropped. The destructor drains the queue and joins the workers.
 */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 resolves via defaultThreads(). */
    explicit ThreadPool(int threads = 0);

    /** Drains remaining tasks, joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one task. Must not be called after shutdown(). */
    void run(std::function<void()> task);

    /**
     * Block until every queued task has finished; rethrow the first
     * captured task exception (clearing it, so the pool stays usable).
     */
    void wait();

    /**
     * Drain the queue and join the workers. Idempotent; called by the
     * destructor. Pending task exceptions are dropped (wait() is the
     * reporting channel).
     */
    void shutdown();

    int threads() const { return nthreads_; }

  private:
    void workerLoop();

    int nthreads_ = 1;
    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mu_;
    std::condition_variable workCv_;   ///< queue became non-empty / stop
    std::condition_variable idleCv_;   ///< outstanding_ hit zero
    size_t outstanding_ = 0;           ///< queued + running tasks
    bool stopping_ = false;
    std::exception_ptr firstError_;
};

/**
 * Run body(i) for i in [0, n), fanning out over `threads` workers
 * (0 = defaultThreads()). Indices are claimed from a shared atomic
 * counter, one at a time -- the intended grain is a coarse experiment
 * cell, not an array element. Serial at a resolved count of 1.
 *
 * The first exception thrown by any body is rethrown on the caller;
 * remaining workers stop claiming new indices once it is recorded.
 */
void parallelFor(size_t n, const std::function<void(size_t)> &body,
                 int threads = 0);

/**
 * Sense-reversing centralized spin barrier for a fixed party count.
 *
 * The PDES engine synchronizes its shard workers at every lookahead
 * window; a condition-variable barrier would cost a syscall per window
 * per worker, which dominates at tens of thousands of windows per run.
 * arriveAndWait() spins briefly and then yields, so oversubscribed runs
 * (more workers than cores) still make progress instead of burning a
 * whole scheduling quantum per arrival.
 *
 * Memory ordering: everything written by a thread before it arrives is
 * visible to every thread after the barrier releases (the generation
 * bump is a release store observed with acquire loads), so plain data
 * handed across a barrier needs no extra synchronization.
 */
class SpinBarrier
{
  public:
    explicit SpinBarrier(int parties) : parties_(parties)
    {
        simr_assert(parties >= 1, "barrier needs >= 1 parties");
    }

    SpinBarrier(const SpinBarrier &) = delete;
    SpinBarrier &operator=(const SpinBarrier &) = delete;

    void
    arriveAndWait()
    {
        if (parties_ == 1)
            return;
        uint64_t gen = generation_.load(std::memory_order_acquire);
        if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            parties_) {
            count_.store(0, std::memory_order_relaxed);
            generation_.fetch_add(1, std::memory_order_release);
            return;
        }
        int spins = 0;
        while (generation_.load(std::memory_order_acquire) == gen) {
            if (++spins > 128) {
                std::this_thread::yield();
                spins = 0;
            }
        }
    }

  private:
    const int parties_;
    alignas(64) std::atomic<int> count_{0};
    alignas(64) std::atomic<uint64_t> generation_{0};
};

/**
 * Map fn over items, returning results in input order regardless of the
 * execution interleaving. fn must be safe to call concurrently.
 */
template <typename T, typename F>
auto
parallelMap(const std::vector<T> &items, F fn, int threads = 0)
    -> std::vector<decltype(fn(items.front()))>
{
    std::vector<decltype(fn(items.front()))> out(items.size());
    parallelFor(items.size(),
                [&](size_t i) { out[i] = fn(items[i]); }, threads);
    return out;
}

} // namespace simr

#endif // SIMR_COMMON_PARALLEL_H
