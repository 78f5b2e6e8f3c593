/**
 * @file
 * Data-parallel helpers for the experiment harness, and the spin
 * barrier of the PDES kernel.
 *
 * Every reproduction figure iterates embarrassingly-parallel
 * (service x config x policy) cells; parallelFor is the fan-out
 * primitive they share. It starts plain threads for one call and joins
 * them before it returns. Scheduling is self-scheduling: workers claim
 * the next index from a shared atomic counter, so load balances
 * dynamically while results land in caller-owned, index-addressed
 * slots -- output is bit-identical to the serial order regardless of
 * worker count or interleaving.
 *
 * Thread-count resolution (first match wins):
 *   1. an explicit `threads` argument > 0,
 *   2. the SIMR_THREADS environment variable,
 *   3. std::thread::hardware_concurrency().
 *
 * A resolved count of 1 falls back to a plain serial loop on the calling
 * thread: no threads are spawned, so single-threaded runs behave exactly
 * as before the harness existed (same stack, same debugger experience).
 * At more than one worker no body runs on the calling thread, so a body
 * never sees the caller's obs::Scope.
 */

#ifndef SIMR_COMMON_PARALLEL_H
#define SIMR_COMMON_PARALLEL_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/logging.h"

namespace simr
{

/** Usable hardware threads (>= 1 even when the runtime reports 0). */
int hardwareThreads();

/**
 * Worker count used when a call site passes threads = 0: SIMR_THREADS
 * if set and > 0, else hardwareThreads().
 */
int defaultThreads();

/**
 * Run body(i) for i in [0, n), fanning out over `threads` workers
 * (0 = defaultThreads()). Indices are claimed from a shared atomic
 * counter, one at a time -- the intended grain is a coarse experiment
 * cell, not an array element. Serial on the caller at a resolved count
 * of 1; otherwise every body runs on a worker thread started for this
 * call.
 *
 * The first exception thrown by any body is rethrown on the caller;
 * no worker claims a new index once a body has thrown.
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
