/**
 * @file
 * Shared building blocks of the system-level simulators: the
 * rate-and-latency service station (the per-server actor state) and
 * the batch-formation pass, extracted from the monolithic uqsim loop
 * so the single-graph scenario (uqsim.cc) and the sharded cluster
 * engine (cluster.cc) model tiers with the same arithmetic.
 */

#ifndef SIMR_SYS_STATION_H
#define SIMR_SYS_STATION_H

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"
#include "obs/trace.h"

namespace simr::sys
{

/**
 * A rate-and-latency service station with FIFO fluid queueing: a group
 * of n requests occupies n/rate of capacity and observes `latency` of
 * service time, plus whatever queueing delay the backlog causes. One
 * Station is the whole mutable state of a simulated server node, so a
 * cluster of thousands of servers is just a vector of these.
 */
class Station
{
  public:
    Station(const char *name, int tid, double rate_per_us,
            double latency_us)
        : name_(name), tid_(tid), rate_(rate_per_us),
          latency_(latency_us)
    {
        simr_assert(rate_ > 0, "station rate must be positive");
    }

    /**
     * Serve n requests arriving at time t; returns completion time.
     * Records queueing wait and occupancy into `wait`/`service` and,
     * when a tracer is in scope, emits the service-occupancy span
     * (occupancy spans never overlap, so each tier renders as one
     * clean track).
     */
    double
    process(double t, int n, RunningStat &wait, RunningStat &service,
            obs::Tracer *tr, int pid, double *start_out = nullptr)
    {
        double start = std::max(t, nextFree_);
        double occupancy = static_cast<double>(n) / rate_;
        nextFree_ = start + occupancy;
        wait.add(start - t);
        service.add(occupancy);
        if (start_out)
            *start_out = start;
        if (tr) {
            tr->complete(
                name_, "sys", start, occupancy, pid, tid_,
                {{"n", obs::jnum(static_cast<uint64_t>(n))},
                 {"wait_us", obs::jnum(start - t)},
                 {"latency_us", obs::jnum(latency_)}});
        }
        return start + latency_;
    }

    /** Consume extra capacity (split-orphan re-execution cost). */
    void
    charge(double request_equivalents)
    {
        nextFree_ += request_equivalents / rate_;
    }

    double latencyUs() const { return latency_; }

  private:
    const char *name_;
    int tid_;
    double rate_;
    double latency_;
    double nextFree_ = 0;
};

/** One formed batch: the half-open index range [begin, end) into the
 *  sorted arrival array it was formed from, and its emit time. */
struct BatchWindow
{
    size_t begin = 0;
    size_t end = 0;
    double emitTime = 0;
};

/**
 * Batch formation (size or timeout) over `n` time-sorted arrivals,
 * `time(i)` being arrival i: a batch emits when it reaches `bsize`
 * requests or when its window (opened by its first arrival,
 * `timeout_us` wide) closes. Calls `emit(begin, end, emitTime)` once
 * per batch, in order, for the half-open arrival range [begin, end).
 * bsize == 1 degenerates to one batch per request emitting at its
 * arrival -- the CPU systems' path. Pure function of its inputs, so
 * the sequential and sharded engines form identical batches.
 */
template <class Time, class Emit>
void
forEachBatchWindow(size_t n, int bsize, double timeout_us, Time time,
                   Emit emit)
{
    if (bsize <= 1) {
        for (size_t i = 0; i < n; ++i)
            emit(i, i + 1, time(i));
        return;
    }
    for (size_t i = 0; i < n;) {
        const size_t begin = i;
        double window_end = time(i) + timeout_us;
        while (i < n && i - begin < static_cast<size_t>(bsize) &&
               (i == begin || time(i) <= window_end)) {
            ++i;
        }
        double last = time(i - 1);
        emit(begin, i, i - begin == static_cast<size_t>(bsize) ?
             last : std::min(window_end, last + timeout_us));
    }
}

/** forEachBatchWindow over an arrival array, collected as windows. */
inline std::vector<BatchWindow>
formBatchWindows(const double *times, size_t n, int bsize,
                 double timeout_us)
{
    std::vector<BatchWindow> out;
    if (bsize <= 1)
        out.reserve(n);
    forEachBatchWindow(
        n, bsize, timeout_us, [times](size_t i) { return times[i]; },
        [&out](size_t begin, size_t end, double emit) {
            out.push_back({begin, end, emit});
        });
    return out;
}

} // namespace simr::sys

#endif // SIMR_SYS_STATION_H
