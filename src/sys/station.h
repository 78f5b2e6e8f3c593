/**
 * @file
 * Building blocks of the system simulator (cluster.cc): the
 * rate-and-latency service station (the per-server actor state) and
 * the batch-formation pass over a server's time-sorted arrivals.
 */

#ifndef SIMR_SYS_STATION_H
#define SIMR_SYS_STATION_H

#include <algorithm>
#include <cstddef>

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
     * given a tracer, emits the service-occupancy span on this
     * station's track (occupancy spans never overlap, so each server
     * renders as one clean track).
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
        if (tr)
            traceService(tr, pid, t, start, occupancy, n);
        return start + latency_;
    }

    /** Consume extra capacity (split-orphan re-execution cost). */
    void
    charge(double request_equivalents)
    {
        nextFree_ += request_equivalents / rate_;
    }

  private:
    /** The service-occupancy span, kept out of line so the untraced
     *  hot path stays small. */
    [[gnu::noinline]] void
    traceService(obs::Tracer *tr, int pid, double t, double start,
                 double occupancy, int n) const
    {
        tr->complete(name_, "sys", start, occupancy, pid, tid_,
                     {{"n", obs::jnum(static_cast<uint64_t>(n))},
                      {"wait_us", obs::jnum(start - t)},
                      {"latency_us", obs::jnum(latency_)}});
    }

    const char *name_;
    int tid_;
    double rate_;
    double latency_;
    double nextFree_ = 0;
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

} // namespace simr::sys

#endif // SIMR_SYS_STATION_H
