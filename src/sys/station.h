/**
 * @file
 * Building blocks of the system simulator (cluster.cc): the
 * rate-and-latency service station (the per-server actor state), the
 * time sort of a server's arrivals and the batch-formation pass over
 * them.
 */

#ifndef SIMR_SYS_STATION_H
#define SIMR_SYS_STATION_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
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
 * Put one web server's `n` arrivals in (time, reqId) order: `time[i]`
 * is arrival i, `id[i]` its request id, and the slice comes filled in
 * ascending id order. The sort is stable on time alone, so ties keep
 * id order and the result is what std::sort of (time, id) pairs gives,
 * without building the pairs. An LSD radix sort on the bits of the
 * times (non-negative doubles order like their bit patterns), one byte
 * a pass, skipping each byte every time shares; scratch is the slice's
 * size. A slice already in time order (a server fed by one client)
 * returns untouched.
 */
inline void
sortArrivals(double *time, uint32_t *id, size_t n)
{
    if (std::is_sorted(time, time + n))
        return;
    auto bits = [](double t) { return std::bit_cast<uint64_t>(t); };
    constexpr int kPasses = 8;
    uint32_t count[kPasses][256] = {};
    for (size_t i = 0; i < n; ++i) {
        uint64_t u = bits(time[i]);
        for (int d = 0; d < kPasses; ++d)
            ++count[d][(u >> (8 * d)) & 255];
    }
    std::vector<double> tbuf(n);
    std::vector<uint32_t> ibuf(n);
    double *ts = time, *td = tbuf.data();
    uint32_t *is = id, *idst = ibuf.data();
    for (int d = 0; d < kPasses; ++d) {
        uint32_t *c = count[d];
        const int shift = 8 * d;
        if (c[(bits(ts[0]) >> shift) & 255] == n)
            continue;
        uint32_t run = 0;
        for (int b = 0; b < 256; ++b)
            run += std::exchange(c[b], run);
        for (size_t i = 0; i < n; ++i) {
            uint32_t at = c[(bits(ts[i]) >> shift) & 255]++;
            td[at] = ts[i];
            idst[at] = is[i];
        }
        std::swap(ts, td);
        std::swap(is, idst);
    }
    if (ts != time) {
        std::copy(ts, ts + n, time);
        std::copy(is, is + n, id);
    }
}

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
