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
#include <cstddef>
#include <cstdint>
#include <tuple>
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

/** A bucket of sortArrivals holding more arrivals than this is sorted
 *  by std::stable_sort rather than by insertion. */
inline constexpr size_t kArrivalBucketLimit = 32;

/**
 * Put one web server's `n` arrivals in (time, reqId) order: `time[i]`
 * is arrival i (finite, non-negative), `id[i]` its request id, and the
 * slice comes filled in ascending id order. The sort is stable on time
 * alone, so ties keep id order and the result is what std::sort of
 * (time, id) pairs gives, without building the pairs. A bucket sort:
 * n equal-width buckets span [min, max] under a monotone map (a later
 * time never lands in an earlier bucket). A counting pass sizes the
 * buckets and a stable scatter fills them in slice order; buckets of
 * more than kArrivalBucketLimit arrivals (bunched times) are then
 * stable-sorted, and one insertion pass orders the rest, whose moves
 * never cross a bucket boundary. Scratch is 16 bytes per arrival. A
 * slice already in time order (a server fed by one client) returns
 * untouched.
 */
inline void
sortArrivals(double *time, uint32_t *id, size_t n)
{
    if (std::is_sorted(time, time + n))
        return;
    const auto [lo_at, hi_at] = std::minmax_element(time, time + n);
    const double lo = *lo_at;
    // Unsorted, so hi > lo. A sub-normal span would overflow the scale;
    // capped, it puts every arrival in the first bucket.
    const double scale =
        std::min(static_cast<double>(n) / (*hi_at - lo), 0x1p1000);
    auto bucket = [lo, scale, n](double t) {
        return std::min(n - 1, static_cast<size_t>((t - lo) * scale));
    };
    // at[b]: bucket b's size, then its next free slot, then its end.
    std::vector<uint32_t> at(n, 0);
    for (size_t i = 0; i < n; ++i)
        ++at[bucket(time[i])];
    bool crowded = false;
    uint32_t run = 0;
    for (size_t b = 0; b < n; ++b) {
        crowded |= at[b] > kArrivalBucketLimit;
        run += std::exchange(at[b], run);
    }
    const std::vector<double> tsrc(time, time + n);
    const std::vector<uint32_t> isrc(id, id + n);
    for (size_t i = 0; i < n; ++i) {
        const uint32_t slot = at[bucket(tsrc[i])]++;
        time[slot] = tsrc[i];
        id[slot] = isrc[i];
    }
    if (crowded) {
        std::vector<std::pair<double, uint32_t>> v;
        for (size_t b = 0, begin = 0; b < n; begin = at[b++]) {
            if (at[b] - begin <= kArrivalBucketLimit)
                continue;
            v.clear();
            for (size_t i = begin; i < at[b]; ++i)
                v.push_back({time[i], id[i]});
            std::stable_sort(v.begin(), v.end(),
                             [](const auto &x, const auto &y) {
                                 return x.first < y.first;
                             });
            for (size_t i = begin; i < at[b]; ++i)
                std::tie(time[i], id[i]) = v[i - begin];
        }
    }
    for (size_t i = 1; i < n; ++i) {
        const double t = time[i];
        if (!(t < time[i - 1]))
            continue;
        const uint32_t r = id[i];
        size_t j = i;
        do {
            time[j] = time[j - 1];
            id[j] = id[j - 1];
        } while (--j > 0 && t < time[j - 1]);
        time[j] = t;
        id[j] = r;
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
