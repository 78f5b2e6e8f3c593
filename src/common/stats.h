/**
 * @file
 * Lightweight statistics containers used across the simulator: running
 * scalar statistics, percentile histograms, and named counter groups that
 * the energy model and benches consume.
 */

#ifndef SIMR_COMMON_STATS_H
#define SIMR_COMMON_STATS_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace simr
{

/** Streaming mean / min / max / variance over double samples. */
class RunningStat
{
  public:
    void
    add(double x)
    {
        ++n_;
        if (n_ == 1) {
            min_ = max_ = x;
            mean_ = x;
            m2_ = 0.0;
        } else {
            min_ = std::min(min_, x);
            max_ = std::max(max_, x);
            double delta = x - mean_;
            mean_ += delta / static_cast<double>(n_);
            m2_ += delta * (x - mean_);
        }
        sum_ += x;
    }

    uint64_t count() const { return n_; }
    double sum() const { return sum_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

    double
    variance() const
    {
        return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
    }

    void
    merge(const RunningStat &o)
    {
        if (o.n_ == 0)
            return;
        if (n_ == 0) {
            *this = o;
            return;
        }
        double delta = o.mean_ - mean_;
        uint64_t n = n_ + o.n_;
        mean_ += delta * static_cast<double>(o.n_) / static_cast<double>(n);
        m2_ += o.m2_ + delta * delta *
            static_cast<double>(n_) * static_cast<double>(o.n_) /
            static_cast<double>(n);
        min_ = std::min(min_, o.min_);
        max_ = std::max(max_, o.max_);
        sum_ += o.sum_;
        n_ = n;
    }

  private:
    uint64_t n_ = 0;
    double sum_ = 0.0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Sample reservoir with exact percentiles. Latency distributions in the
 * system simulator are small enough (<= millions of samples) to keep all
 * samples; percentile() sorts lazily.
 *
 * The lazy sort mutates cached state from a const method, so it is
 * guarded by a mutex: results cached by the parallel experiment harness
 * (e.g. the shared CPU baseline runs) are read concurrently. add() and
 * clear() remain single-writer, like every other stats container here.
 */
class Histogram
{
  public:
    Histogram() = default;
    Histogram(const Histogram &o)
        : samples_(o.samples_), sorted_(o.sorted_), stat_(o.stat_) {}
    Histogram(Histogram &&o) noexcept
        : samples_(std::move(o.samples_)), sorted_(o.sorted_),
          stat_(o.stat_) {}
    Histogram &
    operator=(const Histogram &o)
    {
        if (this != &o) {
            samples_ = o.samples_;
            sorted_ = o.sorted_;
            stat_ = o.stat_;
        }
        return *this;
    }
    Histogram &
    operator=(Histogram &&o) noexcept
    {
        samples_ = std::move(o.samples_);
        sorted_ = o.sorted_;
        stat_ = o.stat_;
        return *this;
    }

    void
    add(double x)
    {
        samples_.push_back(x);
        sorted_ = false;
        stat_.add(x);
    }

    /**
     * Record `count` identical samples in one call. Bit-identical to
     * calling add(x) `count` times (the running statistics replay the
     * same per-sample floating-point updates; the sample buffer grows
     * with one insert instead of `count` push_backs). Hot path: a batch
     * op retiring N requests records one histogram insert, not N.
     */
    void
    addN(double x, uint64_t count)
    {
        if (count == 0)
            return;
        samples_.insert(samples_.end(), count, x);
        sorted_ = false;
        for (uint64_t i = 0; i < count; ++i)
            stat_.add(x);
    }

    uint64_t count() const { return stat_.count(); }
    double mean() const { return stat_.mean(); }
    double min() const { return stat_.min(); }
    double max() const { return stat_.max(); }

    /** Every sample in ascending order (sorts lazily, like
     *  percentile(); valid until the histogram next changes). */
    const std::vector<double> &sorted() const;

    /**
     * Exact p-quantile by linear interpolation over the sorted samples
     * (the "R-7" estimator). Edge behaviour, locked by regression
     * tests: empty histogram -> 0.0 for every p; a single sample is
     * returned for every p; p <= 0 -> min, p >= 1 -> max (out-of-range
     * and NaN p clamp to the nearest bound).
     */
    double percentile(double p) const;

    /**
     * Exact merge of another histogram (samples appended, running
     * statistics combined via RunningStat::merge). The registry's
     * per-thread shards aggregate through this on snapshot, so sharding
     * never changes any reported statistic.
     */
    void merge(const Histogram &o);

    /**
     * Exact sample-level equality: same count and the same multiset of
     * samples, compared bit-for-bit after sorting (insertion order is
     * not part of the identity -- percentile()'s lazy sort permutes
     * it). The determinism gates use this to assert result histograms
     * are identical across observability modes and thread counts.
     */
    bool
    identicalTo(const Histogram &o) const
    {
        if (stat_.count() != o.stat_.count())
            return false;
        std::vector<double> a = samples_;
        std::vector<double> b = o.samples_;
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        return a.empty() ||
            std::memcmp(a.data(), b.data(),
                        a.size() * sizeof(double)) == 0;
    }

    void
    clear()
    {
        samples_.clear();
        sorted_ = false;
        stat_ = RunningStat();
    }

  private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = false;
    mutable std::mutex sortMu_;   ///< guards the lazy percentile() sort
    RunningStat stat_;
};

/**
 * Named event counters. Each hardware model owns a CounterSet; the energy
 * model multiplies the counts by per-access energies. Using a sorted map
 * keeps printed reports stable across runs.
 */
class CounterSet
{
  public:
    void add(const std::string &name, uint64_t delta = 1)
    {
        counts_[name] += delta;
    }

    uint64_t
    get(const std::string &name) const
    {
        auto it = counts_.find(name);
        return it == counts_.end() ? 0 : it->second;
    }

    void
    merge(const CounterSet &o)
    {
        for (const auto &[k, v] : o.counts_)
            counts_[k] += v;
    }

    const std::map<std::string, uint64_t> &all() const { return counts_; }

    void clear() { counts_.clear(); }

  private:
    std::map<std::string, uint64_t> counts_;
};

} // namespace simr

#endif // SIMR_COMMON_STATS_H
