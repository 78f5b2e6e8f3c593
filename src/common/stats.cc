#include "common/stats.h"

#include <cmath>

namespace simr
{

const std::vector<double> &
Histogram::sorted() const
{
    std::lock_guard<std::mutex> lock(sortMu_);
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    return samples_;
}

double
Histogram::percentile(double p) const
{
    if (samples_.empty())
        return 0.0;
    if (samples_.size() == 1)
        return samples_.front();
    sorted();
    // NaN comparisons are false, so a NaN p falls through the <= 0
    // guard and must be pinned explicitly (to the lower bound).
    if (std::isnan(p) || p <= 0.0)
        return samples_.front();
    if (p >= 1.0)
        return samples_.back();
    double pos = p * static_cast<double>(samples_.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, samples_.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

void
Histogram::merge(const Histogram &o)
{
    if (o.samples_.empty())
        return;
    samples_.insert(samples_.end(), o.samples_.begin(),
                    o.samples_.end());
    sorted_ = false;
    stat_.merge(o.stat_);
}

} // namespace simr
