#include "spans.h"

#include <algorithm>

#include "obs/trace.h"

namespace perfbench
{

namespace
{

/** Calibrate ClockCost with the shim's own pair of clock reads. */
ClockCost
calibrateClock()
{
    // The loop body is TimedStream::next without its inner call. The
    // median of several rounds keeps a preempted round out.
    constexpr int kRounds = 7;
    constexpr int kPairs = 1 << 16;
    std::vector<double> inside, outside;
    for (int r = 0; r < kRounds; ++r) {
        Clock::duration in{0};
        const Clock::time_point start = Clock::now();
        for (int i = 0; i < kPairs; ++i) {
            const Clock::time_point t0 = Clock::now();
            in += Clock::now() - t0;
        }
        const Clock::duration total = Clock::now() - start;
        inside.push_back(std::chrono::duration<double>(in).count() / kPairs);
        outside.push_back(
            std::chrono::duration<double>(total - in).count() / kPairs);
    }
    std::sort(inside.begin(), inside.end());
    std::sort(outside.begin(), outside.end());
    return {inside[kRounds / 2], outside[kRounds / 2]};
}

} // namespace

SpanLog::SpanLog(bool enabled) : enabled_(enabled)
{
    if (enabled_) {
        spans_.reserve(4096);
        clock_ = calibrateClock();
    }
    origin_ = Clock::now();
}

double
SpanLog::now() const
{
    return std::chrono::duration<double>(Clock::now() - origin_).count();
}

int
SpanLog::open(const std::string &name, const std::string &layer,
              const std::string &tag)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.layer = layer;
    s.tag = tag;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.phase = phase_;
    s.t0 = now();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
SpanLog::close(int id, uint64_t count)
{
    if (id < 0)
        return;
    Span &s = spans_[static_cast<size_t>(id)];
    s.t1 = now();
    s.count = count;
    // Scoped spans close innermost first; anything else is a bug in
    // the benchmark, not in the program under test.
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

void
SpanLog::addChild(int parent, const std::string &name,
                  const std::string &layer, double start, double dur,
                  uint64_t count, const std::string &tag)
{
    if (!enabled_ || parent < 0)
        return;
    Span s;
    s.name = name;
    s.layer = layer;
    s.tag = tag;
    s.parent = parent;
    s.phase = spans_[static_cast<size_t>(parent)].phase;
    s.t0 = start;
    s.t1 = start + dur;
    s.count = count;
    spans_.push_back(std::move(s));
}

std::map<std::string, double>
SpanLog::selfTimes(Phase p) const
{
    std::vector<double> childDur(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            childDur[static_cast<size_t>(s.parent)] += s.t1 - s.t0;

    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.phase != p)
            continue;
        const double self = (s.t1 - s.t0) - childDur[i];
        const std::string tagged =
            s.tag.empty() ? std::string() : s.layer + "/" + s.tag;
        for (const std::string &key : {s.layer, tagged})
            if (!key.empty())
                out[key] += self;
    }
    return out;
}

bool
SpanLog::write(const std::string &path) const
{
    simr::obs::Tracer tracer;
    tracer.processName(1, "simr_perfbench");
    tracer.threadName(1, 1, "worker");
    for (const Span &s : spans_) {
        simr::obs::TraceArgs args = {
            {"count", simr::obs::jnum(s.count)},
            {"phase", simr::obs::jstr(s.phase == Phase::Setup ? "setup"
                                                              : "measure")},
        };
        if (!s.tag.empty())
            args.emplace_back("tag", simr::obs::jstr(s.tag));
        tracer.complete(s.name, s.layer, s.t0 * 1e6, (s.t1 - s.t0) * 1e6, 1,
                        1, std::move(args));
    }
    return tracer.writeFile(path);
}

} // namespace perfbench
