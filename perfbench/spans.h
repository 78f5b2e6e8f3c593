/**
 * @file
 * In-memory span log for the benchmark's traced run.
 *
 * Spans are recorded from the benchmark's own code around each call
 * into a simulator layer (nothing inside src/ is instrumented). Each
 * span names its layer ("core", "trace", "mem", "sys", ...), an
 * optional tag (the core config or cluster system it ran), its parent
 * and the count of work done at that boundary. Self time is a span's
 * duration minus the part of it its children cover; summed per layer,
 * self times attribute the run's wall time. The log stays in memory
 * and is written once, at exit, as a Chrome trace through obs::Tracer.
 *
 * A disabled log (the untraced run) records nothing: every call is a
 * branch on `enabled()`.
 *
 * The timing shim (TimedStream) reads the clock twice per DynOp. An
 * enabled log calibrates what such a pair costs, so that the traced
 * run can move that cost out of the core and trace self times and
 * into the benchmark's own ("bench/clock").
 */

#ifndef SIMR_PERFBENCH_SPANS_H
#define SIMR_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/dynop.h"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Phase of the workload a span belongs to. */
enum class Phase : uint8_t { Setup, Measure };

struct Span
{
    std::string name;
    std::string layer;
    std::string tag;
    int parent = -1;
    Phase phase = Phase::Setup;
    double t0 = 0;   ///< seconds since the log's origin
    double t1 = 0;
    uint64_t count = 0;
};

/** Host seconds one TimedStream::next call spends reading the clock:
 *  the part inside the interval it measures and the part outside. */
struct ClockCost
{
    double inside = 0;
    double outside = 0;
};

class SpanLog
{
  public:
    explicit SpanLog(bool enabled);

    bool enabled() const { return enabled_; }

    void setPhase(Phase p) { phase_ = p; }

    /** Open a child of the innermost open span; -1 when disabled. */
    int open(const std::string &name, const std::string &layer,
             const std::string &tag = "");

    /** Close span `id` (the innermost open one) with its work count. */
    void close(int id, uint64_t count);

    /**
     * Record an already-measured child of span `parent` that lasted
     * `dur` seconds in total, starting at `start`: the time a timing
     * core spent inside DynStream::next, gathered call by call and
     * laid out as one block at the start of its parent.
     */
    void addChild(int parent, const std::string &name,
                  const std::string &layer, double start, double dur,
                  uint64_t count, const std::string &tag = "");

    /** Calibrated clock cost per TimedStream call (zero if disabled). */
    const ClockCost &clockCost() const { return clock_; }

    /** Seconds since the log's origin. */
    double now() const;

    /** Self seconds per layer in one phase, keyed "layer" and
     *  "layer/tag" (the tagged entries split the untagged one). */
    std::map<std::string, double> selfTimes(Phase p) const;

    /** Write every span as Chrome-trace X events; false on failure. */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    ClockCost clock_;
    Phase phase_ = Phase::Setup;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span: opens on construction, closes with `count` at scope end. */
class Scoped
{
  public:
    Scoped(SpanLog &log, const std::string &name, const std::string &layer,
           const std::string &tag = "")
        : log_(log), id_(log.open(name, layer, tag))
    {}
    ~Scoped() { log_.close(id_, count); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    int id() const { return id_; }

    uint64_t count = 0;

  private:
    SpanLog &log_;
    int id_;
};

/**
 * Timing shim between a timing core and one of its streams: forwards
 * every call and accumulates the time spent inside next(), so that the
 * core's own time is its run time minus this. `calls` counts next()
 * calls, the clock pairs read.
 */
class TimedStream final : public simr::trace::DynStream
{
  public:
    TimedStream(simr::trace::DynStream &inner, Clock::duration *inside,
                uint64_t *ops)
        : inner_(&inner), inside_(inside), ops_(ops)
    {}

    bool
    next(simr::trace::DynOp &op) override
    {
        const Clock::time_point t0 = Clock::now();
        const bool ok = inner_->next(op);
        *inside_ += Clock::now() - t0;
        *ops_ += ok ? 1 : 0;
        ++calls;
        return ok;
    }

    uint64_t
    requestsCompleted() const override
    {
        return inner_->requestsCompleted();
    }

    uint64_t calls = 0;

  private:
    simr::trace::DynStream *inner_;
    Clock::duration *inside_;
    uint64_t *ops_;
};

} // namespace perfbench

#endif // SIMR_PERFBENCH_SPANS_H
