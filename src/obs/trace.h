/**
 * @file
 * Trace timeline: scoped span events rendered to the Chrome trace-event
 * JSON format, so one simulated run (batch formation, lockstep issue
 * windows, divergence/reconvergence, cluster tier queueing) opens as a
 * timeline in ui.perfetto.dev or chrome://tracing.
 *
 * Event phases used (trace-event spec subset):
 *   X  complete span  (ts + dur)
 *   B / E  nested begin/end span
 *   i  instant event
 *   C  counter sample
 *   b / e  async span (id-matched; overlapping request lifetimes)
 *   s / t / f  flow arrows (id-matched; link spans across tracks, e.g.
 *              a cluster-tier batch to its chip-level issue window)
 *   M  metadata (process_name / thread_name)
 *
 * Timestamps are microseconds. Chip-level traces use virtual time
 * (1 batch-op = 1us on a per-engine track); the system simulator uses
 * its own simulated microseconds, so its timeline is physically
 * meaningful.
 *
 * Sink selection: the Scope exposes a tracer only while one is
 * installed, every emission site short-circuits on a null one, and a
 * traced run simulates exactly what an untraced one does.
 */

#ifndef SIMR_OBS_TRACE_H
#define SIMR_OBS_TRACE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace simr::obs
{

/** Pre-rendered JSON argument list: {key, rendered-value}. */
using TraceArgs = std::vector<std::pair<std::string, std::string>>;

/** Render a number as a JSON value. */
std::string jnum(double v);
std::string jnum(uint64_t v);

/** Render a string as a quoted, escaped JSON value. */
std::string jstr(const std::string &s);

/** One trace-event record. */
struct TraceEvent
{
    std::string name;
    std::string cat;
    char ph = 'X';
    double tsUs = 0;
    double durUs = 0;   ///< X only
    int pid = 0;
    int tid = 0;
    uint64_t id = 0;    ///< async (b/e) correlation id
    bool hasId = false;
    TraceArgs args;
};

/**
 * Collecting sink. Thread-safe; a cap (maxEvents) turns overflow into
 * counted drops instead of unbounded memory.
 */
class Tracer
{
  public:
    /** @param max_events 0 = unbounded. */
    explicit Tracer(size_t max_events = 0) : maxEvents_(max_events) {}

    void complete(const std::string &name, const std::string &cat,
                  double ts_us, double dur_us, int pid, int tid,
                  TraceArgs args = {});
    void begin(const std::string &name, const std::string &cat,
               double ts_us, int pid, int tid, TraceArgs args = {});
    void end(double ts_us, int pid, int tid);
    void instant(const std::string &name, const std::string &cat,
                 double ts_us, int pid, int tid, TraceArgs args = {});
    void counter(const std::string &name, double ts_us, int pid,
                 double value);
    void asyncBegin(const std::string &name, const std::string &cat,
                    uint64_t id, double ts_us, int pid,
                    TraceArgs args = {});
    void asyncEnd(const std::string &name, const std::string &cat,
                  uint64_t id, double ts_us, int pid);

    /**
     * Flow arrows: a flowStart on one track connects to flowStep /
     * flowEnd events with the same id on any other track, drawing the
     * cross-layer causal links (cluster batch -> chip timeline).
     */
    void flowStart(const std::string &name, const std::string &cat,
                   uint64_t id, double ts_us, int pid, int tid);
    void flowStep(const std::string &name, const std::string &cat,
                  uint64_t id, double ts_us, int pid, int tid);
    void flowEnd(const std::string &name, const std::string &cat,
                 uint64_t id, double ts_us, int pid, int tid);
    void processName(int pid, const std::string &name);
    void threadName(int pid, int tid, const std::string &name);

    size_t size() const;
    size_t dropped() const;

    /** Whole Chrome trace-event page. */
    std::string json() const;

    /** Write the JSON page; returns false on I/O failure. */
    bool writeFile(const std::string &path) const;

    /** Snapshot of the collected events (copies; test/report use). */
    std::vector<TraceEvent> events() const;

    void clear();

  private:
    void push(TraceEvent &&e);

    mutable std::mutex mu_;
    std::vector<TraceEvent> events_;
    size_t maxEvents_;
    size_t dropped_ = 0;
};

} // namespace simr::obs

#endif // SIMR_OBS_TRACE_H
