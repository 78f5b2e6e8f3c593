/**
 * @file
 * Unified metrics registry: named counters, gauges and per-thread
 * histogram shards with a stable text + JSON exposition format.
 *
 * The registry replaces ad-hoc counter plumbing across the simulator:
 * the lockstep engines, the batching server, the experiment runner and
 * the system simulator all report through whichever Registry is in
 * scope (see Scope below), so one run produces one coherent metric
 * page instead of per-subsystem printf tables.
 *
 * Design rules:
 *  - Counters are relaxed atomics: safe from any thread, ~1ns per inc.
 *  - Histograms are sharded per thread: add() touches only the calling
 *    thread's shard (its mutex is uncontended except during snapshot),
 *    and snapshot() merges the shards exactly via RunningStat::merge /
 *    Histogram::merge (Chan's parallel combine), so sharding never
 *    changes the aggregate statistics.
 *  - Handles returned by counter()/gauge()/hist() are stable for the
 *    registry's lifetime; hot paths look a handle up once and reuse it.
 *  - Determinism: a Registry written by a single thread and merged
 *    into a parent in a fixed order (what simr::runCells does per cell)
 *    renders a bit-identical exposition page at any worker count.
 */

#ifndef SIMR_OBS_METRICS_H
#define SIMR_OBS_METRICS_H

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/stats.h"

namespace simr::obs
{

class Tracer;
class JourneyRecorder;

/** Monotonic event counter. */
class Counter
{
  public:
    void
    inc(uint64_t delta = 1)
    {
        v_.fetch_add(delta, std::memory_order_relaxed);
    }

    uint64_t value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v_{0};
};

/** Last-written scalar value (ratios, rates, chosen knobs). */
class Gauge
{
  public:
    void set(double x) { v_.store(x, std::memory_order_relaxed); }
    double value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> v_{0.0};
};

/**
 * Histogram sharded per thread. Each thread appends to its own shard;
 * snapshot() merges every shard (in shard-id order) into one Histogram
 * using the exact RunningStat/Histogram merge, so the aggregate is
 * independent of how samples were spread across threads.
 */
class ShardedHist
{
  public:
    ShardedHist() = default;
    ~ShardedHist();
    ShardedHist(const ShardedHist &) = delete;
    ShardedHist &operator=(const ShardedHist &) = delete;

    /** Record one sample into the calling thread's shard. */
    void add(double x);

    /** Merge a whole Histogram into the calling thread's shard. */
    void record(const Histogram &h);

    /** Exact merged view of every shard. */
    Histogram snapshot() const;

    /** Total samples across shards. */
    uint64_t count() const;

  private:
    struct Shard
    {
        std::mutex mu;       ///< uncontended except vs. snapshot()
        Histogram hist;
    };

    Shard &localShard();

    static constexpr int kMaxShards = 128;
    mutable std::atomic<Shard *> shards_[kMaxShards] = {};
};

/**
 * Named metric registry. get-or-create accessors; handles stay valid
 * until clear(). Sorted maps keep the exposition pages stable.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    Counter *counter(const std::string &name);
    Gauge *gauge(const std::string &name);
    ShardedHist *hist(const std::string &name);

    /**
     * Fold another registry into this one: counters add, gauges take
     * the other's value (last writer wins), histograms merge exactly.
     * Merging per-cell registries into a parent in input order is what
     * keeps sweep metrics deterministic at any SIMR_THREADS.
     */
    void merge(const Registry &o);

    /**
     * Plain-text exposition, one metric per line:
     *   counter <name> <value>
     *   gauge <name> <value>
     *   hist <name> count=<n> mean=... min=... max=... p50=... p90=...
     *        p99=...
     */
    std::string textPage() const;

    /** JSON exposition: {"counters":{},"gauges":{},"histograms":{}}. */
    std::string jsonPage() const;

    /** Drop every metric (handles become dangling). */
    void clear();

    /** Process-wide default registry. */
    static Registry &global();

  private:
    mutable std::mutex mu_;   ///< guards the maps, not the metric values
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<ShardedHist>> hists_;
};

/**
 * RAII thread-local observability scope. Instrumented code records into
 * Scope::registry() and emits spans through Scope::tracer(); installing
 * a Scope redirects both for the current thread until it is destroyed.
 * Default: the global registry, and no tracer (span emission costs a
 * call and a null-pointer check).
 */
class Scope
{
  public:
    explicit Scope(Registry *reg, Tracer *tracer = nullptr,
                   JourneyRecorder *journeys = nullptr);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Current thread's registry (never null). */
    static Registry *registry();

    /** Current thread's tracer; null when tracing is off. */
    static Tracer *tracer();

    /** Current thread's journey recorder; null when none installed. */
    static JourneyRecorder *journeys();

  private:
    Registry *prevReg_;
    Tracer *prevTracer_;
    JourneyRecorder *prevJourneys_;
};

} // namespace simr::obs

#endif // SIMR_OBS_METRICS_H
