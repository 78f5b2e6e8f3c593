#include "obs/metrics.h"

#include <cstdio>

namespace simr::obs
{

namespace
{

/** Stable shard index for the calling thread (wraps past kMaxShards). */
int
threadShardId()
{
    static std::atomic<int> next{0};
    thread_local int id = next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

std::string
fmtNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

thread_local Registry *tlRegistry = nullptr;
thread_local Tracer *tlTracer = nullptr;
thread_local JourneyRecorder *tlJourneys = nullptr;

} // namespace

ShardedHist::~ShardedHist()
{
    for (auto &s : shards_)
        delete s.load(std::memory_order_acquire);
}

ShardedHist::Shard &
ShardedHist::localShard()
{
    int idx = threadShardId() % kMaxShards;
    Shard *s = shards_[idx].load(std::memory_order_acquire);
    if (!s) {
        auto *fresh = new Shard();
        if (shards_[idx].compare_exchange_strong(
                s, fresh, std::memory_order_acq_rel)) {
            s = fresh;
        } else {
            // Another thread mapped to the same slot won the race.
            delete fresh;
        }
    }
    return *s;
}

void
ShardedHist::add(double x)
{
    Shard &s = localShard();
    std::lock_guard<std::mutex> lock(s.mu);
    s.hist.add(x);
}

void
ShardedHist::record(const Histogram &h)
{
    if (h.count() == 0)
        return;
    Shard &s = localShard();
    std::lock_guard<std::mutex> lock(s.mu);
    s.hist.merge(h);
}

Histogram
ShardedHist::snapshot() const
{
    Histogram out;
    for (const auto &slot : shards_) {
        Shard *s = slot.load(std::memory_order_acquire);
        if (!s)
            continue;
        std::lock_guard<std::mutex> lock(s->mu);
        out.merge(s->hist);
    }
    return out;
}

uint64_t
ShardedHist::count() const
{
    uint64_t n = 0;
    for (const auto &slot : shards_) {
        Shard *s = slot.load(std::memory_order_acquire);
        if (!s)
            continue;
        std::lock_guard<std::mutex> lock(s->mu);
        n += s->hist.count();
    }
    return n;
}

Counter *
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return slot.get();
}

Gauge *
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return slot.get();
}

ShardedHist *
Registry::hist(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = hists_[name];
    if (!slot)
        slot = std::make_unique<ShardedHist>();
    return slot.get();
}

void
Registry::merge(const Registry &o)
{
    // Take stable views of the other registry's maps, then fold. The
    // value objects are only read with their own synchronization.
    std::unique_lock<std::mutex> olock(o.mu_);
    for (const auto &[name, c] : o.counters_) {
        uint64_t v = c->value();
        olock.unlock();
        counter(name)->inc(v);
        olock.lock();
    }
    for (const auto &[name, g] : o.gauges_) {
        double v = g->value();
        olock.unlock();
        gauge(name)->set(v);
        olock.lock();
    }
    for (const auto &[name, h] : o.hists_) {
        Histogram snap = h->snapshot();
        olock.unlock();
        hist(name)->record(snap);
        olock.lock();
    }
}

std::string
Registry::textPage() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    for (const auto &[name, c] : counters_)
        out += "counter " + name + " " + std::to_string(c->value()) + "\n";
    for (const auto &[name, g] : gauges_)
        out += "gauge " + name + " " + fmtNum(g->value()) + "\n";
    for (const auto &[name, h] : hists_) {
        Histogram snap = h->snapshot();
        out += "hist " + name +
            " count=" + std::to_string(snap.count()) +
            " mean=" + fmtNum(snap.mean()) +
            " min=" + fmtNum(snap.min()) +
            " max=" + fmtNum(snap.max()) +
            " p50=" + fmtNum(snap.percentile(0.50)) +
            " p90=" + fmtNum(snap.percentile(0.90)) +
            " p99=" + fmtNum(snap.percentile(0.99)) + "\n";
    }
    return out;
}

std::string
Registry::jsonPage() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, c] : counters_) {
        out += first ? "\n" : ",\n";
        out += "    \"" + name + "\": " + std::to_string(c->value());
        first = false;
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"gauges\": {";
    first = true;
    for (const auto &[name, g] : gauges_) {
        out += first ? "\n" : ",\n";
        out += "    \"" + name + "\": " + fmtNum(g->value());
        first = false;
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : hists_) {
        Histogram snap = h->snapshot();
        out += first ? "\n" : ",\n";
        out += "    \"" + name + "\": {\"count\": " +
            std::to_string(snap.count()) +
            ", \"mean\": " + fmtNum(snap.mean()) +
            ", \"min\": " + fmtNum(snap.min()) +
            ", \"max\": " + fmtNum(snap.max()) +
            ", \"p50\": " + fmtNum(snap.percentile(0.50)) +
            ", \"p90\": " + fmtNum(snap.percentile(0.90)) +
            ", \"p99\": " + fmtNum(snap.percentile(0.99)) + "}";
        first = false;
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

void
Registry::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    counters_.clear();
    gauges_.clear();
    hists_.clear();
}

Registry &
Registry::global()
{
    static Registry reg;
    return reg;
}

Scope::Scope(Registry *reg, Tracer *tracer, JourneyRecorder *journeys)
    : prevReg_(tlRegistry), prevTracer_(tlTracer),
      prevJourneys_(tlJourneys)
{
    tlRegistry = reg;
    tlTracer = tracer;
    tlJourneys = journeys;
}

Scope::~Scope()
{
    tlRegistry = prevReg_;
    tlTracer = prevTracer_;
    tlJourneys = prevJourneys_;
}

Registry *
Scope::registry()
{
    return tlRegistry ? tlRegistry : &Registry::global();
}

Tracer *
Scope::tracer()
{
    return tlTracer;
}

JourneyRecorder *
Scope::journeys()
{
    return tlJourneys;
}

} // namespace simr::obs
