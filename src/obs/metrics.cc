#include "obs/metrics.h"

#include <cstdio>

namespace simr::obs
{

namespace
{

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

void
Hist::add(double x)
{
    std::lock_guard<std::mutex> lock(mu_);
    hist_.add(x);
}

void
Hist::record(const Histogram &h)
{
    std::lock_guard<std::mutex> lock(mu_);
    hist_.merge(h);
}

Histogram
Hist::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return hist_;
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

Hist *
Registry::hist(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = hists_[name];
    if (!slot)
        slot = std::make_unique<Hist>();
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
