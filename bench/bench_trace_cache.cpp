/**
 * @file
 * Trace-replay determinism gates and trace-cache speedup bench.
 *
 * The trace caches must be invisible in everything but wall-clock
 * time: a request replayed from a CapturedTrace (a ReplayCursor inside
 * its lane) and a whole cell replayed from a cached StreamTrace (a
 * ReplayStream) must drive the timing core through exactly the dynamic
 * stream live execution would have produced. This binary checks and
 * measures that claim over the full 14-service x 4-config sweep, one
 * gate per cache level. Both gates run at 128 requests and harness
 * widths 1 and 4, and compare every reported statistic (full
 * CoreResult including the latency histogram and counter map, plus
 * SimtStats) against a live pass with the caches bypassed:
 *
 *  - `--verify` (the tier-1 ctest entry `trace_replay_gate`), the
 *    request level: a cold pass from cleared caches captures each
 *    request and replays every later request that hits a captured
 *    trace. The gate also fails unless the cold passes replayed
 *    request traces.
 *
 *  - `--verify-compile` (the tier-1 ctest entry `replay_compile_gate`),
 *    the stream level: a front-end sweep from cleared caches fills the
 *    stream cache, then a warm pass serves every cell from it. A live
 *    vs warm front-end sweep (runFrontEnd) then checks SimtStats, op
 *    counts and request counts. The gate also fails unless every warm
 *    lookup hit.
 *
 *  - bench mode: measures two sweeps live vs cold vs warm and emits
 *    BENCH_trace.json. The headline is the *front-end* sweep -- the
 *    functional half of the simulator (request generation, batching,
 *    interpretation, lockstep grouping), which is what the caches
 *    remove; a warm re-run serves every cell straight from the stream
 *    cache. A ns/op micro table compares the replay executors with
 *    live interpretation, and a capture micro table the static-proof
 *    capture path against the dynamic taint walk. The full timing
 *    sweep is reported alongside: its warm speedup is bounded by the
 *    timing core's share of the run, while its bit-identity across
 *    live / cold / warm is what proves replay exact. Also reports the
 *    per-service dedup ratio (requests served by a trace captured from
 *    a *different* request). Exits nonzero if any cell diverges.
 */

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/cache.h"
#include "bench_common.h"
#include "common/parallel.h"
#include "mem/allocator.h"
#include "simr/streamcache.h"
#include "trace/capture.h"
#include "trace/replay.h"
#include "trace/stream.h"

using namespace simr;
using namespace simr::bench;

namespace
{

std::vector<core::CoreConfig>
gateConfigs()
{
    return {core::makeCpuConfig(), core::makeSmt8Config(),
            core::makeRpuConfig(), core::makeGpuConfig()};
}

/** The full 14-service sweep under every config, in input order. */
std::vector<Cell>
sweepCells(const TimingOptions &opt)
{
    std::vector<Cell> cells;
    for (const auto &cfg : gateConfigs())
        for (const auto &name : svc::serviceNames())
            cells.push_back({name, cfg, opt});
    return cells;
}

std::string
cellName(const Cell &cell)
{
    return cell.cfg.name + "/" + cell.service;
}

/**
 * Compare two sweeps cell by cell; appends "config/service(tag)" for
 * every diverged cell.
 */
bool
sameSweep(const std::vector<Cell> &cells,
          const std::vector<TimingRun> &a, const std::vector<TimingRun> &b,
          const char *tag, std::vector<std::string> *diverged)
{
    bool same = true;
    for (size_t i = 0; i < cells.size(); ++i) {
        if (!sameCoreResult(a[i].core, b[i].core) ||
            !sameSimtStats(a[i].simt, b[i].simt)) {
            same = false;
            diverged->push_back(cellName(cells[i]) + "(" + tag + ")");
        }
    }
    return same;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
}

/** Drop both trace-cache levels (request traces and whole streams). */
void
clearCaches()
{
    if (trace::TraceCache *c = trace::TraceCache::process())
        c->clear();
    if (StreamCache *c = StreamCache::process())
        c->clear();
}

/**
 * Run the front-end half of every cell (runFrontEnd, no timing core),
 * fanned out like runCells and with the same per-cell seeds, so the
 * sweep shares stream-cache entries with the timing sweeps.
 */
std::vector<FrontEndRun>
frontEndSweep(const std::vector<Cell> &cells, double *secs)
{
    std::vector<FrontEndRun> out(cells.size());
    auto t0 = std::chrono::steady_clock::now();
    parallelFor(cells.size(), [&](size_t i) {
        const Cell &cell = cells[i];
        auto svc = svc::buildService(cell.service);
        TimingOptions opt = cell.opt;
        opt.seed = cellSeed(cell.opt.seed, cell.service, cell.cfg);
        out[i] = runFrontEnd(*svc, cell.cfg, opt);
    }, 0);
    *secs = secondsSince(t0);
    return out;
}

/** Front-end sweep `reps` times, keeping the minimum wall time. */
std::vector<FrontEndRun>
timedFrontEndSweep(const std::vector<Cell> &cells, int reps, double *secs)
{
    std::vector<FrontEndRun> runs;
    *secs = 0;
    for (int r = 0; r < reps; ++r) {
        double s = 0;
        runs = frontEndSweep(cells, &s);
        if (r == 0 || s < *secs)
            *secs = s;
    }
    return runs;
}

/** Compare two front-end sweeps cell by cell (stats and counts). */
bool
sameFrontEndSweep(const std::vector<Cell> &cells,
                  const std::vector<FrontEndRun> &a,
                  const std::vector<FrontEndRun> &b, const char *tag,
                  std::vector<std::string> *diverged)
{
    bool same = true;
    for (size_t i = 0; i < cells.size(); ++i) {
        if (!sameSimtStats(a[i].simt, b[i].simt) ||
            a[i].dynOps != b[i].dynOps ||
            a[i].requests != b[i].requests) {
            same = false;
            diverged->push_back(cellName(cells[i]) + "(" + tag + ")");
        }
    }
    return same;
}

/**
 * Run the sweep `reps` times, keeping the minimum wall time (the
 * standard noise filter: scheduling hiccups only ever add time). The
 * runs themselves are deterministic, so keeping the last is fine.
 */
std::vector<TimingRun>
timedSweep(const std::vector<Cell> &cells, int threads, int reps,
           double *secs)
{
    std::vector<TimingRun> runs;
    *secs = 0;
    for (int r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        runs = runCells(cells, threads);
        double s = secondsSince(t0);
        if (r == 0 || s < *secs)
            *secs = s;
    }
    return runs;
}

/**
 * Per-op step cost of both replay executors over one memc request and
 * one 64-request scalar stream, next to live interpretation.
 */
struct MicroCosts
{
    double liveNs = 0;       ///< ThreadState::step
    double cursorNs = 0;     ///< ReplayCursor::step
    double streamNs = 0;     ///< ReplayStream::next
};

MicroCosts
microStepCosts(uint64_t seed)
{
    MicroCosts m;
    auto svcp = svc::buildService("memc");
    if (svcp == nullptr)
        return m;
    trace::ProgramIndex pi(svcp->program());
    mem::HeapAllocator alloc(mem::AllocPolicy::SimrAware);
    auto reqs = genRequests(*svcp, 64, seed);
    trace::ThreadInit init =
        svc::makeThreadInit(*svcp, reqs[0], 0, 0, alloc);

    // One captured request.
    trace::ThreadState live(pi.program());
    trace::CaptureBuilder builder(pi);
    live.reset(init);
    builder.reset(init);
    trace::StepResult r;
    while (!live.done()) {
        live.step(r);
        builder.onStep(r);
    }
    auto t = builder.finish();
    const uint64_t n = t->opCount();
    const int reps = static_cast<int>(
        std::max<uint64_t>(1, 4'000'000 / std::max<uint64_t>(n, 1)));
    volatile uint64_t sink = 0;

    auto time_ns = [&](auto &&body) {
        auto t0 = std::chrono::steady_clock::now();
        for (int rep = 0; rep < reps; ++rep)
            body();
        return secondsSince(t0) * 1e9 /
            (static_cast<double>(n) * reps);
    };

    m.liveNs = time_ns([&] {
        live.reset(init);
        uint64_t acc = 0;
        while (!live.done()) {
            live.step(r);
            acc += r.pc + r.addr;
        }
        sink = sink + acc;
    });
    trace::ReplayCursor cursor(pi);
    m.cursorNs = time_ns([&] {
        cursor.start(t, init);
        uint64_t acc = 0;
        while (!cursor.done()) {
            cursor.step(r);
            acc += r.pc + r.addr;
        }
        sink = sink + acc;
    });

    // Stream level: one 64-request scalar stream.
    trace::ScalarStream sl(
        svcp->program(),
        makeScalarProvider(*svcp, reqs, 0, mem::AllocPolicy::SimrAware),
        nullptr);
    trace::CapturingStream cap(svcp->program(), sl);
    trace::DynOp op;
    while (cap.next(op)) {
    }
    auto st = cap.take();
    if (st == nullptr)
        return m;
    const uint64_t sn = st->opCount();
    const int sreps = static_cast<int>(
        std::max<uint64_t>(1, 4'000'000 / std::max<uint64_t>(sn, 1)));
    auto time_stream_ns = [&](auto &&body) {
        auto t0 = std::chrono::steady_clock::now();
        for (int rep = 0; rep < sreps; ++rep)
            body();
        return secondsSince(t0) * 1e9 /
            (static_cast<double>(sn) * sreps);
    };
    m.streamNs = time_stream_ns([&] {
        trace::ReplayStream rs(svcp->program(), st);
        uint64_t acc = 0;
        while (rs.next(op))
            acc += op.pc;
        sink = sink + acc;
    });
    return m;
}

/**
 * Per-op cost of the CaptureBuilder alone -- driven from a
 * pre-recorded step stream, so the interpreter is out of the loop --
 * with and without the static-tier admission fast path. Uses
 * hdsearch-leaf (statically proven tier 1, and long enough that the
 * per-capture allocation cost amortizes away), where the proof lets
 * the builder read every relocation kind from a flat table instead of
 * interpreting the taint lattice per op.
 */
struct CaptureCosts
{
    double dynNs = 0;      ///< CaptureBuilder, dynamic taint walk
    double staticNs = 0;   ///< CaptureBuilder, proof-driven
    bool engaged = false;  ///< static fast path actually admitted
};

CaptureCosts
microCaptureCosts(uint64_t seed)
{
    CaptureCosts c;
    auto svcp = svc::buildService("hdsearch-leaf");
    if (svcp == nullptr)
        return c;
    auto ca = analysis::gateAndProve(svcp->program());
    trace::ProgramIndex pi(svcp->program());
    mem::HeapAllocator alloc(mem::AllocPolicy::SimrAware);
    auto reqs = genRequests(*svcp, 1, seed);
    trace::ThreadInit init =
        svc::makeThreadInit(*svcp, reqs[0], 0, 0, alloc);

    // Record the request's step stream once; the timed loops replay it
    // into the builder, so the interpreter is out of the measurement.
    trace::ThreadState live(pi.program());
    trace::StepResult r;
    live.reset(init);
    std::vector<trace::StepResult> steps;
    while (!live.done()) {
        live.step(r);
        steps.push_back(r);
    }
    const uint64_t n = steps.size();
    const int reps = static_cast<int>(
        std::max<uint64_t>(1, 2'000'000 / std::max<uint64_t>(n, 1)));
    volatile uint64_t sink = 0;

    // Min over three timed chunks: the runs are deterministic, so any
    // spread is scheduling/frequency noise that only ever adds time.
    auto time_ns = [&](trace::CaptureBuilder &b) {
        double best = 0;
        for (int chunk = 0; chunk < 3; ++chunk) {
            auto t0 = std::chrono::steady_clock::now();
            for (int rep = 0; rep < reps; ++rep) {
                b.reset(init);
                for (const trace::StepResult &s : steps)
                    b.onStep(s);
                auto t = b.finish();
                sink = sink + t->opCount();
            }
            double ns = secondsSince(t0) * 1e9 /
                (static_cast<double>(n) * reps);
            if (chunk == 0 || ns < best)
                best = ns;
        }
        return best;
    };

    trace::CaptureBuilder dyn(pi);
    c.dynNs = time_ns(dyn);
    trace::CaptureBuilder fast(pi);
    fast.setStaticProof(ca->proof);
    fast.reset(init);
    c.engaged = fast.staticFastPath();
    c.staticNs = time_ns(fast);
    return c;
}

/** Print one gate line: the pass's verdict plus any diverged cells. */
bool
report(const char *label, bool ok, const std::vector<std::string> &diverged)
{
    std::printf("%s %s", label, ok ? "identical" : "DIVERGED:");
    for (const auto &s : diverged)
        std::printf(" %s", s.c_str());
    std::printf("\n");
    return ok;
}

/**
 * The request-level gate: {live, cold} x threads {1, 4}, cold compared
 * against live. A cold pass starts from cleared caches, so no stream
 * replays: every request either captures a trace or replays one
 * through its lane's ReplayCursor.
 */
int
runVerify(TimingOptions opt)
{
    trace::TraceCache *cache = trace::TraceCache::process();
    if (opt.requests > 128)
        opt.requests = 128;

    TimingOptions live_opt = opt;
    live_opt.useTraceCache = false;
    TimingOptions cached_opt = opt;
    cached_opt.useTraceCache = true;
    const auto live_cells = sweepCells(live_opt);
    const auto cells = sweepCells(cached_opt);

    uint64_t hits = 0;
    uint64_t replayed_ops = 0;
    bool all_identical = true;
    for (int threads : {1, 4}) {
        auto live = runCells(live_cells, threads);
        clearCaches();
        auto cold = runCells(cells, threads);
        for (const TimingRun &run : cold) {
            hits += run.reuse.hits;
            replayed_ops += run.reuse.replayedOps;
        }

        std::vector<std::string> diverged;
        bool ok = sameSweep(cells, live, cold, "cold", &diverged);
        const std::string label = "threads=" + std::to_string(threads);
        all_identical = report(label.c_str(), ok, diverged) && all_identical;
    }

    // A gate whose replay path never ran proves nothing about it.
    const bool engaged = hits > 0;
    const bool pass = cache != nullptr && all_identical && engaged;
    std::printf("trace_replay_gate: %s (14 services x 4 configs x "
                "{live, cold} x threads {1,4}, %d requests; %llu "
                "request-trace hits, %llu replayed ops%s)\n",
                pass ? "PASS" : "FAIL", opt.requests,
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(replayed_ops),
                cache == nullptr ? "; cache DISABLED (SIMR_TRACE_CACHE=0)"
                : engaged        ? ""
                                 : "; no request trace replayed");
    return pass ? 0 : 1;
}

/**
 * The stream-level gate: per width, live, then a front-end sweep from
 * cleared caches inserts every stream and a warm pass replays them all,
 * compared against live; plus a live vs warm front-end sweep.
 */
int
runVerifyCompile(TimingOptions opt)
{
    StreamCache *scache = StreamCache::process();
    if (opt.requests > 128)
        opt.requests = 128;

    TimingOptions live_opt = opt;
    live_opt.useTraceCache = false;
    TimingOptions cached_opt = opt;
    cached_opt.useTraceCache = true;
    const auto live_cells = sweepCells(live_opt);
    const auto cells = sweepCells(cached_opt);

    // Stream-cache lookups of the warm passes.
    uint64_t warm_hits = 0;
    uint64_t warm_misses = 0;
    auto warmPass = [&](auto &&pass) {
        const uint64_t h0 = scache != nullptr ? scache->hits() : 0;
        const uint64_t m0 = scache != nullptr ? scache->misses() : 0;
        auto runs = pass();
        if (scache != nullptr) {
            warm_hits += scache->hits() - h0;
            warm_misses += scache->misses() - m0;
        }
        return runs;
    };

    bool all_identical = true;
    for (int threads : {1, 4}) {
        auto live = runCells(live_cells, threads);

        // The front-end sweep shares stream keys with the timing
        // sweep and skips the timing core, so it is the cheap way to
        // fill the stream cache.
        clearCaches();
        double secs = 0;
        frontEndSweep(cells, &secs);
        auto warm = warmPass([&] { return runCells(cells, threads); });

        std::vector<std::string> diverged;
        bool ok = sameSweep(cells, live, warm, "warm", &diverged);
        const std::string label = "threads=" + std::to_string(threads);
        all_identical = report(label.c_str(), ok, diverged) && all_identical;
    }

    {
        double secs = 0;
        auto fe_live = frontEndSweep(live_cells, &secs);
        auto fe_warm = warmPass([&] { return frontEndSweep(cells, &secs); });
        std::vector<std::string> diverged;
        bool ok = sameFrontEndSweep(cells, fe_live, fe_warm, "front-end",
                                    &diverged);
        all_identical = report("front-end", ok, diverged) && all_identical;
    }

    // Every warm lookup must hit: a miss means that cell ran live, so
    // its identity with live proves nothing about stream replay.
    const bool engaged = warm_hits > 0 && warm_misses == 0;
    const bool pass = scache != nullptr && all_identical && engaged;
    std::printf("replay_compile_gate: %s (14 services x 4 configs x "
                "{live, warm} x threads {1,4} + front end, %d requests; "
                "%llu warm stream hits, %llu warm misses%s)\n",
                pass ? "PASS" : "FAIL", opt.requests,
                static_cast<unsigned long long>(warm_hits),
                static_cast<unsigned long long>(warm_misses),
                scache == nullptr ? "; cache DISABLED (SIMR_TRACE_CACHE=0)"
                : engaged         ? ""
                                  : "; a warm lookup missed");
    return pass ? 0 : 1;
}

int
runBench(const TimingOptions &opt)
{
    trace::TraceCache *cache = trace::TraceCache::process();

    TimingOptions live_opt = opt;
    live_opt.useTraceCache = false;
    TimingOptions cached_opt = opt;
    cached_opt.useTraceCache = true;

    auto live_cells = sweepCells(live_opt);
    auto cached_cells = sweepCells(cached_opt);

    // Front-end sweep (the headline): the functional half of every
    // cell, which a warm stream cache serves without executing.
    double fe_live_secs = 0, fe_cold_secs = 0, fe_warm_secs = 0;
    auto fe_live = timedFrontEndSweep(live_cells, 2, &fe_live_secs);

    // A cold pass can only be repeated by clearing the caches first;
    // min-of-2 with a clear before each rep filters the first-touch
    // page faults of the arena allocations.
    std::vector<FrontEndRun> fe_cold;
    for (int r = 0; r < 2; ++r) {
        clearCaches();
        double s = 0;
        fe_cold = frontEndSweep(cached_cells, &s);
        if (r == 0 || s < fe_cold_secs)
            fe_cold_secs = s;
    }
    uint64_t static_captures = 0;
    for (const auto &run : fe_cold)
        static_captures += run.reuse.staticCaptures;

    // Warm: every cell from the stream cache the cold pass filled.
    auto fe_warm = timedFrontEndSweep(cached_cells, 2, &fe_warm_secs);

    // Full timing sweep, measured from its own cold start.
    double live_secs = 0, cold_secs = 0, warm_secs = 0;
    auto live = timedSweep(live_cells, 0, 2, &live_secs);

    clearCaches();
    auto t0 = std::chrono::steady_clock::now();
    auto cold = runCells(cached_cells, 0);
    cold_secs = secondsSince(t0);
    auto warm = timedSweep(cached_cells, 0, 2, &warm_secs);

    std::vector<std::string> diverged;
    bool identical =
        sameSweep(cached_cells, live, cold, "cold", &diverged) &
        sameSweep(cached_cells, live, warm, "warm", &diverged) &
        sameFrontEndSweep(cached_cells, fe_live, fe_cold, "fe-cold",
                          &diverged) &
        sameFrontEndSweep(cached_cells, fe_live, fe_warm, "fe-warm",
                          &diverged);
    for (const auto &s : diverged)
        std::printf("DIVERGED: %s\n", s.c_str());

    // Dedup per service, from the cold sweep: requests served by a
    // trace captured from a different request (zipf key popularity).
    // Cells of all four configs of a service fold into one ratio.
    const auto &names = svc::serviceNames();
    std::vector<double> dedup(names.size(), 0.0);
    for (size_t i = 0; i < cached_cells.size(); ++i) {
        const auto &r = cold[i].reuse;
        uint64_t reqs = r.hits + r.misses;
        if (reqs)
            dedup[i % names.size()] +=
                static_cast<double>(r.dedupHits) /
                static_cast<double>(reqs) / 4.0;
    }

    Table f("Trace cache: front-end sweep (14 services x 4 configs, " +
            std::to_string(opt.requests) +
            " requests/service), live vs replay");
    f.header({"sweep", "seconds", "speedup"});
    f.row({"live (no cache)", Table::num(fe_live_secs, 2),
           Table::mult(1.0)});
    f.row({"cold (capture)", Table::num(fe_cold_secs, 2),
           Table::mult(fe_live_secs / fe_cold_secs)});
    f.row({"warm-dense (stream replay)", Table::num(fe_warm_secs, 2),
           Table::mult(fe_live_secs / fe_warm_secs)});
    f.print();

    MicroCosts micro = microStepCosts(opt.seed);
    Table u("Per-op step cost (memc; request tier over one trace, "
            "stream tier over a 64-request scalar stream)");
    u.header({"executor", "ns/op"});
    u.row({"interpreter (live)", Table::num(micro.liveNs, 2)});
    u.row({"ReplayCursor", Table::num(micro.cursorNs, 2)});
    u.row({"ReplayStream", Table::num(micro.streamNs, 2)});
    u.print();

    CaptureCosts cap = microCaptureCosts(opt.seed);
    Table sc("Capture cost per op (hdsearch-leaf, statically proven "
             "tier 1; CaptureBuilder over a pre-recorded step stream)");
    sc.header({"capture path", "ns/op", "speedup"});
    sc.row({"dynamic taint walk", Table::num(cap.dynNs, 2),
            Table::mult(1.0)});
    sc.row({std::string("static proof table") +
            (cap.engaged ? "" : " (NOT ENGAGED)"),
            Table::num(cap.staticNs, 2),
            Table::mult(cap.staticNs > 0 ?
                        cap.dynNs / cap.staticNs : 0.0)});
    sc.print();

    Table t("Full timing sweep (front end + timing core; warm speedup "
            "bounded by the core's share)");
    t.header({"sweep", "seconds", "speedup"});
    t.row({"live (no cache)", Table::num(live_secs, 2), Table::mult(1.0)});
    t.row({"cold (capture)", Table::num(cold_secs, 2),
           Table::mult(live_secs / cold_secs)});
    t.row({"warm (replay)", Table::num(warm_secs, 2),
           Table::mult(live_secs / warm_secs)});
    t.print();

    Table d("Request dedup on the cold sweep (traces shared across "
            "distinct requests)");
    d.header({"service", "dedup ratio"});
    for (size_t i = 0; i < names.size(); ++i)
        d.row({names[i], Table::pct(dedup[i])});
    d.print();

    uint64_t entries = cache ? cache->entries() : 0;
    uint64_t bytes = cache ? cache->bytesResident() : 0;
    StreamCache *scache = StreamCache::process();
    uint64_t stream_entries = scache ? scache->entries() : 0;
    uint64_t stream_bytes = scache ? scache->bytesResident() : 0;
    double max_dedup = 0;
    for (double x : dedup)
        max_dedup = std::max(max_dedup, x);

    // Headline live/cold/warm seconds and speedups are the front-end
    // sweep (what the caches accelerate); timing_* is the full timing
    // sweep alongside.
    std::string json = "{\"bench\": \"trace_cache\", \"services\": 14, "
        "\"configs\": 4, \"requests\": " + std::to_string(opt.requests) +
        ", \"live_seconds\": " + std::to_string(fe_live_secs) +
        ", \"cold_seconds\": " + std::to_string(fe_cold_secs) +
        ", \"warm_dense_seconds\": " + std::to_string(fe_warm_secs) +
        ", \"timing_live_seconds\": " + std::to_string(live_secs) +
        ", \"timing_cold_seconds\": " + std::to_string(cold_secs) +
        ", \"timing_warm_seconds\": " + std::to_string(warm_secs);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ", \"speedup_cold\": %.2f, "
                  "\"speedup_warm_dense\": %.2f, "
                  "\"timing_speedup_cold\": %.2f, "
                  "\"timing_speedup_warm\": %.2f, "
                  "\"max_dedup_ratio\": %.4f",
                  fe_live_secs / fe_cold_secs,
                  fe_live_secs / fe_warm_secs,
                  live_secs / cold_secs, live_secs / warm_secs,
                  max_dedup);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  ", \"micro_ns_per_op\": {\"live\": %.2f, "
                  "\"replay_cursor\": %.2f, "
                  "\"replay_stream\": %.2f}",
                  micro.liveNs, micro.cursorNs, micro.streamNs);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  ", \"static_tier\": {\"static_captures\": %llu, "
                  "\"micro_capture_dynamic_ns\": %.2f, "
                  "\"micro_capture_static_ns\": %.2f, "
                  "\"micro_engaged\": %s}",
                  static_cast<unsigned long long>(static_captures),
                  cap.dynNs, cap.staticNs,
                  cap.engaged ? "true" : "false");
    json += buf;
    json += ", \"per_service_dedup\": [";
    for (size_t i = 0; i < names.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "{\"name\": \"%s\", "
                      "\"dedup_ratio\": %.4f}", names[i].c_str(),
                      dedup[i]);
        json += (i ? ", " : "") + std::string(buf);
    }
    json += "], \"cache_entries\": " + std::to_string(entries) +
        ", \"cache_bytes\": " + std::to_string(bytes) +
        ", \"stream_entries\": " + std::to_string(stream_entries) +
        ", \"stream_bytes\": " + std::to_string(stream_bytes) +
        ", \"identical\": ";
    json += identical ? "true" : "false";
    json += "}";

    std::printf("BENCH_trace.json: %s\n", json.c_str());
    if (FILE *f = std::fopen("BENCH_trace.json", "w")) {
        std::fprintf(f, "%s\n", json.c_str());
        std::fclose(f);
    }
    return identical ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    bool verify_only = false;
    bool verify_compile = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--verify") == 0)
            verify_only = true;
        if (std::strcmp(argv[i], "--verify-compile") == 0)
            verify_compile = true;
    }

    RunScale scale = RunScale::fromEnv();
    TimingOptions opt;
    opt.requests = static_cast<int>(scale.timingRequests);
    opt.seed = scale.seed;

    if (verify_compile)
        return runVerifyCompile(opt);
    return verify_only ? runVerify(opt) : runBench(opt);
}
