/**
 * @file
 * Trace-replay determinism gate and trace-cache speedup bench.
 *
 * The trace caches must be invisible in everything but wall-clock
 * time: a request replayed from a CapturedTrace -- per lane, or
 * lane-major through the batch kernel -- and a whole cell replayed from
 * a cached StreamTrace, densely or through its compiled kernel, must
 * drive the timing core through exactly the dynamic stream live
 * execution would have produced. This binary checks and measures that
 * claim over the full 14-service x 4-config sweep:
 *
 *  - `--verify` (the tier-1 ctest entry `trace_replay_gate`): at 128
 *    requests, for harness widths 1 and 4, every (service, config) cell
 *    is run three ways and every reported statistic (full CoreResult
 *    including the latency histogram and counter map, plus SimtStats)
 *    must be bit-identical across all of them:
 *      live     caches bypassed;
 *      cold     caches cleared: the run captures, replays dedup hits
 *               per lane, and runs uniform all-replay batches through
 *               the lane-major batch kernel (AVX2 relocation on AVX2
 *               hosts);
 *      warm     every cell from the stream cache's dense columns.
 *    A front-end sweep (runFrontEnd) then checks live vs warm SimtStats,
 *    op counts and request counts. The gate also fails unless the
 *    batch kernel and (on AVX2 hosts) SIMD relocation engaged.
 *
 *  - `--verify-compile` (the tier-1 ctest entry `replay_compile_gate`):
 *    the stream kernels. For harness widths 1 and 4, every cell is run
 *    live; then, from cleared caches, two front-end sweeps insert every
 *    stream and give it its first hit, so that
 *      warm-compile   compiles each stream at lookup (its second hit)
 *                     and replays through the stream kernel;
 *      warm-compiled  replays compiled stream kernels only;
 *    both bit-identical to live, plus a live vs compiled front-end
 *    sweep draining the kernels in O(1). The gate also fails unless
 *    every warm lookup hit and every kernel was built at warm-compile's
 *    lookups.
 *
 *  - bench mode: measures two sweeps live vs cold vs warm and emits
 *    BENCH_trace.json. The headline is the *front-end* sweep -- the
 *    functional half of the simulator (request generation, batching,
 *    interpretation, lockstep grouping), which is what the caches
 *    remove; a warm re-run serves every cell straight from the stream
 *    cache, first from the dense columns, then through the compiled
 *    stream kernels (with a per-service speedup and compile-cost
 *    amortization table). A ns/op micro table compares every replay
 *    executor, and a capture micro table the static-proof capture path
 *    against the dynamic taint walk. The full timing sweep is reported
 *    alongside: its warm speedup is bounded by the timing core's share
 *    of the run, while its bit-identity across live / cold / warm is
 *    what proves replay exact. Also reports the per-service dedup ratio
 *    (requests served by a trace captured from a *different* request).
 *    Exits nonzero if any cell diverges.
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
#include "trace/compile.h"
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

/** One service's cells under every config (per-service timings). */
std::vector<Cell>
serviceCells(const std::string &name, const TimingOptions &opt)
{
    std::vector<Cell> cells;
    for (const auto &cfg : gateConfigs())
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
 * Per-op step cost of every replay executor over one memc request and
 * one 64-request scalar stream: live interpretation, the request
 * cursor, and the dense and compiled stream executors.
 */
struct MicroCosts
{
    double liveNs = 0;       ///< ThreadState::step
    double cursorNs = 0;     ///< ReplayCursor::step
    double streamNs = 0;     ///< ReplayStream::next
    double cstreamNs = 0;    ///< CompiledStreamCursor::next
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

    // Stream level: one 64-request scalar stream and its compiled form.
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
    auto kst = trace::compileStream(st);
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
    m.cstreamNs = time_stream_ns([&] {
        trace::CompiledStreamCursor cs;
        cs.start(kst, pi);
        uint64_t acc = 0;
        while (cs.next(op))
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
 * The request-trace gate: {live, cold, warm} x threads {1, 4}, every
 * pass compared against live, plus a live vs warm front-end sweep.
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

    const trace::CompileCounters c0 = trace::compileCounters();
    uint64_t batch_kernel_ops = 0;
    bool all_identical = true;
    for (int threads : {1, 4}) {
        auto live = runCells(live_cells, threads);

        // Cold: every stream key is looked up once (a miss), so no
        // stream kernel exists yet and every kernel op credited here
        // comes from the lane-major batch kernel.
        clearCaches();
        const uint64_t ops0 = trace::compileCounters().compiledOps;
        auto cold = runCells(cells, threads);
        batch_kernel_ops += trace::compileCounters().compiledOps - ops0;

        // Warm: every cell's first stream-cache hit, replayed from the
        // dense columns.
        auto warm = runCells(cells, threads);

        std::vector<std::string> diverged;
        bool ok = sameSweep(cells, live, cold, "cold", &diverged) &
            sameSweep(cells, live, warm, "warm", &diverged);
        const std::string label = "threads=" + std::to_string(threads);
        all_identical = report(label.c_str(), ok, diverged) && all_identical;
    }

    {
        double secs = 0;
        auto fe_live = frontEndSweep(live_cells, &secs);
        auto fe_warm = frontEndSweep(cells, &secs);
        std::vector<std::string> diverged;
        bool ok = sameFrontEndSweep(cells, fe_live, fe_warm, "front-end",
                                    &diverged);
        all_identical = report("front-end", ok, diverged) && all_identical;
    }

    // A gate whose fast paths never ran proves nothing about them.
    const uint64_t simd_lanes =
        trace::compileCounters().simdLanes - c0.simdLanes;
    const bool engaged = batch_kernel_ops > 0 &&
        (simd_lanes > 0 || !trace::simdAvailable());
    const bool pass = cache != nullptr && all_identical && engaged;
    std::printf("trace_replay_gate: %s (14 services x 4 configs x "
                "{live, cold, warm} x threads {1,4} + front end, %d "
                "requests; %llu batch-kernel ops, %llu simd lanes "
                "(%s)%s)\n",
                pass ? "PASS" : "FAIL", opt.requests,
                static_cast<unsigned long long>(batch_kernel_ops),
                static_cast<unsigned long long>(simd_lanes),
                trace::simdAvailable() ? "AVX2" :
                trace::simdCompiledIn() ? "compiled in, no AVX2 cpu"
                                        : "not compiled in",
                cache == nullptr ? "; cache DISABLED (SIMR_TRACE_CACHE=0)"
                : engaged        ? ""
                                 : "; a fast path never engaged");
    return pass ? 0 : 1;
}

/**
 * The stream-kernel gate: per width, live, then from cleared caches
 * two front-end sweeps give every stream its insert and first hit, so
 * warm-compile builds each stream kernel at lookup and warm-compiled
 * replays kernels only -- both compared against live -- plus a live vs
 * compiled front-end sweep.
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

    uint64_t built_at_lookup = 0;
    uint64_t built_later = 0;
    uint64_t warm_misses = 0;
    bool all_identical = true;
    for (int threads : {1, 4}) {
        auto live = runCells(live_cells, threads);

        // The front-end sweep shares stream keys with the timing
        // sweep and skips the timing core, so it is the cheap way to
        // walk every stream to its second hit.
        clearCaches();
        double secs = 0;
        frontEndSweep(cells, &secs);
        frontEndSweep(cells, &secs);

        const uint64_t m0 = scache != nullptr ? scache->misses() : 0;
        const uint64_t s0 = trace::compileCounters().compiledStreams;
        auto warm_compile = runCells(cells, threads);
        const uint64_t s1 = trace::compileCounters().compiledStreams;
        auto warm_compiled = runCells(cells, threads);
        built_at_lookup += s1 - s0;
        built_later += trace::compileCounters().compiledStreams - s1;
        if (scache != nullptr)
            warm_misses += scache->misses() - m0;

        std::vector<std::string> diverged;
        bool ok = sameSweep(cells, live, warm_compile, "warm-compile",
                            &diverged) &
            sameSweep(cells, live, warm_compiled, "warm-compiled",
                      &diverged);
        const std::string label = "threads=" + std::to_string(threads);
        all_identical = report(label.c_str(), ok, diverged) && all_identical;
    }

    {
        double secs = 0;
        auto fe_live = frontEndSweep(live_cells, &secs);
        auto fe_warm = frontEndSweep(cells, &secs);
        std::vector<std::string> diverged;
        bool ok = sameFrontEndSweep(cells, fe_live, fe_warm, "front-end",
                                    &diverged);
        all_identical = report("front-end", ok, diverged) && all_identical;
    }

    // Every warm lookup must hit, and every kernel must come from
    // warm-compile's lookups: a miss means the priming missed a key,
    // a kernel built later means warm-compiled was not compiled-only.
    const bool engaged =
        built_at_lookup > 0 && built_later == 0 && warm_misses == 0;
    const bool pass = scache != nullptr && all_identical && engaged;
    std::printf("replay_compile_gate: %s (14 services x 4 configs x "
                "{live, warm-compile, warm-compiled} x threads {1,4} + "
                "front end, %d requests; %llu stream kernels built at "
                "lookup, %llu later, %llu warm misses%s)\n",
                pass ? "PASS" : "FAIL", opt.requests,
                static_cast<unsigned long long>(built_at_lookup),
                static_cast<unsigned long long>(built_later),
                static_cast<unsigned long long>(warm_misses),
                scache == nullptr ? "; cache DISABLED (SIMR_TRACE_CACHE=0)"
                : engaged         ? ""
                                  : "; stream kernels did not engage");
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
    double fe_live_secs = 0, fe_cold_secs = 0;
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

    // The stream cache compiles an entry on its second hit: the first
    // warm pass replays the dense columns, an untimed second pass
    // compiles (its cost is the compile-time counter's delta), and
    // later passes replay through the stream kernels only.
    struct WarmTiers
    {
        double dense = 0, compile = 0, compiled = 0;
    };
    auto warmTiers = [&](const std::vector<Cell> &cells,
                         std::vector<FrontEndRun> *dense,
                         std::vector<FrontEndRun> *compiled) {
        WarmTiers w;
        *dense = frontEndSweep(cells, &w.dense);
        const uint64_t us0 = trace::compileCounters().compileUs;
        double prime_secs = 0;
        frontEndSweep(cells, &prime_secs);
        w.compile = static_cast<double>(
                        trace::compileCounters().compileUs - us0) * 1e-6;
        *compiled = timedFrontEndSweep(cells, 2, &w.compiled);
        return w;
    };
    std::vector<FrontEndRun> fe_dense, fe_warm;
    const WarmTiers fe_tiers = warmTiers(cached_cells, &fe_dense, &fe_warm);
    const double fe_dense_secs = fe_tiers.dense;
    const double fe_warm_secs = fe_tiers.compiled;

    // Per-service split from a fresh cold start, so each service's
    // streams walk the same three tiers.
    const auto &names = svc::serviceNames();
    std::vector<WarmTiers> svc_tiers(names.size());
    clearCaches();
    for (size_t i = 0; i < names.size(); ++i) {
        auto cells_i = serviceCells(names[i], cached_opt);
        double fill_secs = 0;
        frontEndSweep(cells_i, &fill_secs);
        std::vector<FrontEndRun> unused_dense, unused_compiled;
        svc_tiers[i] = warmTiers(cells_i, &unused_dense, &unused_compiled);
    }

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
        sameFrontEndSweep(cached_cells, fe_live, fe_dense, "fe-dense",
                          &diverged) &
        sameFrontEndSweep(cached_cells, fe_live, fe_warm, "fe-warm",
                          &diverged);
    for (const auto &s : diverged)
        std::printf("DIVERGED: %s\n", s.c_str());

    // Dedup per service, from the cold sweep: requests served by a
    // trace captured from a different request (zipf key popularity).
    // Cells of all four configs of a service fold into one ratio.
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
    f.row({"warm-dense (stream replay)", Table::num(fe_dense_secs, 2),
           Table::mult(fe_live_secs / fe_dense_secs)});
    f.row({"warm-compiled (stream kernels)", Table::num(fe_warm_secs, 2),
           Table::mult(fe_live_secs / fe_warm_secs)});
    f.print();

    // Per-service compiled-vs-dense: the warm speedup the stream
    // kernels add on top of dense stream replay, and how many warm
    // re-runs amortize the one-time compile cost.
    Table c("Stream kernels: warm-compiled vs warm-dense per service "
            "(4 configs each; amortize = warm re-runs to repay compile)");
    c.header({"service", "dense s", "compiled s", "speedup",
              "compile s", "amortize"});
    for (size_t i = 0; i < names.size(); ++i) {
        const WarmTiers &w = svc_tiers[i];
        double saved = w.dense - w.compiled;
        std::string amort = saved > 1e-9 ?
            Table::num(w.compile / saved, 1) : "-";
        c.row({names[i], Table::num(w.dense, 4),
               Table::num(w.compiled, 4),
               Table::mult(w.compiled > 0 ? w.dense / w.compiled : 0.0),
               Table::num(w.compile, 4), amort});
    }
    c.print();

    MicroCosts micro = microStepCosts(opt.seed);
    Table u("Per-op step cost (memc; request tier over one trace, "
            "stream tier over a 64-request scalar stream)");
    u.header({"executor", "ns/op"});
    u.row({"interpreter (live)", Table::num(micro.liveNs, 2)});
    u.row({"ReplayCursor", Table::num(micro.cursorNs, 2)});
    u.row({"ReplayStream", Table::num(micro.streamNs, 2)});
    u.row({"CompiledStreamCursor", Table::num(micro.cstreamNs, 2)});
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
    const trace::CompileCounters cc = trace::compileCounters();
    std::string json = "{\"bench\": \"trace_cache\", \"services\": 14, "
        "\"configs\": 4, \"requests\": " + std::to_string(opt.requests) +
        ", \"live_seconds\": " + std::to_string(fe_live_secs) +
        ", \"cold_seconds\": " + std::to_string(fe_cold_secs) +
        ", \"warm_dense_seconds\": " + std::to_string(fe_dense_secs) +
        ", \"warm_seconds\": " + std::to_string(fe_warm_secs) +
        ", \"stream_compile_seconds\": " +
        std::to_string(fe_tiers.compile) +
        ", \"timing_live_seconds\": " + std::to_string(live_secs) +
        ", \"timing_cold_seconds\": " + std::to_string(cold_secs) +
        ", \"timing_warm_seconds\": " + std::to_string(warm_secs);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ", \"speedup_cold\": %.2f, "
                  "\"speedup_warm_dense\": %.2f, "
                  "\"speedup_warm\": %.2f, "
                  "\"compiled_vs_dense\": %.2f, "
                  "\"timing_speedup_cold\": %.2f, "
                  "\"timing_speedup_warm\": %.2f, "
                  "\"max_dedup_ratio\": %.4f",
                  fe_live_secs / fe_cold_secs,
                  fe_live_secs / fe_dense_secs,
                  fe_live_secs / fe_warm_secs,
                  fe_warm_secs > 0 ? fe_dense_secs / fe_warm_secs : 0.0,
                  live_secs / cold_secs, live_secs / warm_secs,
                  max_dedup);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  ", \"micro_ns_per_op\": {\"live\": %.2f, "
                  "\"replay_cursor\": %.2f, "
                  "\"replay_stream\": %.2f, \"compiled_stream\": %.2f}",
                  micro.liveNs, micro.cursorNs, micro.streamNs,
                  micro.cstreamNs);
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
    json += ", \"per_service_compiled\": [";
    for (size_t i = 0; i < names.size(); ++i) {
        const WarmTiers &w = svc_tiers[i];
        double saved = w.dense - w.compiled;
        std::snprintf(buf, sizeof(buf), "{\"name\": \"%s\", "
                      "\"dense_seconds\": %.4f, "
                      "\"compiled_seconds\": %.4f, "
                      "\"speedup\": %.2f, \"compile_seconds\": %.4f, "
                      "\"amortize_reps\": %.1f}", names[i].c_str(),
                      w.dense, w.compiled,
                      w.compiled > 0 ? w.dense / w.compiled : 0.0,
                      w.compile, saved > 1e-9 ? w.compile / saved : -1.0);
        json += (i ? ", " : "") + std::string(buf);
    }
    json += "], \"per_service_dedup\": [";
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
        ", \"compiled_streams\": " + std::to_string(cc.compiledStreams) +
        ", \"compiled_ops\": " + std::to_string(cc.compiledOps) +
        ", \"simd_lanes\": " + std::to_string(cc.simdLanes) +
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
