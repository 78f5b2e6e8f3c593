#include "simr/runner.h"

#include <memory>
#include <string>

#include "analysis/cache.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "obs/divergence.h"
#include "simr/streamcache.h"
#include "trace/compile.h"
#include "trace/replay.h"

namespace simr
{
namespace
{

/** Fold one run's core + SIMT stats into the scoped registry. */
void
recordRunMetrics(const TimingRun &run)
{
    obs::Registry *reg = obs::Scope::registry();
    reg->counter("core.cycles")->inc(run.core.cycles);
    reg->counter("core.batch_ops")->inc(run.core.batchOps);
    reg->counter("core.scalar_insts")->inc(run.core.scalarInsts);
    reg->counter("core.requests")->inc(run.core.requests);
    // Simulator diagnostics: how much work the event-driven loop
    // avoided. Zero when CoreConfig::eventDriven is off.
    reg->counter("core.cycles_skipped")->inc(run.core.skippedCycles);
    reg->counter("core.skip_jumps")->inc(run.core.skipJumps);
    reg->gauge("core.ipc")->set(run.core.ipc());
    reg->hist("core.req_latency_cycles")->record(run.core.reqLatency);
    if (run.simt.batches > 0)
        obs::recordSimtStats(reg, run.simt);
}

/**
 * Stream-cache key for one front-end unit: exactly the inputs that
 * determine the unit's DynOp stream. That is the service identity (name
 * plus program content fingerprint), the stream kind and lane width,
 * every TimingOptions field the front end consumes, and the unit's
 * position among its siblings (`index` of `contexts`, which fixes its
 * round-robin share of the requests/batches). Core-side fields
 * (latencies, eventDriven, ...) deliberately do not contribute: the
 * same streams feed every core flavour, so e.g. a ref-vs-event-driven
 * comparison shares one capture.
 */
std::string
streamKey(const svc::Service &svc, uint64_t program_fp, const char *kind,
          int width, const TimingOptions &opt, int contexts, int index)
{
    std::string k = svc.traits().name;
    k += '|';
    k += std::to_string(program_fp);
    k += '|';
    k += kind;
    k += '|';
    k += std::to_string(width);
    k += '|';
    k += std::to_string(static_cast<int>(opt.policy));
    k += '|';
    k += std::to_string(static_cast<int>(opt.reconv));
    k += '|';
    k += std::to_string(static_cast<int>(opt.alloc));
    k += '|';
    k += std::to_string(opt.requests);
    k += '|';
    k += std::to_string(opt.seed);
    k += '|';
    k += std::to_string(contexts);
    k += '|';
    k += std::to_string(index);
    return k;
}

/**
 * One front-end unit: whatever produces the DynOp stream one core
 * context drains. Exactly one of {engine, scalar} (live, possibly
 * wrapped by `capturer`) or `replay` (stream-cache hit) is set.
 */
struct FrontEndUnit
{
    std::string key;
    bool isEngine = false;
    std::unique_ptr<simt::LockstepEngine> engine;
    std::unique_ptr<trace::ScalarStream> scalar;
    std::unique_ptr<trace::ReplayStream> replay;
    std::unique_ptr<trace::CapturingStream> capturer;
    /** Producing engine's stats, replayed with the stream on a hit. */
    simt::SimtStats cachedStats;
    trace::DynStream *stream = nullptr;   ///< what the consumer drains
};

/** A cell's whole front end plus the cache (if any) serving it. */
struct FrontEnd
{
    std::vector<FrontEndUnit> units;
    StreamCache *scache = nullptr;

    std::vector<trace::DynStream *>
    streams()
    {
        std::vector<trace::DynStream *> out;
        out.reserve(units.size());
        for (FrontEndUnit &u : units)
            out.push_back(u.stream);
        return out;
    }

    /**
     * Fold the drained units into run accounting and insert fresh
     * captures into the stream cache. Call once, after the consumer
     * exhausted every stream (CapturingStream::take() yields null on a
     * partial drain, so nothing incomplete can be inserted).
     */
    void
    collect(simt::SimtStats *simt, trace::ReuseStats *reuse)
    {
        for (FrontEndUnit &u : units) {
            if (u.replay) {
                if (u.isEngine)
                    *simt += u.cachedStats;
                ++reuse->streamHits;
                continue;
            }
            if (u.engine) {
                *simt += u.engine->stats();
                *reuse += u.engine->reuseStats();
            }
            if (u.scalar)
                *reuse += u.scalar->reuseStats();
            if (scache != nullptr) {
                ++reuse->streamMisses;
                if (u.capturer)
                    scache->insert(
                        u.key,
                        StreamEntry{u.capturer->take(), nullptr,
                                    u.engine ? u.engine->stats()
                                             : simt::SimtStats{}});
            }
        }
    }
};

/**
 * Build the front end runTiming / runFrontEnd drain: lockstep engines
 * for batch configs, scalar streams otherwise, each unit served from
 * the process-wide StreamCache when an identical cell already ran.
 * Request generation and batching are skipped entirely when every unit
 * hits. Observed runs (opt.observerFor) bypass the stream cache: the
 * observer contract is to see live lockstep events, and a replayed
 * stream has no engine behind it.
 */
FrontEnd
buildFrontEnd(const svc::Service &svc, const core::CoreConfig &cfg,
              const TimingOptions &opt, const analysis::CachedAnalysis &ca)
{
    FrontEnd fe;
    trace::TraceCache *rcache =
        opt.useTraceCache ? trace::TraceCache::process() : nullptr;
    fe.scache = (opt.useTraceCache && !opt.observerFor)
        ? StreamCache::process()
        : nullptr;
    const uint64_t fp = ca.fingerprint;

    if (cfg.batchWidth > 1) {
        // RPU / GPU: batch the requests and execute in lockstep. A
        // core with several hardware batch contexts (the GPU's warp
        // multithreading) splits the batches across engines.
        int bsize = cfg.batchWidth;
        if (opt.batchOverride > 0)
            bsize = opt.batchOverride;
        else if (opt.useTunedBatch)
            bsize = std::min(bsize, svc.traits().tunedBatch);
        const int n = cfg.smtThreads;
        fe.units.resize(static_cast<size_t>(n));
        // Batching always runs, even when every unit replays:
        // formBatches records the batch.* metrics, and a warm cell's
        // exposition must stay bit-identical to a cold one (the
        // runCells determinism contract). It is microseconds next to
        // the execution the cache skips.
        auto reqs = genRequests(svc, opt.requests, opt.seed);
        batch::BatchingServer server(opt.policy, bsize);
        auto batches = server.formBatches(reqs);
        std::vector<std::vector<batch::Batch>> per_engine(
            static_cast<size_t>(n));
        for (size_t i = 0; i < batches.size(); ++i)
            per_engine[i % per_engine.size()].push_back(
                std::move(batches[i]));
        for (int e = 0; e < n; ++e) {
            FrontEndUnit &u = fe.units[static_cast<size_t>(e)];
            u.isEngine = true;
            u.key = streamKey(svc, fp, "lockstep", bsize, opt, n, e);
            StreamEntry ent;
            if (fe.scache != nullptr && fe.scache->lookup(u.key, &ent)) {
                u.replay = std::make_unique<trace::ReplayStream>(
                    svc.program(), ent.trace, ent.compiled);
                u.cachedStats = ent.stats;
                u.stream = u.replay.get();
                continue;
            }
            u.engine = std::make_unique<simt::LockstepEngine>(
                svc.program(), opt.reconv, bsize,
                makeBatchProvider(
                    svc,
                    std::move(per_engine[static_cast<size_t>(e)]),
                    opt.alloc),
                simt::SpinEscapeConfig(), rcache);
            u.engine->setStaticProof(ca.proof);
            if (opt.observerFor)
                u.engine->setObserver(opt.observerFor(e));
            u.stream = u.engine.get();
            if (fe.scache != nullptr) {
                u.capturer = std::make_unique<trace::CapturingStream>(
                    svc.program(), *u.engine);
                u.stream = u.capturer.get();
            }
        }
    } else {
        // Scalar / SMT: requests dealt round-robin across hardware
        // thread contexts (one context when smtThreads == 1).
        const int n = std::max(1, cfg.smtThreads);
        fe.units.resize(static_cast<size_t>(n));
        bool allHit = fe.scache != nullptr;
        for (int ti = 0; ti < n; ++ti) {
            FrontEndUnit &u = fe.units[static_cast<size_t>(ti)];
            u.key = streamKey(svc, fp, "scalar", 1, opt, n, ti);
            StreamEntry ent;
            if (fe.scache != nullptr && fe.scache->lookup(u.key, &ent)) {
                u.replay = std::make_unique<trace::ReplayStream>(
                    svc.program(), ent.trace, ent.compiled);
                u.stream = u.replay.get();
            } else {
                allHit = false;
            }
        }
        if (!allHit) {
            auto reqs = genRequests(svc, opt.requests, opt.seed);
            std::vector<std::vector<svc::Request>> per_thread(
                static_cast<size_t>(n));
            for (size_t i = 0; i < reqs.size(); ++i)
                per_thread[i % per_thread.size()].push_back(reqs[i]);
            for (int ti = 0; ti < n; ++ti) {
                FrontEndUnit &u = fe.units[static_cast<size_t>(ti)];
                if (u.replay)
                    continue;
                u.scalar = std::make_unique<trace::ScalarStream>(
                    svc.program(),
                    makeScalarProvider(
                        svc, per_thread[static_cast<size_t>(ti)],
                        static_cast<uint64_t>(ti), opt.alloc),
                    rcache);
                u.scalar->setStaticProof(ca.proof);
                u.stream = u.scalar.get();
                if (fe.scache != nullptr) {
                    u.capturer =
                        std::make_unique<trace::CapturingStream>(
                            svc.program(), *u.scalar);
                    u.stream = u.capturer.get();
                }
            }
        }
    }
    return fe;
}

} // namespace
} // namespace simr

namespace simr
{

std::vector<svc::Request>
genRequests(const svc::Service &svc, int n, uint64_t seed)
{
    Rng rng(seed ^ svc.dataSeed());
    std::vector<svc::Request> reqs;
    reqs.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        reqs.push_back(svc.genRequest(i, rng));
    return reqs;
}

simt::LockstepEngine::BatchProvider
makeBatchProvider(const svc::Service &svc, std::vector<batch::Batch> batches,
                  mem::AllocPolicy alloc_policy)
{
    struct State
    {
        const svc::Service *svc;
        std::vector<batch::Batch> batches;
        size_t next = 0;
        mem::HeapAllocator alloc;
    };
    auto st = std::make_shared<State>(
        State{&svc, std::move(batches), 0,
              mem::HeapAllocator(alloc_policy)});

    return [st](std::vector<trace::ThreadInit> &inits) -> int {
        if (st->next >= st->batches.size())
            return 0;
        const batch::Batch &b = st->batches[st->next++];
        inits.clear();
        for (size_t lane = 0; lane < b.requests.size(); ++lane) {
            inits.push_back(svc::makeThreadInit(
                *st->svc, b.requests[lane], static_cast<int>(lane),
                lane, st->alloc));
        }
        return static_cast<int>(inits.size());
    };
}

trace::RequestProvider
makeScalarProvider(const svc::Service &svc, std::vector<svc::Request> reqs,
                   uint64_t slot, mem::AllocPolicy alloc_policy)
{
    struct State
    {
        const svc::Service *svc;
        std::vector<svc::Request> reqs;
        size_t next = 0;
        uint64_t slot;
        mem::HeapAllocator alloc;
    };
    auto st = std::make_shared<State>(
        State{&svc, std::move(reqs), 0, slot,
              mem::HeapAllocator(alloc_policy)});

    return [st](trace::ThreadInit &init) -> bool {
        if (st->next >= st->reqs.size())
            return false;
        const svc::Request &r = st->reqs[st->next++];
        init = svc::makeThreadInit(*st->svc, r,
                                   static_cast<int>(st->slot), st->slot,
                                   st->alloc);
        return true;
    };
}

EfficiencyResult
measureEfficiency(const svc::Service &svc, batch::Policy policy,
                  simt::ReconvPolicy reconv, int width, int n,
                  uint64_t seed, simt::LockstepObserver *observer)
{
    auto ca = analysis::gateAndProve(svc.program());

    // Efficiency probes re-run the exact cells the timing sweeps run,
    // so they share the stream cache (and its key scheme: one engine,
    // index 0 of 1). Observed runs stay live -- observers consume
    // lockstep events, which a replayed stream does not produce.
    StreamCache *scache =
        observer == nullptr ? StreamCache::process() : nullptr;

    // Batching runs even on a cache hit so the batch.* metrics record
    // identically warm and cold (same exposition-determinism contract
    // as buildFrontEnd).
    auto reqs = genRequests(svc, n, seed);
    batch::BatchingServer server(policy, width);
    auto batches = server.formBatches(reqs);

    std::string key;
    if (scache != nullptr) {
        TimingOptions opt;
        opt.policy = policy;
        opt.reconv = reconv;
        opt.requests = n;
        opt.seed = seed;
        key = streamKey(svc, ca->fingerprint, "lockstep", width, opt,
                        1, 0);
        StreamEntry ent;
        if (scache->lookup(key, &ent)) {
            obs::recordSimtStats(obs::Scope::registry(), ent.stats);
            return EfficiencyResult{ent.stats};
        }
    }

    simt::LockstepEngine engine(svc.program(), reconv, width,
                                makeBatchProvider(svc, std::move(batches)));
    engine.setStaticProof(ca->proof);
    engine.setObserver(observer);
    trace::DynOp op;
    if (scache != nullptr) {
        trace::CapturingStream cap(svc.program(), engine);
        while (cap.next(op)) {
            // Drain: stats accumulate inside the engine.
        }
        scache->insert(key,
                       StreamEntry{cap.take(), nullptr, engine.stats()});
    } else {
        while (engine.next(op)) {
            // Drain: stats accumulate inside the engine.
        }
    }
    obs::recordSimtStats(obs::Scope::registry(), engine.stats());
    return EfficiencyResult{engine.stats()};
}

FrontEndRun
runFrontEnd(const svc::Service &svc, const core::CoreConfig &cfg,
            const TimingOptions &opt)
{
    auto ca = analysis::gateAndProve(svc.program());
    FrontEnd fe = buildFrontEnd(svc, cfg, opt, *ca);
    FrontEndRun run;
    trace::DynOp op;
    for (FrontEndUnit &u : fe.units) {
        // Compiled warm streams are drained in O(1) from the kernel's
        // precomputed aggregates -- there is no consumer here to feed,
        // so materializing each op only to count it is pure overhead.
        if (u.replay != nullptr && u.replay->drainCompiled(&run.dynOps)) {
            run.requests += u.replay->requestsCompleted();
            continue;
        }
        while (u.stream->next(op))
            ++run.dynOps;
        run.requests += u.stream->requestsCompleted();
    }
    fe.collect(&run.simt, &run.reuse);
    return run;
}

TimingRun
runTiming(const svc::Service &svc, const core::CoreConfig &cfg,
          const TimingOptions &opt)
{
    auto ca = analysis::gateAndProve(svc.program());

    TimingRun run;
    core::TimingCore core(cfg);
    FrontEnd fe = buildFrontEnd(svc, cfg, opt, *ca);
    auto streams = fe.streams();
    run.core = core.run(streams);
    fe.collect(&run.simt, &run.reuse);

    run.energy = energy::computeEnergy(
        run.core, energy::EnergyParams::forConfig(cfg),
        cfg.chipStaticWatts / cfg.chipCores);
    recordRunMetrics(run);
    return run;
}

uint64_t
cellSeed(uint64_t master, const std::string &service,
         const core::CoreConfig &cfg)
{
    // The seed is a pure function of the cell's identity, never of
    // when or where the cell runs -- that is what makes sweep results
    // bit-identical to the serial order at any thread count. Only
    // fields that parameterize the *request stream* may contribute:
    // today that is the service (and any future workload knobs a
    // config might grow -- which is why cfg is part of the contract).
    // Core-flavour fields (name, widths, latencies) deliberately do
    // not, so every config of a service executes the identical request
    // sample and cross-config ratios stay apples-to-apples.
    (void)cfg;
    uint64_t h = mix64(master ^ 0x51e5a11edULL);
    h = mix64(h ^ std::hash<std::string>{}(service));
    return h;
}

std::vector<TimingRun>
runCells(const std::vector<Cell> &cells, int threads)
{
    // Capture the caller's registry before fanning out: the worker
    // threads must not inherit whatever ambient scope they carry.
    obs::Registry *parent = obs::Scope::registry();

    // Each cell writes into its own private registry (a cell runs
    // wholly on one worker, so its sharded histograms see exactly one
    // thread and snapshot exactly). Tracing is disabled inside cells:
    // interleaved spans from concurrent cells would not be
    // deterministic.
    std::vector<std::unique_ptr<obs::Registry>> cellRegs;
    cellRegs.reserve(cells.size());
    for (size_t i = 0; i < cells.size(); ++i)
        cellRegs.push_back(std::make_unique<obs::Registry>());

    std::vector<TimingRun> out(cells.size());
    parallelFor(cells.size(), [&](size_t i) {
        obs::Scope scope(cellRegs[i].get(), nullptr);
        const Cell &cell = cells[i];
        auto svc = svc::buildService(cell.service);
        simr_assert(svc != nullptr, "unknown service in cell sweep");
        TimingOptions opt = cell.opt;
        opt.seed = cellSeed(cell.opt.seed, cell.service, cell.cfg);
        out[i] = runTiming(*svc, cell.cfg, opt);
    }, threads);

    // Merge in input order: the parent exposition is bit-identical at
    // any thread count.
    for (const auto &reg : cellRegs)
        parent->merge(*reg);
    return out;
}

void
recordTraceCacheStats()
{
    obs::Registry *reg = obs::Scope::registry();
    if (trace::TraceCache *cache = trace::TraceCache::process()) {
        reg->counter("trace.cache_hits")->inc(cache->hits());
        reg->counter("trace.cache_misses")->inc(cache->misses());
        reg->counter("trace.dedup_requests")->inc(cache->dedupRequests());
        reg->gauge("trace.bytes_resident")->set(
            static_cast<double>(cache->bytesResident()));
        reg->gauge("trace.entries")->set(
            static_cast<double>(cache->entries()));
        reg->gauge("trace.evictions")->set(
            static_cast<double>(cache->evictions()));
    }
    if (StreamCache *scache = StreamCache::process()) {
        reg->counter("trace.stream_hits")->inc(scache->hits());
        reg->counter("trace.stream_misses")->inc(scache->misses());
        reg->gauge("trace.stream_bytes_resident")->set(
            static_cast<double>(scache->bytesResident()));
        reg->gauge("trace.stream_entries")->set(
            static_cast<double>(scache->entries()));
        reg->gauge("trace.stream_evictions")->set(
            static_cast<double>(scache->evictions()));
        reg->gauge("trace.stream_compiled_entries")->set(
            static_cast<double>(scache->compiledEntries()));
        reg->gauge("trace.stream_compiled_bytes")->set(
            static_cast<double>(scache->compiledBytes()));
    }
    const trace::CompileCounters cc = trace::compileCounters();
    reg->counter("trace.compiled_streams")->inc(cc.compiledStreams);
    reg->counter("trace.compile_us")->inc(cc.compileUs);
    reg->counter("trace.compiled_ops")->inc(cc.compiledOps);
    reg->counter("trace.simd_lanes")->inc(cc.simdLanes);
}

void
recordAnalysisStats()
{
    analysis::AnalysisCache *cache = analysis::AnalysisCache::process();
    if (cache == nullptr)
        return;
    obs::Registry *reg = obs::Scope::registry();
    reg->counter("analysis.cache_hits")->inc(cache->hits());
    reg->counter("analysis.cache_misses")->inc(cache->misses());
    reg->gauge("analysis.cache_entries")->set(
        static_cast<double>(cache->entries()));
}

} // namespace simr
