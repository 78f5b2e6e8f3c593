#include "simr/runner.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <string>

#include "analysis/cache.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "obs/divergence.h"
#include "simr/cachestudy.h"
#include "simr/streamcache.h"
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
 * Fold one drained DynOp into a stream digest: every field but the
 * StaticInst pointer (the pc names it), and the lane/address arrays up
 * to addrCount, each address multiplied off the chain with its lane
 * xored into the low bits. A word costs one rotate, xor and multiply on
 * the chain, an injective step, so one changed word always changes the
 * digest; that keeps it cheap next to the replay it checks.
 */
uint64_t
foldOp(uint64_t h, const trace::DynOp &op)
{
    constexpr uint64_t k = 0x517cc1b727220a95ULL;
    auto fold = [&h](uint64_t w) { h = (std::rotl(h, 5) ^ w) * k; };
    fold(op.pc);
    fold(uint64_t{op.mask} << 32 | op.takenMask);
    fold(uint64_t{op.endMask} << 32 | uint64_t{op.callDepth} << 24 |
         uint64_t{op.addrCount} << 16 | uint64_t{op.batchStart} << 1 |
         uint64_t{op.pathSwitch});
    fold(uint64_t{op.dep1} << 32 | uint64_t{op.dep2} << 16 |
         op.accessSize);
    for (uint8_t i = 0; i < op.addrCount; ++i)
        fold((op.addr[i] * 0x9e3779b97f4a7c15ULL) ^ op.lane[i]);
    return h;
}

/**
 * The shape of a front end: the lockstep width, or 0 for scalar
 * streams, and the number of hardware contexts the batches or requests
 * are dealt across round-robin (one unit per context).
 */
struct FrontEndShape
{
    int width = 0;
    int contexts = 1;
};

/**
 * A timing cell's front-end shape: lockstep engines for batch configs
 * (the batch override, else the service's tuned batch when asked, else
 * the core's width), one per hardware batch context; scalar streams
 * otherwise, one per SMT context.
 */
FrontEndShape
shapeOf(const svc::Service &svc, const core::CoreConfig &cfg,
        const TimingOptions &opt)
{
    if (cfg.batchWidth <= 1)
        return {0, std::max(1, cfg.smtThreads)};
    int width = cfg.batchWidth;
    if (opt.batchOverride > 0)
        width = opt.batchOverride;
    else if (opt.useTunedBatch)
        width = std::min(width, svc.traits().tunedBatch);
    return {width, cfg.smtThreads};
}

/** One lockstep engine `width` lanes wide: a probe's or an RPU study's. */
FrontEndShape
oneEngine(int width)
{
    simr_assert(width >= 1, "a lockstep front end needs width >= 1");
    return {width, 1};
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
 * Build the DynOp streams of one front end of the given shape: every
 * chip-level run -- timing cell, front-end sweep, efficiency probe and
 * cache study -- gets its streams here. With opt.useTraceCache each
 * unit is served from the process-wide StreamCache when an identical
 * front end already ran, and live units capture into it and replay
 * requests through the request-level TraceCache; without it every unit
 * runs live and no cache is consulted. Lockstep batching always runs
 * (its batch.* metrics must record identically warm and cold: the
 * runCells determinism contract; it is microseconds next to the
 * execution a hit skips); scalar request generation is skipped when
 * every unit hits.
 */
FrontEnd
buildFrontEnd(const svc::Service &svc, FrontEndShape shape,
              const TimingOptions &opt, const analysis::CachedAnalysis &ca)
{
    FrontEnd fe;
    trace::TraceCache *rcache =
        opt.useTraceCache ? trace::TraceCache::process() : nullptr;
    fe.scache = opt.useTraceCache ? StreamCache::process() : nullptr;
    const bool lockstep = shape.width > 0;
    const auto n = static_cast<size_t>(shape.contexts);
    fe.units.resize(n);

    bool allHit = fe.scache != nullptr;
    for (size_t i = 0; i < n; ++i) {
        FrontEndUnit &u = fe.units[i];
        u.isEngine = lockstep;
        if (fe.scache == nullptr)
            continue;
        u.key = streamKey(svc, ca.fingerprint,
                          lockstep ? "lockstep" : "scalar",
                          lockstep ? shape.width : 1, opt, shape.contexts,
                          static_cast<int>(i));
        StreamEntry ent;
        if (fe.scache->lookup(u.key, &ent)) {
            u.replay = std::make_unique<trace::ReplayStream>(
                svc.program(), ent.trace);
            u.cachedStats = ent.stats;
            u.stream = u.replay.get();
        } else {
            allHit = false;
        }
    }
    if (!lockstep && allHit)
        return fe;

    // A live unit drains its engine or scalar stream, through a
    // capturer when a stream cache will keep the result.
    auto attach = [&](FrontEndUnit &u, trace::DynStream &live) {
        u.stream = &live;
        if (fe.scache != nullptr) {
            u.capturer = std::make_unique<trace::CapturingStream>(
                svc.program(), live);
            u.stream = u.capturer.get();
        }
    };
    auto reqs = genRequests(svc, opt.requests, opt.seed);
    if (lockstep) {
        batch::BatchingServer server(opt.policy, shape.width);
        auto batches = server.formBatches(reqs);
        std::vector<std::vector<batch::Batch>> per_unit(n);
        for (size_t i = 0; i < batches.size(); ++i)
            per_unit[i % n].push_back(std::move(batches[i]));
        for (size_t i = 0; i < n; ++i) {
            FrontEndUnit &u = fe.units[i];
            if (u.replay)
                continue;
            u.engine = std::make_unique<simt::LockstepEngine>(
                svc.program(), opt.reconv, shape.width,
                makeBatchProvider(svc, std::move(per_unit[i]), opt.alloc),
                simt::SpinEscapeConfig(), rcache);
            u.engine->setStaticProof(ca.proof);
            attach(u, *u.engine);
        }
    } else {
        std::vector<std::vector<svc::Request>> per_unit(n);
        for (size_t i = 0; i < reqs.size(); ++i)
            per_unit[i % n].push_back(std::move(reqs[i]));
        for (size_t i = 0; i < n; ++i) {
            FrontEndUnit &u = fe.units[i];
            if (u.replay)
                continue;
            u.scalar = std::make_unique<trace::ScalarStream>(
                svc.program(),
                makeScalarProvider(svc, std::move(per_unit[i]),
                                   static_cast<uint64_t>(i), opt.alloc),
                rcache);
            u.scalar->setStaticProof(ca.proof);
            attach(u, *u.scalar);
        }
    }
    return fe;
}

/**
 * The one drain loop of the push consumers (front-end sweeps,
 * efficiency probes, cache studies): every unit's stream in unit
 * order, each op handed to `consume`, then the units folded into `run`
 * (a timing core pulls its streams itself).
 */
template <typename Consume>
void
drain(FrontEnd &fe, FrontEndRun *run, Consume &&consume)
{
    trace::DynOp op;
    for (FrontEndUnit &u : fe.units) {
        while (u.stream->next(op)) {
            ++run->dynOps;
            consume(op);
        }
        run->requests += u.stream->requestsCompleted();
    }
    fe.collect(&run->simt, &run->reuse);
}

/**
 * Run a one-context front end through the MCU and an 8-way L1 of
 * `l1_kb` KB with `banks` banks, counting lane instructions (a scalar
 * op's mask is 1, so activeLanes() counts it once) and the accesses
 * before and after coalescing.
 */
CacheStudyResult
studyL1(const svc::Service &svc, FrontEndShape shape,
        const TimingOptions &opt, mem::AddressMap map, int banks,
        uint64_t l1_kb)
{
    auto ca = analysis::gateAndProve(svc.program());
    FrontEnd fe = buildFrontEnd(svc, shape, opt, *ca);

    mem::Mcu mcu(map);
    mem::CacheConfig l1cfg;
    l1cfg.name = "l1d";
    l1cfg.sizeBytes = l1_kb * 1024;
    l1cfg.assoc = 8;
    l1cfg.banks = banks;
    mem::Cache l1(l1cfg);

    CacheStudyResult res;
    std::vector<mem::MemAccess> accesses;
    FrontEndRun run;
    drain(fe, &run, [&](const trace::DynOp &op) {
        res.scalarInsts += static_cast<uint64_t>(op.activeLanes());
        if (!op.isMem())
            return;
        res.laneAccesses += op.addrCount;
        mcu.coalesce(op, accesses);
        for (const auto &a : accesses) {
            ++res.l1Accesses;
            if (!l1.access(a.paddr, a.isStore))
                ++res.l1Misses;
        }
    });
    res.mcu = mcu.stats();
    return res;
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
    TimingOptions opt;
    opt.policy = policy;
    opt.reconv = reconv;
    opt.requests = n;
    opt.seed = seed;
    opt.useTraceCache = false;
    FrontEnd fe = buildFrontEnd(svc, oneEngine(width), opt, *ca);
    fe.units.front().engine->setObserver(observer);
    FrontEndRun run;
    drain(fe, &run, [](const trace::DynOp &) {});
    obs::recordSimtStats(obs::Scope::registry(), run.simt);
    return EfficiencyResult{run.simt};
}

CacheStudyResult
studyRpuCache(const svc::Service &svc, int batch_size,
              const CacheStudyOptions &opt)
{
    TimingOptions t;
    t.policy = opt.policy;
    t.reconv = simt::ReconvPolicy::MinSpPc;
    t.alloc = opt.alloc;
    t.requests = opt.requests;
    t.seed = opt.seed;
    t.useTraceCache = false;
    return studyL1(svc, oneEngine(batch_size), t,
                   mem::AddressMap(opt.stackInterleave, batch_size), 8,
                   opt.l1KB);
}

CacheStudyResult
studyCpuCache(const svc::Service &svc, const CacheStudyOptions &opt)
{
    TimingOptions t;
    t.alloc = mem::AllocPolicy::GlibcLike;
    t.requests = opt.requests;
    t.seed = opt.seed;
    t.useTraceCache = false;
    return studyL1(svc, {0, 1}, t, mem::AddressMap(false, 1), 1,
                   opt.l1KB);
}

FrontEndRun
runFrontEnd(const svc::Service &svc, const core::CoreConfig &cfg,
            const TimingOptions &opt)
{
    auto ca = analysis::gateAndProve(svc.program());
    FrontEnd fe = buildFrontEnd(svc, shapeOf(svc, cfg, opt), opt, *ca);
    FrontEndRun run;
    drain(fe, &run, [&run](const trace::DynOp &op) {
        run.digest = foldOp(run.digest, op);
    });
    return run;
}

TimingRun
runTiming(const svc::Service &svc, const core::CoreConfig &cfg,
          const TimingOptions &opt)
{
    auto ca = analysis::gateAndProve(svc.program());

    TimingRun run;
    core::TimingCore core(cfg);
    FrontEnd fe = buildFrontEnd(svc, shapeOf(svc, cfg, opt), opt, *ca);
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
        reg->gauge("trace.stream_ops")->set(
            static_cast<double>(scache->opsResident()));
        reg->gauge("trace.stream_entries")->set(
            static_cast<double>(scache->entries()));
        reg->gauge("trace.stream_evictions")->set(
            static_cast<double>(scache->evictions()));
    }
}

void
recordAnalysisStats()
{
    analysis::AnalysisCache *cache = analysis::AnalysisCache::process();
    obs::Registry *reg = obs::Scope::registry();
    reg->counter("analysis.cache_hits")->inc(cache->hits());
    reg->counter("analysis.cache_misses")->inc(cache->misses());
    reg->gauge("analysis.cache_entries")->set(
        static_cast<double>(cache->entries()));
}

} // namespace simr
