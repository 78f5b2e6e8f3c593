#include "ops.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "analysis/cache.h"
#include "obs/metrics.h"
#include "simr/streamcache.h"
#include "trace/replay.h"

namespace perfbench
{

using namespace simr;

namespace
{

/** Process-wide cache counters, read before and after an operation. */
struct CacheCounters
{
    uint64_t traceHits = 0, traceMisses = 0;
    uint64_t streamHits = 0, streamMisses = 0;
    uint64_t programs = 0;

    static CacheCounters
    read()
    {
        CacheCounters c;
        if (trace::TraceCache *tc = trace::TraceCache::process()) {
            c.traceHits = tc->hits();
            c.traceMisses = tc->misses();
        }
        if (StreamCache *sc = StreamCache::process()) {
            c.streamHits = sc->hits();
            c.streamMisses = sc->misses();
        }
        if (analysis::AnalysisCache *ac = analysis::AnalysisCache::process())
            c.programs = ac->misses();
        return c;
    }
};

/** Fold an operation's cache activity into the totals and digest. */
void
noteCaches(Bench &b, const CacheCounters &before,
           const trace::ReuseStats *reuse)
{
    const CacheCounters after = CacheCounters::read();
    const uint64_t sh = after.streamHits - before.streamHits;
    const uint64_t sm = after.streamMisses - before.streamMisses;
    b.cur->streamHits += sh;
    b.cur->streamLookups += sh + sm;
    b.cur->programs += after.programs - before.programs;
    b.reuseDigest.add(after.traceHits - before.traceHits);
    b.reuseDigest.add(after.traceMisses - before.traceMisses);
    b.reuseDigest.add(sh);
    b.reuseDigest.add(sm);
    if (reuse != nullptr) {
        b.cur->reuse += *reuse;
        for (uint64_t v : {reuse->hits, reuse->misses, reuse->dedupHits,
                           reuse->replayedOps, reuse->capturedOps,
                           reuse->streamHits, reuse->streamMisses,
                           reuse->staticCaptures})
            b.reuseDigest.add(v);
    }
}

void
check(Bench &b, bool ok)
{
    ++b.cur->ops;
    if (!ok)
        ++b.cur->opsFailed;
}

bool
finitePositive(double v)
{
    return std::isfinite(v) && v > 0;
}

/** The runner's stream-cache key for one front-end unit. */
std::string
streamKey(const svc::Service &svc, uint64_t program_fp, const char *kind,
          int width, const TimingOptions &opt, int contexts, int index)
{
    return svc.traits().name + '|' + std::to_string(program_fp) + '|' +
        kind + '|' + std::to_string(width) + '|' +
        std::to_string(static_cast<int>(opt.policy)) + '|' +
        std::to_string(static_cast<int>(opt.reconv)) + '|' +
        std::to_string(static_cast<int>(opt.alloc)) + '|' +
        std::to_string(opt.requests) + '|' + std::to_string(opt.seed) +
        '|' + std::to_string(contexts) + '|' + std::to_string(index);
}

/** One front-end unit: live engine / scalar stream, or a replay. */
struct Unit
{
    std::string key;
    bool isEngine = false;
    std::unique_ptr<simt::LockstepEngine> engine;
    std::unique_ptr<trace::ScalarStream> scalar;
    std::unique_ptr<trace::ReplayStream> replay;
    std::unique_ptr<trace::CapturingStream> capturer;
    simt::SimtStats cachedStats;
    trace::DynStream *stream = nullptr;
};

/**
 * runTiming rebuilt from its public pieces with a span around each
 * layer call. Front-end construction, cache lookups and inserts follow
 * the runner call for call, so results and reuse counts match it.
 */
TimingRun
tracedTiming(Bench &b, const Cell &cell)
{
    SpanLog &log = b.log;
    obs::Registry reg;
    obs::Scope scope(&reg, nullptr);

    std::unique_ptr<svc::Service> svc;
    {
        Scoped s(log, "buildService", "services", "build");
        svc = svc::buildService(cell.service);
        s.count = 1;
    }
    TimingOptions opt = cell.opt;
    opt.seed = cellSeed(cell.opt.seed, cell.service, cell.cfg);
    const core::CoreConfig &cfg = cell.cfg;

    std::shared_ptr<const analysis::CachedAnalysis> ca;
    {
        Scoped s(log, "gateAndProve", "analysis");
        const uint64_t misses = CacheCounters::read().programs;
        ca = analysis::gateAndProve(svc->program());
        s.count = CacheCounters::read().programs - misses;
    }

    trace::TraceCache *rcache =
        opt.useTraceCache ? trace::TraceCache::process() : nullptr;
    StreamCache *scache = opt.useTraceCache ? StreamCache::process() : nullptr;
    std::vector<Unit> units;

    auto lookup = [&](Unit &u) {
        Scoped s(log, "StreamCache::lookup", "simr");
        s.count = 1;
        StreamEntry ent;
        if (scache == nullptr || !scache->lookup(u.key, &ent))
            return false;
        u.replay = std::make_unique<trace::ReplayStream>(
            svc->program(), ent.trace, ent.compiled);
        u.cachedStats = ent.stats;
        u.stream = u.replay.get();
        return true;
    };
    auto gen = [&] {
        Scoped s(log, "genRequests", "services", "gen");
        auto reqs = genRequests(*svc, opt.requests, opt.seed);
        s.count = reqs.size();
        b.cur->genRequests += reqs.size();
        return reqs;
    };

    if (cfg.batchWidth > 1) {
        int bsize = cfg.batchWidth;
        if (opt.batchOverride > 0)
            bsize = opt.batchOverride;
        else if (opt.useTunedBatch)
            bsize = std::min(bsize, svc->traits().tunedBatch);
        const int n = cfg.smtThreads;
        units.resize(static_cast<size_t>(n));
        auto reqs = gen();
        std::vector<batch::Batch> batches;
        {
            Scoped s(log, "formBatches", "batching");
            batch::BatchingServer server(opt.policy, bsize);
            batches = server.formBatches(reqs);
            s.count = batches.size();
            b.cur->batches += batches.size();
            b.cur->batchSlots += batches.size() * static_cast<uint64_t>(bsize);
            for (const batch::Batch &bt : batches)
                b.cur->batchedRequests += bt.requests.size();
        }
        std::vector<std::vector<batch::Batch>> perEngine(
            static_cast<size_t>(n));
        for (size_t i = 0; i < batches.size(); ++i)
            perEngine[i % perEngine.size()].push_back(std::move(batches[i]));
        for (int e = 0; e < n; ++e) {
            Unit &u = units[static_cast<size_t>(e)];
            u.isEngine = true;
            u.key = streamKey(*svc, ca->fingerprint, "lockstep", bsize, opt,
                              n, e);
            if (lookup(u))
                continue;
            u.engine = std::make_unique<simt::LockstepEngine>(
                svc->program(), opt.reconv, bsize,
                makeBatchProvider(*svc,
                                  std::move(perEngine[static_cast<size_t>(e)]),
                                  opt.alloc),
                simt::SpinEscapeConfig(), rcache);
            u.engine->setStaticProof(ca->proof);
            u.stream = u.engine.get();
            if (scache != nullptr) {
                u.capturer = std::make_unique<trace::CapturingStream>(
                    svc->program(), *u.engine);
                u.stream = u.capturer.get();
            }
        }
    } else {
        const int n = std::max(1, cfg.smtThreads);
        units.resize(static_cast<size_t>(n));
        bool allHit = scache != nullptr;
        for (int t = 0; t < n; ++t) {
            Unit &u = units[static_cast<size_t>(t)];
            u.key = streamKey(*svc, ca->fingerprint, "scalar", 1, opt, n, t);
            allHit = lookup(u) && allHit;
        }
        if (!allHit) {
            auto reqs = gen();
            std::vector<std::vector<svc::Request>> perThread(
                static_cast<size_t>(n));
            for (size_t i = 0; i < reqs.size(); ++i)
                perThread[i % perThread.size()].push_back(reqs[i]);
            for (int t = 0; t < n; ++t) {
                Unit &u = units[static_cast<size_t>(t)];
                if (u.replay)
                    continue;
                u.scalar = std::make_unique<trace::ScalarStream>(
                    svc->program(),
                    makeScalarProvider(*svc,
                                       perThread[static_cast<size_t>(t)],
                                       static_cast<uint64_t>(t), opt.alloc),
                    rcache);
                u.scalar->setStaticProof(ca->proof);
                u.stream = u.scalar.get();
                if (scache != nullptr) {
                    u.capturer = std::make_unique<trace::CapturingStream>(
                        svc->program(), *u.scalar);
                    u.stream = u.capturer.get();
                }
            }
        }
    }

    TimingRun run;
    {
        Clock::duration inside{0};
        uint64_t replayOps = 0;
        uint64_t liveOps = 0;
        std::vector<TimedStream> shims;
        shims.reserve(units.size());
        for (Unit &u : units)
            shims.emplace_back(*u.stream, &inside,
                               u.replay ? &replayOps : &liveOps);
        std::vector<trace::DynStream *> streams;
        for (TimedStream &t : shims)
            streams.push_back(&t);
        Scoped s(log, "TimingCore::run", "core", cfg.name);
        core::TimingCore core(cfg);
        const double start = log.now();
        run.core = core.run(streams);
        const double end = log.now();
        s.count = run.core.batchOps;
        // The shim's clock reads are the benchmark's cost: the part
        // inside the measured intervals comes out of trace, the rest
        // out of core, and both go to bench/clock.
        uint64_t calls = 0;
        for (const TimedStream &t : shims)
            calls += t.calls;
        const ClockCost &cc = log.clockCost();
        const double in = std::chrono::duration<double>(inside).count();
        const double clockIn = std::min(in, calls * cc.inside);
        const double clockS = std::min(end - start - (in - clockIn),
                                       calls * (cc.inside + cc.outside));
        log.addChild(s.id(), "DynStream::next", "trace", start, in - clockIn,
                     replayOps + liveOps);
        log.addChild(s.id(), "clock reads", "bench", start + in - clockIn,
                     clockS, calls, "clock");
        b.cur->liveOps += liveOps;
    }
    {
        Scoped s(log, "capture + StreamCache::insert", "simr");
        for (Unit &u : units) {
            if (u.replay) {
                if (u.isEngine)
                    run.simt += u.cachedStats;
                ++run.reuse.streamHits;
                continue;
            }
            if (u.engine) {
                run.simt += u.engine->stats();
                run.reuse += u.engine->reuseStats();
            }
            if (u.scalar)
                run.reuse += u.scalar->reuseStats();
            if (scache != nullptr) {
                ++run.reuse.streamMisses;
                if (u.capturer) {
                    scache->insert(u.key,
                                   StreamEntry{u.capturer->take(), nullptr,
                                               u.engine ? u.engine->stats()
                                                        : simt::SimtStats{}});
                    ++s.count;
                }
            }
        }
    }
    {
        Scoped s(log, "computeEnergy", "energy");
        run.energy = energy::computeEnergy(
            run.core, energy::EnergyParams::forConfig(cfg),
            cfg.chipStaticWatts / cfg.chipCores);
        s.count = 1;
    }
    return run;
}

} // namespace

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        1e-9 * static_cast<double>(ts.tv_nsec);
}

bool
sameRun(const TimingRun &a, const TimingRun &b)
{
    Digest da, db;
    da.add(a);
    db.add(b);
    return da.value() == db.value();
}

TimingRun
timingCell(Bench &b, const Cell &cell)
{
    Scoped span(b.log, "cell " + cell.cfg.name + " " + cell.service, "bench",
                cell.cfg.name);
    const CacheCounters before = CacheCounters::read();
    TimingRun run;
    {
        OpTimer timer(b);
        if (b.log.enabled()) {
            run = tracedTiming(b, cell);
        } else {
            obs::Registry reg;
            obs::Scope scope(&reg, nullptr);
            run = runCells({cell}, 1).front();
        }
    }
    span.count = run.core.requests;
    noteCaches(b, before, &run.reuse);

    const bool ok = run.core.requests ==
            static_cast<uint64_t>(cell.opt.requests) &&
        run.simt.hintViolations == 0 && finitePositive(run.energy.total()) &&
        finitePositive(run.reqPerJoule());
    check(b, ok);
    b.digest.add(run);

    Totals &t = *b.cur;
    t.simRequests += run.core.requests;
    t.coreCycles += run.core.cycles;
    t.coreTickedCycles += run.core.cycles - run.core.skippedCycles;
    t.coreBatchOps += run.core.batchOps;
    t.simtBatchOps += run.simt.batchOps;
    t.simtScalarOps += run.simt.scalarOps;
    t.simtSlots += static_cast<double>(run.simt.batchOps) * run.simt.width;
    t.l1Accesses += run.core.l1Stats.accesses;
    t.l1Misses += run.core.l1Stats.misses;
    t.mshrMerges += run.core.hierStats.mshrMerges;
    t.tlbMisses += run.core.tlbStats.misses;
    return run;
}

void
efficiencyCell(Bench &b, const svc::Service &svc, batch::Policy policy,
               simt::ReconvPolicy reconv, int width, int n, uint64_t seed)
{
    Scoped span(b.log, "efficiency " + svc.traits().name, "bench");
    const CacheCounters before = CacheCounters::read();
    EfficiencyResult r;
    {
        OpTimer timer(b);
        obs::Registry reg;
        obs::Scope scope(&reg, nullptr);
        Scoped s(b.log, "measureEfficiency", "trace");
        r = measureEfficiency(svc, policy, reconv, width, n, seed);
        s.count = r.stats.batchOps;
    }
    span.count = static_cast<uint64_t>(n);
    const bool replayed =
        StreamCache::process() != nullptr &&
        StreamCache::process()->hits() > before.streamHits;
    noteCaches(b, before, nullptr);

    const uint64_t minBatches =
        static_cast<uint64_t>((n + width - 1) / width);
    const bool ok = r.stats.hintViolations == 0 &&
        r.stats.batches >= minBatches && r.stats.scalarOps > 0 &&
        r.efficiency() > 0 && r.efficiency() <= 1.0;
    check(b, ok);
    b.digest.add(r.stats);

    Totals &t = *b.cur;
    t.simRequests += static_cast<uint64_t>(n);
    t.simtBatchOps += r.stats.batchOps;
    t.simtScalarOps += r.stats.scalarOps;
    t.simtSlots += static_cast<double>(r.stats.batchOps) * r.stats.width;
    if (!replayed)
        t.liveOps += r.stats.batchOps;
}

void
cacheStudy(Bench &b, const svc::Service &svc, int batch,
           const CacheStudyOptions &opt)
{
    const std::string what = batch > 0 ? "rpu" : "cpu";
    Scoped span(b.log, "cache study " + what + " " + svc.traits().name,
                "bench");
    CacheStudyResult r;
    {
        OpTimer timer(b);
        obs::Registry reg;
        obs::Scope scope(&reg, nullptr);
        Scoped s(b.log, batch > 0 ? "studyRpuCache" : "studyCpuCache",
                 "mem", what);
        r = batch > 0 ? studyRpuCache(svc, batch, opt)
                      : studyCpuCache(svc, opt);
        s.count = r.l1Accesses;
    }
    span.count = static_cast<uint64_t>(opt.requests);
    const bool ok = r.scalarInsts > 0 && r.l1Accesses > 0 &&
        r.l1Misses <= r.l1Accesses;
    check(b, ok);
    b.digest.add(r);

    Totals &t = *b.cur;
    t.simRequests += static_cast<uint64_t>(opt.requests);
    t.l1Accesses += r.l1Accesses;
    t.l1Misses += r.l1Misses;
}

void
clusterPoint(Bench &b, const std::string &system,
             const sys::ClusterConfig &cfg)
{
    Scoped span(b.log, "load point " + system, "bench", system);
    sys::ClusterResult r;
    {
        OpTimer timer(b);
        obs::Registry reg;
        obs::Scope scope(&reg, nullptr);
        Scoped s(b.log, "runCluster", "sys", system);
        r = sys::runCluster(cfg);
        s.count = r.pdes.events;
    }
    span.count = cfg.requests;
    const bool ok = r.sys.e2eUs.count() == cfg.requests &&
        finitePositive(r.sys.achievedQps) && r.servers == cfg.totalServers();
    check(b, ok);
    b.digest.add(r.sys);

    Totals &t = *b.cur;
    t.simRequests += r.sys.e2eUs.count();
    t.sysEvents += r.pdes.events;
    t.sysWindows += r.pdes.windows;
    t.sysMailboxSends += r.pdes.mailboxSends;
    t.sysMailboxSpills += r.pdes.mailboxOverflows;
    t.sysBatches += r.batches;
    t.sysMemcMisses += r.memcMisses;
}

} // namespace perfbench
