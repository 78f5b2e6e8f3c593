/**
 * @file
 * The tier-1 determinism and soundness gates, one test each. Each is
 * registered under its own ctest name (tests/CMakeLists.txt):
 *
 *  - core_event_driven_gate: the event-driven loop against the
 *    per-cycle reference, 14 services x 7 design points;
 *  - trace_replay_gate: request-trace replay against live, 14 x 4 at
 *    harness widths 1 and 4;
 *  - replay_compile_gate: stream replay against live, the same sweep
 *    plus its front-end twin;
 *  - journey_determinism_gate: journey capture against none, at
 *    harness widths 1 and 4;
 *  - sys_pdes_gate: the sharded cluster engine against the sequential
 *    one;
 *  - dataflow_soundness_gate: the static dataflow verdicts against
 *    dynamic execution.
 *
 * Results are compared with the types' own equality (core::sameOutput,
 * SimtStats, SysResult and Journey ==, sys::sameOutput). Each gate also
 * checks that the path it guards actually ran, and a failure names the
 * diverged cells.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/cache.h"
#include "cells.h"
#include "obs/divergence.h"
#include "trace/interp.h"

using namespace simr;
using namespace simr::bench;

namespace
{

/** The gates' scale: 128 timing requests per cell at seed 42. */
constexpr int kGateRequests = 128;
constexpr uint64_t kGateSeed = 42;

TimingOptions
gateOptions(bool use_trace_cache)
{
    TimingOptions opt;
    opt.requests = kGateRequests;
    opt.seed = kGateSeed;
    opt.useTraceCache = use_trace_cache;
    return opt;
}

std::string
join(const std::vector<std::string> &names)
{
    std::string out;
    for (const auto &n : names)
        out += " " + n;
    return out;
}

} // namespace

TEST(Gates, CoreEventDriven)
{
    // Every design point's sweep under the per-cycle reference loop
    // and under the event-driven loop, cell for cell.
    const std::vector<DesignPoint> points = designPoints();
    const auto &names = svc::serviceNames();
    std::vector<Cell> ref_cells;
    for (const DesignPoint &dp : points)
        for (const auto &name : names)
            ref_cells.push_back({name, dp.cfg, gateOptions(true)});
    std::vector<Cell> event_cells = ref_cells;
    for (size_t i = 0; i < ref_cells.size(); ++i) {
        ref_cells[i].cfg.eventDriven = false;
        event_cells[i].cfg.eventDriven = true;
    }

    const auto ref = runCells(ref_cells);
    const auto event = runCells(event_cells);
    std::vector<std::string> diverged;
    for (size_t i = 0; i < ref.size(); ++i) {
        const std::string cell = std::string(points[i / names.size()].label) +
            "/" + names[i % names.size()];
        if (!core::sameOutput(ref[i].core, event[i].core))
            diverged.push_back(cell);
        // The reference loop must never skip: the gate would then
        // compare the event-driven loop against itself.
        if (ref[i].core.skippedCycles != 0)
            diverged.push_back(cell + "(ref-skipped)");
    }
    EXPECT_TRUE(diverged.empty()) << "DIVERGED:" << join(diverged);
}

TEST(Gates, TraceReplay)
{
    // Request level: a cold pass from cleared caches captures each
    // request and replays every later request that hits a captured
    // trace through its lane's ReplayCursor; no stream replays.
    trace::TraceCache *cache = trace::TraceCache::process();
    ASSERT_NE(cache, nullptr) << "cache DISABLED (SIMR_TRACE_CACHE=0)";
    const auto live_cells = sweepCells(gateOptions(false));
    const auto cells = sweepCells(gateOptions(true));

    uint64_t hits = 0;
    uint64_t replayed_ops = 0;
    for (int threads : {1, 4}) {
        const auto live = runCells(live_cells, threads);
        clearCaches();
        const auto cold = runCells(cells, threads);
        for (const TimingRun &run : cold) {
            hits += run.reuse.hits;
            replayed_ops += run.reuse.replayedOps;
        }
        const auto diverged = divergedCells(cells, live, cold, "cold");
        EXPECT_TRUE(diverged.empty())
            << "threads=" << threads << " DIVERGED:" << join(diverged);
    }
    // A gate whose replay path never ran proves nothing about it.
    EXPECT_GT(hits, 0u) << "no request trace replayed";
    std::printf("trace_replay_gate: %llu request-trace hits, %llu "
                "replayed ops\n", static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(replayed_ops));
}

TEST(Gates, ReplayCompile)
{
    // Stream level: a front-end sweep from cleared caches fills the
    // stream cache (it shares stream keys with the timing sweep and
    // skips the timing core), then a warm pass replays every cell.
    StreamCache *scache = StreamCache::process();
    ASSERT_NE(scache, nullptr) << "cache DISABLED (SIMR_TRACE_CACHE=0)";
    const auto live_cells = sweepCells(gateOptions(false));
    const auto cells = sweepCells(gateOptions(true));

    uint64_t warm_hits = 0;
    uint64_t warm_misses = 0;
    auto warmPass = [&](auto &&pass) {
        const uint64_t h0 = scache->hits();
        const uint64_t m0 = scache->misses();
        auto runs = pass();
        warm_hits += scache->hits() - h0;
        warm_misses += scache->misses() - m0;
        return runs;
    };

    for (int threads : {1, 4}) {
        const auto live = runCells(live_cells, threads);
        clearCaches();
        frontEndSweep(cells);
        const auto warm =
            warmPass([&] { return runCells(cells, threads); });
        const auto diverged = divergedCells(cells, live, warm, "warm");
        EXPECT_TRUE(diverged.empty())
            << "threads=" << threads << " DIVERGED:" << join(diverged);
    }

    const auto fe_live = frontEndSweep(live_cells);
    const auto fe_warm = warmPass([&] { return frontEndSweep(cells); });
    const auto diverged =
        divergedCells(cells, fe_live, fe_warm, "front-end");
    EXPECT_TRUE(diverged.empty()) << "front-end DIVERGED:"
                                  << join(diverged);

    // Every warm lookup must hit: a miss means that cell ran live, so
    // its identity with live proves nothing about stream replay.
    EXPECT_GT(warm_hits, 0u);
    EXPECT_EQ(warm_misses, 0u) << "a warm lookup missed";
    std::printf("replay_compile_gate: %llu warm stream hits, %llu warm "
                "misses\n", static_cast<unsigned long long>(warm_hits),
                static_cast<unsigned long long>(warm_misses));
}

TEST(Gates, JourneyDeterminism)
{
    // SysResult must be bit-identical with journeys off, sampled and
    // all, at harness widths 1 and 4, and the sampled journey set must
    // not depend on the width.
    const int requests = 20000;
    const std::vector<SysCell> cells = {{false, true, 8000},
                                        {true, true, 20000},
                                        {true, false, 20000},
                                        {false, true, 16000}};
    const obs::JourneyMode modes[] = {obs::JourneyMode::Off,
                                      obs::JourneyMode::Sampled,
                                      obs::JourneyMode::All};

    // Reference: serial, journeys off.
    std::vector<sys::SysResult> ref;
    for (const SysCell &c : cells)
        ref.push_back(runSysCell(c, requests, kGateSeed,
                                 obs::JourneyMode::Off, nullptr));

    std::vector<size_t> idx(cells.size());
    for (size_t i = 0; i < cells.size(); ++i)
        idx[i] = i;
    std::vector<std::vector<uint64_t>> sampled_ref;
    for (int threads : {1, 4}) {
        for (obs::JourneyMode mode : modes) {
            const bool sampled = mode == obs::JourneyMode::Sampled;
            std::vector<std::vector<uint64_t>> ids(cells.size());
            const auto results = parallelMap(
                idx,
                [&](size_t i) {
                    return runSysCell(cells[i], requests, kGateSeed, mode,
                                      sampled ? &ids[i] : nullptr);
                },
                threads);
            for (size_t i = 0; i < cells.size(); ++i)
                EXPECT_TRUE(results[i] == ref[i])
                    << "cell " << i << " perturbed (mode "
                    << obs::journeyModeName(mode) << ", " << threads
                    << " threads)";
            if (!sampled)
                continue;
            if (threads == 1)
                sampled_ref = ids;
            else
                EXPECT_TRUE(ids == sampled_ref)
                    << "sampled set depends on thread count";
        }
    }
}

TEST(Gates, SysPdes)
{
    // The sharded engine at shards {1, 4, 16} x workers {1, 4} against
    // the sequential reference: every ClusterResult field but the
    // engine diagnostics, and the sampled journey set.
    uint64_t sends = 0;
    for (const ClusterCell &cell : pdesGateCells(kGateSeed)) {
        std::vector<obs::Journey> ref_j;
        const sys::ClusterResult ref = runEngine(cell.cfg, 0, 1, &ref_j);
        for (int shards : {1, 4, 16}) {
            for (int threads : {1, 4}) {
                std::vector<obs::Journey> js;
                const sys::ClusterResult r =
                    runEngine(cell.cfg, shards, threads, &js);
                EXPECT_TRUE(sys::sameOutput(ref, r))
                    << "cell " << cell.name << " diverged at " << shards
                    << " shards, " << threads << " threads";
                EXPECT_TRUE(js == ref_j)
                    << "cell " << cell.name << " journey set diverged at "
                    << shards << " shards, " << threads << " threads";
                // Every sharded cell must hand events across shards,
                // or the gate stopped covering the outbox transport.
                if (shards > 1) {
                    EXPECT_GT(r.pdes.mailboxSends, 0u)
                        << "cell " << cell.name
                        << " sent no cross-shard event at " << shards
                        << " shards, " << threads << " threads";
                    sends += r.pdes.mailboxSends;
                }
            }
        }
    }
    std::printf("sys_pdes_gate: %llu cross-shard events at 4 and 16 "
                "shards\n", static_cast<unsigned long long>(sends));
}

namespace
{

struct SoundnessTotals
{
    uint64_t requests = 0;
    uint64_t memOps = 0;
    uint64_t divergeEvents = 0;
};

/**
 * Scalar half of the soundness gate: the dynamic taint tier of every
 * request against the static bound, and for tier-1-proven programs
 * every memory op's dynamic relocation kind against the proof's
 * memKind table (what the capture fast path relies on).
 */
void
checkTaint(const svc::Service &svc, const trace::StaticProof &proof,
           int requests, SoundnessTotals *out)
{
    const std::string &name = svc.traits().name;
    trace::ProgramIndex pi(svc.program());
    trace::ThreadState ts(svc.program());
    trace::TaintTracker taint;
    auto reqs = genRequests(svc, requests, 7);
    mem::HeapAllocator alloc(mem::AllocPolicy::SimrAware);
    for (size_t i = 0; i < reqs.size(); ++i) {
        auto init = svc::makeThreadInit(svc, reqs[i], 0, i, alloc);
        ts.reset(init);
        taint.reset();
        trace::StepResult r;
        while (!ts.done()) {
            ts.step(r);
            trace::AddrKind k = taint.step(*r.si, r);
            if (!isa::opInfo(r.si->op).isMem)
                continue;
            ++out->memOps;
            if (proof.tier1()) {
                EXPECT_EQ(static_cast<int>(k),
                          static_cast<int>(proof.memKind[pi.flatOf(r.pc)]))
                    << name << ": mem kind at pc=0x" << std::hex << r.pc;
            }
        }
        const int dyn_tier = taint.identityDependent() ? 3
            : taint.frameDependent() ? 2 : 1;
        EXPECT_LE(dyn_tier, proof.taintTierBound)
            << name << " req " << i << ": dynamic tier above the static "
            << "bound";
        ++out->requests;
    }
}

/**
 * Lockstep half: one (reconvergence, batching) combination with the
 * proof and a hint-joined profiler attached. Any divergence at an
 * always-uniform branch, or at a per-batch-uniform branch inside an
 * (api, argLen)-uniform batch, is a soundness failure.
 */
void
checkUniformity(const svc::Service &svc,
                const analysis::CachedAnalysis &ca,
                simt::ReconvPolicy reconv, batch::Policy policy,
                int requests, SoundnessTotals *out)
{
    auto reqs = genRequests(svc, requests, 11);
    batch::BatchingServer server(policy, trace::kMaxBatch);
    simt::LockstepEngine engine(
        svc.program(), reconv, trace::kMaxBatch,
        makeBatchProvider(svc, server.formBatches(reqs)));
    engine.setStaticProof(ca.proof);
    obs::DivergenceProfiler prof(svc.program());
    prof.setStaticHints(ca.report.dataflow);
    engine.setObserver(&prof);
    trace::DynOp op;
    while (engine.next(op)) {
        // Drain; the engine checks hints at its divergence sites.
    }
    out->divergeEvents += engine.stats().divergeEvents;
    const std::string where = svc.traits().name + " " +
        (reconv == simt::ReconvPolicy::StackIpdom ? "stack" : "minsp") +
        "/" + batch::policyName(policy);
    EXPECT_EQ(engine.stats().hintViolations, 0u)
        << where << ": divergence at proven-uniform branches";
    EXPECT_EQ(prof.alwaysUniformViolations(), 0u)
        << where << ": profiler attributed divergence to UniformAlways "
        << "cells";
}

} // namespace

TEST(Gates, DataflowSoundness)
{
    // Every service, both reconvergence policies, and both a
    // homogeneous and a deliberately mixing batch policy (Naive mixes
    // APIs and argument lengths in one batch: the hardest test of an
    // "under any batch mix" uniformity claim).
    const int taint_requests = 96;
    const int batch_requests = 256;
    SoundnessTotals totals;
    int services = 0;
    for (const auto &name : svc::serviceNames()) {
        auto svc = svc::buildService(name);
        auto ca = analysis::analyzeAndProve(svc->program());
        if (!ca->report.ok() || ca->proof == nullptr) {
            ADD_FAILURE() << name << ": analyzer reported errors";
            continue;
        }
        checkTaint(*svc, *ca->proof, taint_requests, &totals);
        for (auto reconv : {simt::ReconvPolicy::StackIpdom,
                            simt::ReconvPolicy::MinSpPc})
            for (auto policy :
                 {batch::Policy::PerApiArgSize, batch::Policy::Naive})
                checkUniformity(*svc, *ca, reconv, policy,
                                batch_requests, &totals);
        ++services;
    }
    // The inputs' totals: a change that stops exercising part of them
    // fails here even if every verdict above held.
    EXPECT_EQ(services, 14);
    EXPECT_EQ(totals.requests, 1344u);
    EXPECT_EQ(totals.memOps, 288656u);
    EXPECT_EQ(totals.divergeEvents, 51757u);
}
