/**
 * @file
 * Tests for the experiment-runner facade: request generation, SIMT
 * efficiency measurement (the Fig. 4 / Fig. 11 machinery) and the stats
 * records it keeps, timing runs, the cache studies (Figs. 14 / 15) and
 * cell identity.
 */

#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "simr/cachestudy.h"
#include "simr/runner.h"
#include "simr/streamcache.h"
#include "simr/tuner.h"

using namespace simr;

TEST(Runner, GenRequestsDeterministic)
{
    auto svc = svc::buildService("memc");
    auto a = genRequests(*svc, 100, 5);
    auto b = genRequests(*svc, 100, 5);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].api, b[i].api);
        EXPECT_EQ(a[i].key, b[i].key);
        EXPECT_EQ(a[i].argLen, b[i].argLen);
    }
    auto c = genRequests(*svc, 100, 6);
    bool differs = false;
    for (size_t i = 0; i < a.size(); ++i)
        differs = differs || a[i].key != c[i].key;
    EXPECT_TRUE(differs);
}

TEST(Runner, EfficiencyBounds)
{
    auto svc = svc::buildService("post");
    for (auto policy : {batch::Policy::Naive, batch::Policy::PerApi,
                        batch::Policy::PerApiArgSize}) {
        auto r = measureEfficiency(*svc, policy,
                                   simt::ReconvPolicy::MinSpPc, 32, 320,
                                   5);
        EXPECT_GT(r.efficiency(), 0.0);
        EXPECT_LE(r.efficiency(), 1.0);
    }
}

TEST(Runner, BatchingPoliciesImproveMultiApiService)
{
    auto svc = svc::buildService("post");
    auto naive = measureEfficiency(*svc, batch::Policy::Naive,
                                   simt::ReconvPolicy::MinSpPc, 32, 640,
                                   5);
    auto api = measureEfficiency(*svc, batch::Policy::PerApi,
                                 simt::ReconvPolicy::MinSpPc, 32, 640, 5);
    EXPECT_GT(api.efficiency(), 2.0 * naive.efficiency())
        << "Fig. 11: per-API batching is a large win on Post";
}

TEST(Runner, ArgSizeBatchingImprovesLengthDivergentService)
{
    auto svc = svc::buildService("search-leaf");
    auto api = measureEfficiency(*svc, batch::Policy::PerApi,
                                 simt::ReconvPolicy::MinSpPc, 32, 640, 5);
    auto arg = measureEfficiency(*svc, batch::Policy::PerApiArgSize,
                                 simt::ReconvPolicy::MinSpPc, 32, 640, 5);
    EXPECT_GT(arg.efficiency(), 1.5 * api.efficiency())
        << "Fig. 11: argument-size batching fixes loop divergence";
}

TEST(Runner, UniqueIdNearPerfectEfficiency)
{
    auto svc = svc::buildService("uniqueid");
    auto r = measureEfficiency(*svc, batch::Policy::Naive,
                               simt::ReconvPolicy::MinSpPc, 32, 320, 5);
    EXPECT_GT(r.efficiency(), 0.97);
}

TEST(Runner, StackVsMinSpClose)
{
    // Paper: MinSP-PC lands within ~1-2% of ideal stack-based IPDOM.
    auto svc = svc::buildService("user");
    auto ideal = measureEfficiency(*svc, batch::Policy::PerApiArgSize,
                                   simt::ReconvPolicy::StackIpdom, 32,
                                   640, 5);
    auto heur = measureEfficiency(*svc, batch::Policy::PerApiArgSize,
                                  simt::ReconvPolicy::MinSpPc, 32, 640,
                                  5);
    EXPECT_NEAR(heur.efficiency(), ideal.efficiency(), 0.05);
}

TEST(Runner, TimingRunEnergyPositive)
{
    auto svc = svc::buildService("urlshort");
    TimingOptions opt;
    opt.requests = 48;
    auto run = runTiming(*svc, core::makeCpuConfig(), opt);
    EXPECT_GT(run.energy.total(), 0.0);
    EXPECT_GT(run.reqPerJoule(), 0.0);
}

TEST(Runner, RpuBeatsCpuOnRequestsPerJoule)
{
    auto svc = svc::buildService("post");
    TimingOptions opt;
    opt.requests = 256;
    auto cpu = runTiming(*svc, core::makeCpuConfig(), opt);
    auto rpu = runTiming(*svc, core::makeRpuConfig(), opt);
    EXPECT_GT(rpu.reqPerJoule(), 2.0 * cpu.reqPerJoule())
        << "the headline result, conservatively bounded";
}

TEST(Runner, RpuLatencyWithinQosEnvelope)
{
    auto svc = svc::buildService("user");
    TimingOptions opt;
    opt.requests = 512;
    auto cpu = runTiming(*svc, core::makeCpuConfig(), opt);
    auto rpu = runTiming(*svc, core::makeRpuConfig(), opt);
    double ratio = rpu.core.meanLatencyUs() / cpu.core.meanLatencyUs();
    EXPECT_LT(ratio, 2.5) << "service latency must stay near the 2x bar";
}

TEST(Runner, BatchOverrideRespected)
{
    auto svc = svc::buildService("memc");
    TimingOptions opt;
    opt.requests = 64;
    opt.batchOverride = 8;
    auto run = runTiming(*svc, core::makeRpuConfig(), opt);
    EXPECT_EQ(run.core.requests, 64u);
    // 8-wide batches: ops carry at most 8 active lanes.
    EXPECT_LE(run.core.scalarInsts, run.core.batchOps * 8);
}

TEST(Runner, TunedBatchUsedForLeaves)
{
    auto svc = svc::buildService("hdsearch-leaf");
    TimingOptions opt;
    opt.requests = 64;
    auto run = runTiming(*svc, core::makeRpuConfig(), opt);
    EXPECT_LE(run.core.scalarInsts, run.core.batchOps * 8)
        << "hdsearch-leaf runs at its tuned batch of 8";
}

TEST(CacheStudy, RpuGeneratesFewerAccessesOnStackHeavyService)
{
    auto svc = svc::buildService("post");
    CacheStudyOptions opt;
    opt.requests = 256;
    auto cpu = studyCpuCache(*svc, opt);
    auto rpu = studyRpuCache(*svc, 32, opt);
    EXPECT_LT(rpu.l1Accesses * 3, cpu.l1Accesses)
        << "Fig. 14: stack coalescing cuts traffic";
    EXPECT_EQ(cpu.mcu.batchMemInsts, cpu.laneAccesses)
        << "scalar study: one lane per op";
}

TEST(CacheStudy, LeafThrashesAt32RecoversAt8)
{
    auto svc = svc::buildService("hdsearch-leaf");
    CacheStudyOptions opt;
    opt.requests = 256;
    opt.l1KB = 256;
    auto wide = studyRpuCache(*svc, 32, opt);
    auto narrow = studyRpuCache(*svc, 8, opt);
    EXPECT_GT(wide.mpki(), 5.0 * narrow.mpki())
        << "Fig. 15: the batch-tuning rule";
}

TEST(CacheStudy, ScalarInstsMatchBetweenStudies)
{
    auto svc = svc::buildService("mcrouter");
    CacheStudyOptions opt;
    opt.requests = 128;
    auto cpu = studyCpuCache(*svc, opt);
    auto rpu = studyRpuCache(*svc, 32, opt);
    // Same requests, same per-thread work (different slot addresses
    // may shift data-dependent paths by a small margin only).
    double diff = std::abs(static_cast<double>(cpu.scalarInsts) -
                           static_cast<double>(rpu.scalarInsts));
    EXPECT_LT(diff, 0.05 * static_cast<double>(cpu.scalarInsts));
}

TEST(Tuner, RederivesFig15Rule)
{
    // The offline tuner must pick small batches for the data-intensive
    // leaves and the full batch for a stack-heavy middle tier.
    tune::TunerConfig cfg;
    cfg.profileRequests = 512;
    auto leaf = tune::tuneBatchSize(*svc::buildService("hdsearch-leaf"),
                                    cfg);
    auto mid = tune::tuneBatchSize(*svc::buildService("post"), cfg);
    // The leaf must not run at the thrashing batch of 32 (Fig. 15);
    // the tuner may legitimately land one step above the paper's
    // hand-picked 8 when the footprint still fits.
    EXPECT_LT(leaf.chosenBatch, 32);
    EXPECT_EQ(mid.chosenBatch, 32);
    EXPECT_EQ(leaf.points.size(), cfg.candidates.size());
}

TEST(Tuner, FallsBackToSmallestWhenNothingFits)
{
    tune::TunerConfig cfg;
    cfg.profileRequests = 128;
    cfg.thrashFactor = 0.0;
    cfg.mpkiSlack = -1.0;  // nothing is acceptable
    auto r = tune::tuneBatchSize(*svc::buildService("memc"), cfg);
    EXPECT_EQ(r.chosenBatch, 4);
    for (const auto &p : r.points)
        EXPECT_FALSE(p.acceptable);
}

// The tuner reads a candidate's efficiency from its cache study: an RPU
// study's SimtStats are the efficiency probe's at the same width,
// requests and seed (PerApiArgSize, MinSP-PC: one lockstep front end).
TEST(Tuner, StudySimtStatsEqualTheProbe)
{
    tune::TunerConfig cfg;
    for (const auto &name : svc::serviceNames()) {
        auto svc = svc::buildService(name);
        for (int bs : {4, 8, 16, 32}) {
            auto study = studyRpuCache(*svc, bs, tune::profileOptions(cfg));
            auto probe = measureEfficiency(
                *svc, batch::Policy::PerApiArgSize,
                simt::ReconvPolicy::MinSpPc, bs, cfg.profileRequests,
                cfg.seed);
            EXPECT_EQ(study.simt, probe.stats) << name << " batch " << bs;
        }
    }
}

TEST(TunerChoose, ThrashFloorIsTheSmallestCandidate)
{
    // Points in any order; the floor is the smallest batch's MPKI
    // (2.0), so the bar is 2.5 * 2.0 + 1.0 = 6.0.
    tune::TunerConfig cfg;
    auto r = tune::choose({{32, 6.5, 0.9}, {4, 2.0, 0.9}, {16, 6.0, 0.9},
                           {8, 3.0, 0.9}},
                          cfg);
    EXPECT_EQ(r.chosenBatch, 16);
    ASSERT_EQ(r.points.size(), 4u);
    const int order[] = {4, 8, 16, 32};
    const bool ok[] = {true, true, true, false};
    for (size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(r.points[i].batchSize, order[i]);
        EXPECT_EQ(r.points[i].acceptable, ok[i]) << order[i];
    }
}

TEST(TunerChoose, EfficiencyBarRejectsALowEfficiencyBatch)
{
    tune::TunerConfig cfg;
    auto r = tune::choose({{4, 1.0, 0.9}, {8, 1.0, 0.9}, {16, 1.0, 0.6},
                           {32, 1.0, 0.49}},
                          cfg);
    EXPECT_EQ(r.chosenBatch, 16);
    EXPECT_FALSE(r.points.back().acceptable);
}

TEST(TunerChoose, FallsBackToTheSmallestCandidate)
{
    // Every point below the efficiency bar: nothing is acceptable.
    tune::TunerConfig cfg;
    auto r = tune::choose({{16, 1.0, 0.2}, {8, 1.0, 0.2}, {32, 1.0, 0.2}},
                          cfg);
    EXPECT_EQ(r.chosenBatch, 8);
    for (const auto &p : r.points)
        EXPECT_FALSE(p.acceptable);
}

TEST(GpgpuExtension, SpmdKernelIsSimtPerfect)
{
    auto svc = svc::buildService("gpgpu-saxpy");
    ASSERT_NE(svc, nullptr);
    auto eff = measureEfficiency(*svc, batch::Policy::PerApiArgSize,
                                 simt::ReconvPolicy::MinSpPc, 32, 320,
                                 5);
    EXPECT_GT(eff.efficiency(), 0.97);
}

// ---------------------------------------------------------------------------
// An efficiency probe is the one-context RPU front end of its width,
// always live: it consults no process-wide cache.
// ---------------------------------------------------------------------------

TEST(EfficiencyProbe, EqualsRpuFrontEndAndConsultsNoStreamCache)
{
    StreamCache *cache = StreamCache::process();
    ASSERT_NE(cache, nullptr);
    auto svc = svc::buildService("memc");
    ASSERT_NE(svc, nullptr);

    // The RPU front end with the probe's width, policy, reconvergence,
    // requests and seed; it leaves its stream in the cache under the
    // key the probe would have.
    TimingOptions opt;
    opt.policy = batch::Policy::PerApiArgSize;
    opt.reconv = simt::ReconvPolicy::MinSpPc;
    opt.requests = 96;
    opt.seed = 11;
    opt.batchOverride = 32;
    auto fe = runFrontEnd(*svc, core::makeRpuConfig(), opt);

    const uint64_t hits = cache->hits();
    const uint64_t misses = cache->misses();
    const uint64_t entries = cache->entries();
    auto probe = measureEfficiency(*svc, opt.policy, opt.reconv, 32,
                                   opt.requests, opt.seed);
    EXPECT_TRUE(probe.stats == fe.simt);
    EXPECT_EQ(cache->hits(), hits);
    EXPECT_EQ(cache->misses(), misses);
    EXPECT_EQ(cache->entries(), entries);
}

// ---------------------------------------------------------------------------
// Cell identity: a memo of cells runs equal cells once, so two cells
// that would simulate differently must never compare equal.
// ---------------------------------------------------------------------------

namespace
{

Cell
rpuBaseCell()
{
    return {"memc", core::makeRpuConfig(), TimingOptions{}};
}

} // namespace

TEST(CellIdentity, SameConfigBuiltTwiceIsOneCell)
{
    EXPECT_TRUE(rpuBaseCell() == rpuBaseCell());
}

TEST(CellIdentity, DesignVariantsDifferFromRpuBase)
{
    // The Sec. V-A1 studies' variants of the RPU base cell.
    Cell lanes32 = rpuBaseCell();
    lanes32.cfg.lanes = 32;
    Cell atomics_l1 = rpuBaseCell();
    atomics_l1.cfg.mem.atomicsAtL3 = false;
    Cell lane0_bp = rpuBaseCell();
    lane0_bp.cfg.majorityVoteBp = false;
    EXPECT_FALSE(lanes32 == rpuBaseCell());
    EXPECT_FALSE(atomics_l1 == rpuBaseCell());
    EXPECT_FALSE(lane0_bp == rpuBaseCell());
}

TEST(CellIdentity, TableIvConfigsArePairwiseDistinct)
{
    const core::CoreConfig cfgs[] = {
        core::makeCpuConfig(), core::makeSmt8Config(),
        core::makeRpuConfig(), core::makeGpuConfig()};
    for (size_t i = 0; i < 4; ++i)
        for (size_t j = 0; j < 4; ++j)
            EXPECT_EQ(i == j, (Cell{"memc", cfgs[i], {}} ==
                               Cell{"memc", cfgs[j], {}}))
                << cfgs[i].name << " vs " << cfgs[j].name;
}

TEST(CellIdentity, EveryTimingOptionFieldSplitsCells)
{
    const std::vector<std::pair<const char *,
                                std::function<void(TimingOptions &)>>>
        edits = {
            {"policy", [](TimingOptions &o) {
                 o.policy = batch::Policy::Naive;
             }},
            {"reconv", [](TimingOptions &o) {
                 o.reconv = simt::ReconvPolicy::StackIpdom;
             }},
            {"alloc", [](TimingOptions &o) {
                 o.alloc = mem::AllocPolicy::GlibcLike;
             }},
            {"requests", [](TimingOptions &o) { o.requests += 1; }},
            {"seed", [](TimingOptions &o) { o.seed += 1; }},
            {"batchOverride", [](TimingOptions &o) { o.batchOverride = 8; }},
            {"useTunedBatch",
             [](TimingOptions &o) { o.useTunedBatch = false; }},
            {"useTraceCache",
             [](TimingOptions &o) { o.useTraceCache = false; }},
        };
    for (const auto &[field, edit] : edits) {
        Cell c = rpuBaseCell();
        edit(c.opt);
        EXPECT_FALSE(c == rpuBaseCell()) << field;
    }
}

TEST(CellIdentity, ServiceSplitsCells)
{
    Cell other = rpuBaseCell();
    other.service = "post";
    EXPECT_FALSE(other == rpuBaseCell());
}
