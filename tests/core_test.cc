/**
 * @file
 * Tests for the timing cores: branch prediction (incl. majority
 * voting), the Table IV configurations, and pipeline-level behaviours
 * (OoO vs in-order, SMT latency, SIMT frontend amortization, icache
 * stalls, latency accounting).
 */

#include <gtest/gtest.h>

#include "core/bpred.h"
#include "core/counters.h"
#include "core/pipeline.h"
#include "simr/runner.h"

using namespace simr;
using namespace simr::core;

TEST(Gshare, LearnsBias)
{
    // Warmup touches each fresh history pattern once; steady state is
    // near perfect on an always-taken branch.
    Gshare g;
    int mispredicts = 0;
    for (int i = 0; i < 200; ++i) {
        if (g.predict(0x4000) != true)
            ++mispredicts;
        g.update(0x4000, true);
    }
    EXPECT_LT(mispredicts, 20);
    int late = 0;
    for (int i = 0; i < 100; ++i) {
        if (g.predict(0x4000) != true)
            ++late;
        g.update(0x4000, true);
    }
    EXPECT_EQ(late, 0);
}

TEST(Gshare, LearnsLoopExitPattern)
{
    // taken x7, not-taken x1, repeated: gshare's history should catch
    // the exit after warmup.
    Gshare g;
    int mispredicts = 0;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 8; ++i) {
            bool actual = i != 7;
            if (round > 10 && g.predict(0x100) != actual)
                ++mispredicts;
            g.update(0x100, actual);
        }
    }
    EXPECT_LT(mispredicts, 40 * 2);
}

namespace
{

trace::DynOp
branchOp(trace::Mask mask, trace::Mask taken)
{
    static isa::StaticInst si;
    si = isa::StaticInst();
    si.op = isa::Op::Branch;
    trace::DynOp op;
    op.si = &si;
    op.pc = 0x7000;
    op.mask = mask;
    op.takenMask = taken;
    return op;
}

} // namespace

TEST(BatchBpred, MajorityVoteTrainsOnCommonPath)
{
    BatchBpred bp(true);
    // 30 of 32 lanes take the branch every time.
    for (int i = 0; i < 100; ++i)
        bp.predictAndTrain(branchOp(0xffffffffu, 0x3fffffffu));
    EXPECT_GT(bp.stats().accuracy(), 0.8);
    EXPECT_EQ(bp.stats().majorityVotes, 100u);
    // The 2 minority lanes flush at commit every time regardless.
    EXPECT_EQ(bp.stats().minorityLaneFlushes, 200u);
}

TEST(BatchBpred, ScalarOpNoVote)
{
    BatchBpred bp(true);
    bp.predictAndTrain(branchOp(0x1, 0x1));
    EXPECT_EQ(bp.stats().majorityVotes, 0u);
    EXPECT_EQ(bp.stats().minorityLaneFlushes, 0u);
}

TEST(BatchBpred, MajorityVoteMinimizesFlushedLanes)
{
    // Lowest lane always diverges from the majority: training on lane
    // 0 optimizes 1 lane and squashes 31; majority voting squashes 1.
    BatchBpred vote(true), lane0(false);
    for (int i = 0; i < 50; ++i) {
        vote.predictAndTrain(branchOp(0xffffffffu, 0xfffffffeu));
        lane0.predictAndTrain(branchOp(0xffffffffu, 0xfffffffeu));
    }
    EXPECT_EQ(vote.stats().minorityLaneFlushes, 50u * 1);
    EXPECT_EQ(lane0.stats().minorityLaneFlushes, 50u * 31);
    EXPECT_EQ(vote.stats().majorityVotes, 50u);
    EXPECT_EQ(lane0.stats().majorityVotes, 0u);
}

TEST(Configs, TableIvShape)
{
    auto cpu = makeCpuConfig();
    auto smt = makeSmt8Config();
    auto rpu = makeRpuConfig();
    auto gpu = makeGpuConfig();

    EXPECT_EQ(cpu.smtThreads * cpu.batchWidth, 1);
    EXPECT_EQ(smt.smtThreads, 8);
    EXPECT_EQ(rpu.batchWidth, 32);
    EXPECT_EQ(rpu.lanes, 8);
    EXPECT_TRUE(gpu.inOrder);
    EXPECT_LT(gpu.freqGhz, cpu.freqGhz);

    // Table IV rows.
    EXPECT_EQ(cpu.mem.l1.sizeBytes, 64u * 1024);
    EXPECT_EQ(rpu.mem.l1.sizeBytes, 256u * 1024);
    EXPECT_EQ(rpu.mem.l1.banks, 8u);
    EXPECT_GT(rpu.mem.l1HitLatency, cpu.mem.l1HitLatency);
    EXPECT_GT(rpu.branchLat, cpu.branchLat);
    EXPECT_TRUE(rpu.mem.atomicsAtL3);
    EXPECT_FALSE(cpu.mem.atomicsAtL3);
    EXPECT_EQ(rpu.mem.noc.kind, mem::NocKind::Crossbar);
    EXPECT_EQ(cpu.mem.noc.kind, mem::NocKind::Mesh);
    EXPECT_TRUE(rpu.stackInterleave);
    EXPECT_FALSE(cpu.stackInterleave);
    // Chip thread counts: 98 vs 640 vs 640.
    EXPECT_EQ(cpu.chipCores, 98);
    EXPECT_EQ(smt.chipCores * smt.smtThreads, 640);
    EXPECT_EQ(rpu.chipCores * rpu.batchWidth, 640);
}

namespace
{

TimingRun
runSvc(const std::string &name, const CoreConfig &cfg, int requests = 64)
{
    auto svc = svc::buildService(name);
    TimingOptions opt;
    opt.requests = requests;
    return runTiming(*svc, cfg, opt);
}

} // namespace

TEST(TimingCore, CompletesAllRequests)
{
    auto run = runSvc("urlshort", makeCpuConfig());
    EXPECT_EQ(run.core.requests, 64u);
    EXPECT_GT(run.core.cycles, 0u);
    EXPECT_GT(run.core.scalarInsts, 64u * 20);
    EXPECT_EQ(run.core.reqLatency.count(), 64u);
}

TEST(TimingCore, CpuIpcInDataCenterRange)
{
    auto run = runSvc("memc", makeCpuConfig(), 128);
    EXPECT_GT(run.core.ipc(), 0.1);
    EXPECT_LT(run.core.ipc(), 2.5);
}

TEST(TimingCore, RpuAmortizesFrontend)
{
    auto cpu = runSvc("post", makeCpuConfig(), 128);
    auto rpu = runSvc("post", makeRpuConfig(), 128);
    // Same work, far fewer fetches (one per batch instruction).
    EXPECT_EQ(cpu.core.requests, rpu.core.requests);
    EXPECT_LT(rpu.core.counters.get(ctr::kFetch),
              cpu.core.counters.get(ctr::kFetch) / 8);
    // Lane-level retirement is comparable.
    EXPECT_NEAR(static_cast<double>(rpu.core.scalarInsts),
                static_cast<double>(cpu.core.scalarInsts),
                0.1 * static_cast<double>(cpu.core.scalarInsts));
}

TEST(TimingCore, RpuCoalescesTraffic)
{
    auto cpu = runSvc("post", makeCpuConfig(), 128);
    auto rpu = runSvc("post", makeRpuConfig(), 128);
    EXPECT_LT(rpu.core.l1Stats.accesses, cpu.core.l1Stats.accesses / 2);
}

TEST(TimingCore, InOrderSlowerThanOoO)
{
    auto rpu = runSvc("user", makeRpuConfig(), 96);
    auto gpu = runSvc("user", makeGpuConfig(), 96);
    double rpu_lat = rpu.core.meanLatencyUs();
    double gpu_lat = gpu.core.meanLatencyUs();
    EXPECT_GT(gpu_lat, 2.0 * rpu_lat);
}

TEST(TimingCore, SmtRaisesPerRequestLatency)
{
    auto cpu = runSvc("search-mid", makeCpuConfig(), 128);
    auto smt = runSvc("search-mid", makeSmt8Config(), 128);
    EXPECT_GT(smt.core.reqLatency.mean(), cpu.core.reqLatency.mean());
    EXPECT_EQ(smt.core.requests, 128u);
}

TEST(TimingCore, IcacheStallsCharged)
{
    auto run = runSvc("mcrouter", makeCpuConfig(), 64);
    EXPECT_GT(run.core.counters.get("frontend.icache_miss"), 0u);
}

TEST(TimingCore, CountersPopulated)
{
    auto run = runSvc("memc", makeRpuConfig(), 64);
    const auto &c = run.core.counters;
    for (const char *name :
         {ctr::kFetch, ctr::kDecode, ctr::kRename, ctr::kRobCommit,
          ctr::kIntOps, ctr::kRegRead, ctr::kLsqInsert, ctr::kL1Access,
          ctr::kBpLookup, ctr::kSimtSelect})
        EXPECT_GT(c.get(name), 0u) << name;
}

TEST(TimingCore, MajorityVotingCountsOnRpuOnly)
{
    auto cpu = runSvc("memc", makeCpuConfig(), 64);
    auto rpu = runSvc("memc", makeRpuConfig(), 64);
    EXPECT_EQ(cpu.core.bpStats.majorityVotes, 0u);
    EXPECT_GT(rpu.core.bpStats.majorityVotes, 0u);
}

TEST(TimingCore, LatencyIsPositiveAndBounded)
{
    auto run = runSvc("uniqueid", makeRpuConfig(), 96);
    EXPECT_GT(run.core.reqLatency.min(), 0.0);
    EXPECT_LE(run.core.reqLatency.max(),
              static_cast<double>(run.core.cycles));
}

TEST(CoreResult, CyclesToSecondsPinned)
{
    // Pins the cycles->seconds conversion that latencyRatio() and the
    // end-to-end load sweep depend on: cycles / (freqGhz * 1e9).
    CoreResult r;
    r.freqGhz = 2.5;
    EXPECT_DOUBLE_EQ(r.cyclesToSeconds(2.5e9), 1.0);
    EXPECT_DOUBLE_EQ(r.cyclesToSeconds(2500.0), 1e-6);

    r.reqLatency.add(1000.0);
    r.reqLatency.add(3000.0);  // mean latency: 2000 cycles
    EXPECT_DOUBLE_EQ(r.meanLatencySeconds(), 2000.0 / 2.5e9);
    EXPECT_DOUBLE_EQ(r.meanLatencyUs(), 0.8);

    // A slower clock makes the same cycle count take longer, so the
    // ratio between two cores must be taken in *seconds*, not cycles.
    CoreResult slow;
    slow.freqGhz = 1.25;
    EXPECT_DOUBLE_EQ(slow.cyclesToSeconds(2.5e9), 2.0);
}

TEST(TimingCore, SubBatchLaneSweepMonotone)
{
    // More SIMT lanes never slow the batch down.
    auto svc = svc::buildService("uniqueid");
    TimingOptions opt;
    opt.requests = 96;
    uint64_t prev = UINT64_MAX;
    for (int lanes : {2, 8, 32}) {
        auto cfg = makeRpuConfig();
        cfg.lanes = lanes;
        auto run = runTiming(*svc, cfg, opt);
        EXPECT_LE(run.core.cycles, prev + prev / 10);
        prev = run.core.cycles;
    }
}

TEST(CoreConfigValidation, RejectsUnrunnablePipelines)
{
    // Each config would otherwise divide by zero, never issue, or break
    // the issue stage's premise that an op completes after the cycle
    // it issues in; TimingCore construction must refuse it.
    auto dies = [](void (*edit)(CoreConfig &), const char *what) {
        CoreConfig c = makeRpuConfig();
        edit(c);
        EXPECT_DEATH(TimingCore{c}, what);
    };
    dies([](CoreConfig &c) { c.lanes = 0; }, "lanes >= 1");
    dies([](CoreConfig &c) { c.schedWindow = 0; }, "schedWindow >= 1");
    dies([](CoreConfig &c) { c.schedWindow = c.robEntries + 1; },
         "schedWindow <= robEntries");
    dies([](CoreConfig &c) { c.fetchWidth = 0; }, "fetchWidth >= 1");
    dies([](CoreConfig &c) { c.issueWidth = 0; }, "issueWidth >= 1");
    dies([](CoreConfig &c) { c.commitWidth = 0; }, "commitWidth >= 1");
    dies([](CoreConfig &c) { c.aluLat = 0; }, "op latency must be >= 1");
    dies([](CoreConfig &c) { c.divLat = 0; }, "op latency must be >= 1");
    dies([](CoreConfig &c) { c.syscallLat = 0; },
         "op latency must be >= 1");
    dies([](CoreConfig &c) { c.mem.l1HitLatency = 0; },
         "op latency must be >= 1");
    dies([](CoreConfig &c) { c.mem.l3HitLatency = 0; },
         "op latency must be >= 1");
    dies([](CoreConfig &c) { c.smtThreads = 0; }, "smtThreads >= 1");
    dies([](CoreConfig &c) { c.smtThreads = c.robEntries + 1; },
         "robEntries >= smtThreads");
    dies([](CoreConfig &c) { c.robEntries = 8193; },
         "robEntries / smtThreads <= 8192");
}

class ConfigSmokeTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ConfigSmokeTest, AllConfigsRunAllServices)
{
    auto svc = svc::buildService(GetParam());
    TimingOptions opt;
    opt.requests = 40;
    for (const auto &cfg :
         {makeCpuConfig(), makeSmt8Config(), makeRpuConfig(),
          makeGpuConfig()}) {
        auto run = runTiming(*svc, cfg, opt);
        EXPECT_EQ(run.core.requests, 40u) << cfg.name;
        EXPECT_GT(run.core.cycles, 0u) << cfg.name;
    }
}

INSTANTIATE_TEST_SUITE_P(AllServices, ConfigSmokeTest,
                         ::testing::ValuesIn(svc::serviceNames()),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (auto &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

TEST(EventDriven, MatchesReferenceLoop)
{
    // Fast in-tree spot check of the determinism gate (the full
    // 14 x 7 sweep runs as the ctest entry core_event_driven_gate via
    // bench_core_speed --verify): the cycle-skipping loop must
    // reproduce the per-cycle reference bit for bit, and the reference
    // must never skip. Besides the four design points, the Sec. V-A1
    // RPU variants cover the full-width lane, L1-atomics and lane-0
    // predictor paths.
    CoreConfig lanes32 = makeRpuConfig();
    lanes32.lanes = 32;
    CoreConfig atomics_l1 = makeRpuConfig();
    atomics_l1.mem.atomicsAtL3 = false;
    CoreConfig lane0_bp = makeRpuConfig();
    lane0_bp.majorityVoteBp = false;
    const auto &names = svc::serviceNames();
    std::vector<std::string> picks = {names.front(), names.back()};
    for (const auto &name : picks) {
        auto svc = svc::buildService(name);
        TimingOptions opt;
        opt.requests = 32;
        for (auto cfg : {makeCpuConfig(), makeSmt8Config(),
                         makeRpuConfig(), makeGpuConfig(), lanes32,
                         atomics_l1, lane0_bp}) {
            cfg.eventDriven = false;
            auto ref = runTiming(*svc, cfg, opt);
            cfg.eventDriven = true;
            auto evt = runTiming(*svc, cfg, opt);

            EXPECT_EQ(ref.core.skippedCycles, 0u) << cfg.name;
            EXPECT_EQ(ref.core.cycles, evt.core.cycles)
                << name << "/" << cfg.name;
            EXPECT_EQ(ref.core.scalarInsts, evt.core.scalarInsts)
                << name << "/" << cfg.name;
            EXPECT_EQ(ref.core.requests, evt.core.requests)
                << name << "/" << cfg.name;
            EXPECT_EQ(ref.core.counters.all(), evt.core.counters.all())
                << name << "/" << cfg.name;
            EXPECT_DOUBLE_EQ(ref.core.reqLatency.mean(),
                             evt.core.reqLatency.mean())
                << name << "/" << cfg.name;
            EXPECT_EQ(ref.core.hierStats.mshrMerges,
                      evt.core.hierStats.mshrMerges)
                << name << "/" << cfg.name;
        }
    }
}
