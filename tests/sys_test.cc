/**
 * @file
 * Tests for the system-level (uqsim-substitute) simulator: unloaded
 * latency composition, queueing under load, batch splitting effects,
 * throughput relationships, and journey capture: exact per-request
 * latency decomposition, scenario-consistent journey flags, and the
 * no-perturbation invariant (SysResult bit-identical with journeys
 * off, sampled or full).
 */

#include <gtest/gtest.h>

#include "obs/anatomy.h"
#include "obs/journey.h"
#include "obs/metrics.h"
#include "sys/cluster.h"
#include "sys/pdes.h"
#include "sys/uqsim.h"

using namespace simr;
using namespace simr::sys;

namespace
{

SysConfig
base(double kqps, bool rpu, bool split)
{
    SysConfig cfg;
    cfg.qps = kqps * 1000.0;
    cfg.rpu = rpu;
    cfg.batchSplit = split;
    cfg.requests = 20000;
    cfg.seed = 3;
    return cfg;
}

} // namespace

TEST(Uqsim, UnloadedCpuLatencyComposition)
{
    auto r = runUserScenario(base(1, false, true));
    // Hit path: 4 tier latencies + 5 network hops.
    double hit = 30 + 100 + 20 + 25 + 5 * 60;
    EXPECT_GT(r.meanUs(), hit * 0.9);
    // 90% of requests do not see storage.
    EXPECT_LT(r.e2eUs.percentile(0.5), hit * 1.5);
    // The tail is the storage path.
    EXPECT_GT(r.p99Us(), 1000.0);
    EXPECT_LT(r.p99Us(), hit + 1000 + 3 * 60 + 100);
}

TEST(Uqsim, LatencyGrowsWithLoad)
{
    auto lo = runUserScenario(base(2, false, true));
    auto mid = runUserScenario(base(15, false, true));
    EXPECT_GT(mid.meanUs(), lo.meanUs());
}

TEST(Uqsim, OverloadExplodes)
{
    auto over = runUserScenario(base(40, false, true));
    EXPECT_GT(over.meanUs(), 20.0 * 1000.0) << "way past capacity";
}

TEST(Uqsim, RpuSustainsHigherLoad)
{
    // At 40 kQPS the CPU system has collapsed; the RPU system hasn't.
    auto cpu = runUserScenario(base(40, false, true));
    auto rpu = runUserScenario(base(40, true, true));
    EXPECT_LT(rpu.meanUs() * 10, cpu.meanUs());
    EXPECT_LT(rpu.p99Us(), 2500.0);
}

TEST(Uqsim, NoSplitRaisesAverageNotTail)
{
    auto split = runUserScenario(base(30, true, true));
    auto nosplit = runUserScenario(base(30, true, false));
    // Without splitting, hits wait for the storage path at the
    // reconvergence point: average rises toward the miss latency.
    EXPECT_GT(nosplit.meanUs(), split.meanUs() + 100.0);
    // The tail is the storage path either way.
    EXPECT_NEAR(nosplit.p99Us(), split.p99Us(), 600.0);
}

TEST(Uqsim, SplitOrphansConsumeCapacity)
{
    // With splitting, orphan re-execution costs capacity: saturation
    // arrives earlier than without splitting.
    auto split = runUserScenario(base(120, true, true));
    auto nosplit = runUserScenario(base(120, true, false));
    EXPECT_GT(split.meanUs(), nosplit.meanUs());
}

TEST(Uqsim, HitRateControlsTail)
{
    auto cfg = base(5, false, true);
    cfg.memcHitRate = 1.0;
    auto all_hit = runUserScenario(cfg);
    EXPECT_LT(all_hit.p99Us(), 1000.0) << "no storage visits, no tail";
}

TEST(Uqsim, BatchFormationAddsBoundedDelay)
{
    // At low load, RPU batches emit on timeout: the extra latency is
    // bounded by the batching window.
    auto cpu = runUserScenario(base(5, false, true));
    auto rpu = runUserScenario(base(5, true, true));
    EXPECT_LT(rpu.meanUs(), cpu.meanUs() + 100.0 + 200.0);
}

TEST(Uqsim, AchievedMatchesOfferedBelowSaturation)
{
    auto r = runUserScenario(base(10, false, true));
    EXPECT_NEAR(r.achievedQps, 10000.0, 1500.0);
}

TEST(Uqsim, DeterministicForSeed)
{
    auto a = runUserScenario(base(10, true, true));
    auto b = runUserScenario(base(10, true, true));
    EXPECT_DOUBLE_EQ(a.meanUs(), b.meanUs());
    EXPECT_DOUBLE_EQ(a.p99Us(), b.p99Us());
}

namespace
{

/** Run the scenario with a journey recorder in scope. */
SysResult
runWithJourneys(const SysConfig &cfg, obs::JourneyRecorder *rec)
{
    obs::Registry reg;
    obs::Scope scope(&reg, nullptr, rec);
    return runUserScenario(cfg);
}

} // namespace

TEST(UqsimJourneys, DecomposeExactlyToEndToEndLatency)
{
    obs::JourneyRecorder rec(obs::JourneyMode::Sampled, 128);
    auto r = runWithJourneys(base(20, true, true), &rec);
    EXPECT_EQ(rec.seen(), 20000u);
    auto journeys = rec.snapshot();
    ASSERT_FALSE(journeys.empty());
    ASSERT_LE(journeys.size(), 128u);
    for (const auto &j : journeys) {
        ASSERT_GE(j.events.size(), 2u);
        EXPECT_EQ(j.events.front().kind, obs::JStage::Arrival);
        EXPECT_EQ(j.events.back().kind, obs::JStage::Completion);
        // Time-ordered causal chain.
        for (size_t k = 1; k < j.events.size(); ++k)
            EXPECT_GE(j.events[k].tick, j.events[k - 1].tick)
                << "req " << j.reqId << " event " << k;
        // The tentpole identity: buckets sum EXACTLY to e2e.
        obs::RequestAnatomy a = obs::decompose(j);
        EXPECT_EQ(a.sumTicks(), a.e2eTicks) << "req " << j.reqId;
        // And with the chip link splitting the user tier's service.
        obs::ChipLink link;
        link.tier = 1;
        link.divergenceFrac = 0.33;
        link.memoryFrac = 0.25;
        obs::RequestAnatomy al = obs::decompose(j, &link);
        EXPECT_EQ(al.sumTicks(), al.e2eTicks) << "req " << j.reqId;
        // The journey's latency matches the histogram's value range
        // (ticks quantize at 2^-10 us).
        EXPECT_GE(j.e2eUs(), r.e2eUs.min() - 0.001);
        EXPECT_LE(j.e2eUs(), r.e2eUs.max() + 0.001);
    }
}

TEST(UqsimJourneys, AllModeCapturesEveryRequest)
{
    SysConfig cfg = base(20, true, true);
    cfg.requests = 4000;
    obs::JourneyRecorder rec(obs::JourneyMode::All, 64);
    runWithJourneys(cfg, &rec);
    EXPECT_EQ(rec.seen(), 4000u);
    EXPECT_EQ(rec.kept(), 4000u);
    auto journeys = rec.snapshot();
    ASSERT_EQ(journeys.size(), 4000u);
    for (size_t i = 0; i < journeys.size(); ++i)
        EXPECT_EQ(journeys[i].reqId, i);
}

TEST(UqsimJourneys, FlagsReflectTheScenario)
{
    // Split RPU system: misses visit storage (tier 4) as orphans;
    // hits complete at the memcached tier and never block.
    SysConfig cfg = base(20, true, true);
    cfg.requests = 4000;
    obs::JourneyRecorder rec(obs::JourneyMode::All, 64);
    runWithJourneys(cfg, &rec);
    size_t misses = 0;
    for (const auto &j : rec.snapshot()) {
        bool storage = false;
        for (const auto &e : j.events)
            if (e.kind == obs::JStage::TierStart && e.tier == 4)
                storage = true;
        EXPECT_EQ(storage, j.miss) << "req " << j.reqId;
        EXPECT_EQ(j.orphan, j.miss) << "req " << j.reqId;
        EXPECT_FALSE(j.blockedOnBatch) << "req " << j.reqId;
        misses += j.miss;
    }
    EXPECT_GT(misses, 0u);

    // Unsplit RPU system: hits in a mixed batch stall at the
    // reconvergence point -- a foreign-caused ReconvJoin segment.
    SysConfig nosplit = cfg;
    nosplit.batchSplit = false;
    obs::JourneyRecorder rec2(obs::JourneyMode::All, 64);
    runWithJourneys(nosplit, &rec2);
    size_t blocked = 0;
    for (const auto &j : rec2.snapshot()) {
        if (!j.blockedOnBatch)
            continue;
        ++blocked;
        EXPECT_FALSE(j.miss) << "req " << j.reqId;
        bool foreign_join = false;
        for (const auto &e : j.events)
            if (e.kind == obs::JStage::ReconvJoin && e.foreign)
                foreign_join = true;
        EXPECT_TRUE(foreign_join) << "req " << j.reqId;
    }
    EXPECT_GT(blocked, 0u);
}

TEST(UqsimJourneys, CaptureNeverPerturbsSysResult)
{
    // The no-perturbation invariant at test scale (bench_obs
    // --verify-journeys re-checks it across thread counts): every
    // histogram sample and tier statistic is bit-identical with
    // journeys off, sampled and full.
    SysConfig cfg = base(20, true, true);
    cfg.requests = 6000;
    auto off = runUserScenario(cfg);
    obs::JourneyRecorder sampled(obs::JourneyMode::Sampled, 64);
    auto mid = runWithJourneys(cfg, &sampled);
    obs::JourneyRecorder all(obs::JourneyMode::All, 64);
    auto full = runWithJourneys(cfg, &all);
    for (const auto *r : {&mid, &full}) {
        EXPECT_DOUBLE_EQ(r->achievedQps, off.achievedQps);
        EXPECT_TRUE(r->e2eUs.identicalTo(off.e2eUs));
        ASSERT_EQ(r->tiers.size(), off.tiers.size());
        for (size_t t = 0; t < off.tiers.size(); ++t) {
            EXPECT_EQ(r->tiers[t].waitUs.count(),
                      off.tiers[t].waitUs.count());
            EXPECT_DOUBLE_EQ(r->tiers[t].waitUs.sum(),
                             off.tiers[t].waitUs.sum());
            EXPECT_DOUBLE_EQ(r->tiers[t].serviceUs.sum(),
                             off.tiers[t].serviceUs.sum());
        }
    }
}

// ---------------------------------------------------------------------
// Construction-time validation (SysConfig / ClusterConfig): bad
// configurations die loudly at the config boundary, before simulating.
// ---------------------------------------------------------------------

TEST(SysConfigValidation, RejectsNonsense)
{
    SysConfig c;
    c.qps = 0;
    EXPECT_DEATH(c.validate(), "qps");

    c = SysConfig{};
    c.requests = 0;
    EXPECT_DEATH(c.validate(), "requests");

    c = SysConfig{};
    c.batchSize = 0;
    EXPECT_DEATH(c.validate(), "batchSize");

    c = SysConfig{};
    c.netUs = -1;
    EXPECT_DEATH(c.validate(), "netUs");

    c = SysConfig{};
    c.userCores = 0;
    EXPECT_DEATH(c.validate(), "core");

    c = SysConfig{};
    c.memcHitRate = 1.5;
    EXPECT_DEATH(c.validate(), "memcHitRate");

    c = SysConfig{};
    c.storageSvcUs = 0;
    EXPECT_DEATH(c.validate(), "service latencies");
}

TEST(ClusterConfigValidation, RejectsEmptyGraphsAndBadLoad)
{
    ClusterConfig c;
    c.webServers = 0;
    EXPECT_DEATH(c.validate(), "empty graph");

    c = ClusterConfig{};
    c.storageServers = 0;
    EXPECT_DEATH(c.validate(), "empty graph");

    c = ClusterConfig{};
    c.storageCores = 0;
    EXPECT_DEATH(c.validate(), "storageCores");

    c = ClusterConfig{};
    c.users = 0;
    EXPECT_DEATH(c.validate(), "users");

    c = ClusterConfig{};
    c.requests = 0;
    EXPECT_DEATH(c.validate(), "requests");

    c = ClusterConfig{};
    c.qps = -5;
    EXPECT_DEATH(c.validate(), "qps");

    c = ClusterConfig{};
    c.burstProb = 2;
    EXPECT_DEATH(c.validate(), "burstProb");

    c = ClusterConfig{};
    c.mailboxCapacity = 0;
    EXPECT_DEATH(c.validate(), "mailboxCapacity");

    // A bad embedded SysConfig is caught through the same gate.
    c = ClusterConfig{};
    c.base.memcHitRate = -0.1;
    EXPECT_DEATH(c.validate(), "memcHitRate");
}

// ---------------------------------------------------------------------
// Sharded PDES cluster engine vs the sequential reference.
// ---------------------------------------------------------------------

namespace
{

ClusterConfig
smallCluster(bool rpu, bool split)
{
    ClusterConfig c;
    c.webServers = 4;
    c.userServers = 3;
    c.mcrouterServers = 2;
    c.memcServers = 2;
    c.storageServers = 1;
    c.users = 500;
    c.requests = 6000;
    c.qps = 30000;
    c.seed = 7;
    c.base.rpu = rpu;
    c.base.batchSplit = split;
    return c;
}

ClusterResult
runSharded(ClusterConfig cfg, int shards, int threads)
{
    cfg.shards = shards;
    cfg.threads = threads;
    obs::Registry reg;
    obs::Scope scope(&reg);
    return runCluster(cfg);
}

ClusterResult
runClusterSequentialInScope(const ClusterConfig &cfg)
{
    obs::Registry reg;
    obs::Scope scope(&reg);
    return runClusterSequential(cfg);
}

/** Bit-identity over everything the cluster scenario reports
 *  (pdes stats excluded: they describe the engine, not the model). */
void
expectSameCluster(const ClusterResult &a, const ClusterResult &b)
{
    EXPECT_EQ(a.servers, b.servers);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.memcMisses, b.memcMisses);
    EXPECT_EQ(a.splitOrphans, b.splitOrphans);
    EXPECT_EQ(a.sys.offeredQps, b.sys.offeredQps);
    EXPECT_EQ(a.sys.achievedQps, b.sys.achievedQps);
    EXPECT_TRUE(a.sys.e2eUs.identicalTo(b.sys.e2eUs));
    ASSERT_EQ(a.sys.tiers.size(), b.sys.tiers.size());
    for (size_t t = 0; t < a.sys.tiers.size(); ++t) {
        SCOPED_TRACE("tier " + a.sys.tiers[t].name);
        const RunningStat &aw = a.sys.tiers[t].waitUs;
        const RunningStat &bw = b.sys.tiers[t].waitUs;
        EXPECT_EQ(a.sys.tiers[t].name, b.sys.tiers[t].name);
        EXPECT_EQ(aw.count(), bw.count());
        EXPECT_EQ(aw.sum(), bw.sum());
        EXPECT_EQ(aw.mean(), bw.mean());
        EXPECT_EQ(aw.min(), bw.min());
        EXPECT_EQ(aw.max(), bw.max());
        EXPECT_EQ(aw.variance(), bw.variance());
        const RunningStat &as = a.sys.tiers[t].serviceUs;
        const RunningStat &bs = b.sys.tiers[t].serviceUs;
        EXPECT_EQ(as.count(), bs.count());
        EXPECT_EQ(as.sum(), bs.sum());
        EXPECT_EQ(as.variance(), bs.variance());
    }
}

} // namespace

TEST(ClusterPdes, ShardAndThreadCountIndependence)
{
    // The regression companion of ctest's sys_pdes_gate: SysResult --
    // including every per-tier statistic, which is merged across
    // shards in node order -- must not depend on how the cluster is
    // sharded or how many workers drive it.
    for (bool rpu : {false, true}) {
        SCOPED_TRACE(rpu ? "rpu" : "cpu");
        ClusterResult ref =
            runClusterSequentialInScope(smallCluster(rpu, true));
        for (int shards : {1, 2, 8, 16})
            for (int threads : {1, 4}) {
                SCOPED_TRACE(std::to_string(shards) + " shards, " +
                             std::to_string(threads) + " threads");
                expectSameCluster(
                    ref, runSharded(smallCluster(rpu, true), shards,
                                    threads));
            }
    }
}

TEST(ClusterPdes, ZeroLookaheadDegeneratesToSequential)
{
    // netUs == 0 admits no conservative window: the engine must fall
    // back to the sequential single-shard loop (bit-identically, by
    // construction) rather than parallelize incorrectly.
    ClusterConfig cfg = smallCluster(true, true);
    cfg.base.netUs = 0;
    ClusterResult ref = runClusterSequentialInScope(cfg);
    ClusterResult r = runSharded(cfg, 8, 4);
    EXPECT_EQ(r.pdes.shards, 1);
    EXPECT_EQ(r.pdes.workers, 1);
    EXPECT_EQ(r.pdes.mailboxSends, 0u);
    expectSameCluster(ref, r);
}

TEST(ClusterPdes, PendingEventsTrackInFlightWorkNotOfferedLoad)
{
    // A web server queues only its next batch; every other pending
    // event belongs to a batch in flight. So the queue stays far below
    // the batch count that preloading the offered load would put in
    // it, on one heap and per shard alike.
    for (bool rpu : {false, true}) {
        SCOPED_TRACE(rpu ? "rpu" : "cpu");
        const ClusterConfig cfg = smallCluster(rpu, true);
        for (int shards : {1, 4}) {
            SCOPED_TRACE(std::to_string(shards) + " shards");
            const ClusterResult r = runSharded(cfg, shards, 1);
            EXPECT_GT(r.pdes.peakQueued, 0u);
            EXPECT_LT(r.pdes.peakQueued * 20, r.batches)
                << r.pdes.peakQueued << " queued of " << r.batches
                << " batches";
        }
    }
}

TEST(ClusterPdesDeath, VanishingLookaheadIsFatalNotALivelock)
{
    // netUs = 1e-12 passes validate() (it is >= 0), but from 2^14 us
    // (~16 ms) of simulated time on, T + 1e-12 rounds back to T: the
    // window is empty, and without a check the sharded kernel would
    // reopen it forever.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ClusterConfig cfg = smallCluster(true, true);
    cfg.base.netUs = 1e-12;
    EXPECT_EXIT(runSharded(cfg, 4, 1), ::testing::ExitedWithCode(1),
                "PDES lookahead 1e-12 us vanishes at simulated time "
                "[0-9.e+]+ us");

    // A lookahead that still advances the clock stays exact.
    cfg.base.netUs = 1e-6;
    expectSameCluster(runClusterSequentialInScope(cfg),
                      runSharded(cfg, 4, 1));
}

TEST(ClusterPdes, MailboxOverflowBackpressureIsInvisible)
{
    // A one-slot mailbox must overflow into the spill path under any
    // real cross-shard traffic -- and the spill must change nothing
    // but the transport diagnostics.
    ClusterConfig cfg = smallCluster(true, true);
    cfg.mailboxCapacity = 1;
    ClusterResult ref = runClusterSequentialInScope(cfg);
    ClusterResult r = runSharded(cfg, 16, 4);
    EXPECT_GT(r.pdes.mailboxSends, 0u);
    EXPECT_GT(r.pdes.mailboxOverflows, 0u);
    expectSameCluster(ref, r);
}

namespace
{

/**
 * Toy PDES model for kernel edge cases: `origins` tokens hop around a
 * ring of nodes, each hop exactly one lookahead L later. With zero
 * service latency every cross-shard event lands EXACTLY on its source
 * window's end -- the boundary the conservative contract (>=, strict <
 * on processing) must handle. Each node logs its (time, key) sequence.
 */
struct ChainModel : sys::Model
{
    uint32_t nnodes;
    double net;
    std::vector<std::vector<std::pair<double, uint64_t>>> log;

    ChainModel(uint32_t n, double l) : nnodes(n), net(l), log(n) {}

    uint32_t nodeCount() const override { return nnodes; }
    void prepare(int, int) override {}

    void
    apply(const sys::Event &ev, sys::EventSink &sink, int) override
    {
        log[ev.node].push_back({ev.time, ev.key});
        if (ev.aux == 0)
            return;
        sink.emit({ev.time + net, ev.key + 1,
                   (ev.node + 1) % nnodes, 0, ev.batch, ev.aux - 1});
    }
};

} // namespace

TEST(ClusterPdes, CrossShardEventExactlyAtWindowBoundary)
{
    // 16 tokens x 12 hops on an 8-node ring, every hop landing exactly
    // at the emitting window's end. The sharded runs must log the very
    // same per-node (time, key) sequences as the sequential one, and
    // conservative windowing must advance exactly one time step per
    // window (hops + 1 windows: nothing is processed early, nothing
    // is starved).
    const uint32_t nodes = 8;
    const uint64_t origins = 16, hops = 12;
    const double net = 5.0;
    auto initial = [&] {
        std::vector<sys::Event> evs;
        for (uint64_t o = 0; o < origins; ++o)
            evs.push_back({0.0, o * (hops + 1),
                           static_cast<uint32_t>(o % nodes), 0, o,
                           hops});
        return evs;
    };

    ChainModel ref(nodes, net);
    sys::PdesConfig seq;
    seq.lookaheadUs = net;
    sys::PdesStats seq_stats = sys::runPdes(ref, initial(), seq);
    EXPECT_EQ(seq_stats.events, origins * (hops + 1));

    for (int shards : {2, 4, 8})
        for (int threads : {1, 3}) {
            SCOPED_TRACE(std::to_string(shards) + " shards, " +
                         std::to_string(threads) + " threads");
            ChainModel m(nodes, net);
            sys::PdesConfig pc;
            pc.lookaheadUs = net;
            pc.shards = shards;
            pc.threads = threads;
            pc.mailboxCapacity = 4;
            sys::PdesStats st = sys::runPdes(m, initial(), pc);
            EXPECT_EQ(st.events, origins * (hops + 1));
            EXPECT_EQ(st.windows, hops + 1);
            EXPECT_GT(st.mailboxSends, 0u);
            EXPECT_EQ(m.log, ref.log);
        }
}

// ---------------------------------------------------------------------
// Journey capture at cluster scale.
// ---------------------------------------------------------------------

namespace
{

ClusterResult
runClusterWithJourneys(ClusterConfig cfg, int shards, int threads,
                       obs::JourneyRecorder *rec)
{
    cfg.shards = shards;
    cfg.threads = threads;
    obs::Registry reg;
    obs::Scope scope(&reg, nullptr, rec);
    return runCluster(cfg);
}

} // namespace

TEST(ClusterJourneys, FlagsAndExactDecompositionAcrossShards)
{
    // Full capture on the sharded engine: every request journeys, the
    // per-bucket decomposition telescopes exactly, and the flags match
    // the scenario (split RPU: misses are storage-visiting orphans).
    ClusterConfig cfg = smallCluster(true, true);
    cfg.requests = 3000;
    obs::JourneyRecorder rec(obs::JourneyMode::All, 64);
    runClusterWithJourneys(cfg, 8, 4, &rec);
    EXPECT_EQ(rec.seen(), cfg.requests);
    EXPECT_EQ(rec.kept(), cfg.requests);
    auto journeys = rec.snapshot();
    ASSERT_EQ(journeys.size(), cfg.requests);
    size_t misses = 0;
    for (size_t i = 0; i < journeys.size(); ++i) {
        const obs::Journey &j = journeys[i];
        EXPECT_EQ(j.reqId, i);
        ASSERT_GE(j.events.size(), 2u);
        EXPECT_EQ(j.events.front().kind, obs::JStage::Arrival);
        EXPECT_EQ(j.events.back().kind, obs::JStage::Completion);
        for (size_t k = 1; k < j.events.size(); ++k)
            EXPECT_GE(j.events[k].tick, j.events[k - 1].tick)
                << "req " << j.reqId << " event " << k;
        obs::RequestAnatomy a = obs::decompose(j);
        EXPECT_EQ(a.sumTicks(), a.e2eTicks) << "req " << j.reqId;
        bool storage = false;
        for (const auto &e : j.events)
            if (e.kind == obs::JStage::TierStart && e.tier == 4)
                storage = true;
        EXPECT_EQ(storage, j.miss) << "req " << j.reqId;
        EXPECT_EQ(j.orphan, j.miss) << "req " << j.reqId;
        EXPECT_FALSE(j.blockedOnBatch) << "req " << j.reqId;
        misses += j.miss;
    }
    EXPECT_GT(misses, 0u);

    // Unsplit RPU: hits in mixed batches stall at the reconvergence
    // point, flagged as foreign-caused ReconvJoin segments.
    ClusterConfig nosplit = smallCluster(true, false);
    nosplit.requests = 3000;
    obs::JourneyRecorder rec2(obs::JourneyMode::All, 64);
    runClusterWithJourneys(nosplit, 8, 4, &rec2);
    size_t blocked = 0;
    for (const auto &j : rec2.snapshot()) {
        if (!j.blockedOnBatch)
            continue;
        ++blocked;
        EXPECT_FALSE(j.miss) << "req " << j.reqId;
        bool foreign_join = false;
        for (const auto &e : j.events)
            if (e.kind == obs::JStage::ReconvJoin && e.foreign)
                foreign_join = true;
        EXPECT_TRUE(foreign_join) << "req " << j.reqId;
    }
    EXPECT_GT(blocked, 0u);
}

TEST(ClusterJourneys, CaptureNeverPerturbsClusterResult)
{
    // Journey capture is read-only at cluster scale too: full capture
    // on the sharded engine reports the same bits as the sequential
    // reference with no recorder at all.
    ClusterConfig cfg = smallCluster(true, true);
    ClusterResult off = runClusterSequentialInScope(cfg);
    obs::JourneyRecorder rec(obs::JourneyMode::All, 64);
    ClusterResult full = runClusterWithJourneys(cfg, 8, 4, &rec);
    expectSameCluster(off, full);
}
