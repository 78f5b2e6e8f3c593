/**
 * @file
 * Tests for the observability layer: metrics registry (counters,
 * gauges, sharded histograms, merge, exposition pages), thread-local
 * scoping, the Chrome trace-event tracer (golden-string format check),
 * the divergence profiler's exact-attribution invariant (including the
 * predicted-divergence split against static dataflow hints), the
 * deterministic per-cell scoping of simr::runCells, and the journey /
 * anatomy layer: latency-biased reservoir determinism, exact bucket
 * decomposition, critical paths, the per-batch chip recorder and the
 * trace flow events.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/cache.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "obs/anatomy.h"
#include "obs/divergence.h"
#include "obs/journey.h"
#include "obs/metrics.h"
#include "obs/spans.h"
#include "obs/trace.h"
#include "simr/runner.h"
#include "sys/cluster.h"

using namespace simr;

TEST(Registry, CounterGaugeBasics)
{
    obs::Registry reg;
    obs::Counter *c = reg.counter("a.count");
    c->inc();
    c->inc(4);
    EXPECT_EQ(c->value(), 5u);
    // get-or-create returns the same handle.
    EXPECT_EQ(reg.counter("a.count"), c);

    obs::Gauge *g = reg.gauge("a.ratio");
    g->set(0.75);
    EXPECT_DOUBLE_EQ(g->value(), 0.75);
    g->set(0.5);
    EXPECT_DOUBLE_EQ(g->value(), 0.5);
}

TEST(Registry, TextPageStableAndSorted)
{
    obs::Registry reg;
    reg.counter("z.last")->inc(2);
    reg.counter("a.first")->inc(1);
    reg.gauge("m.mid")->set(1.5);
    reg.hist("h.lat")->add(10.0);
    std::string page = reg.textPage();
    EXPECT_NE(page.find("counter a.first 1\n"), std::string::npos);
    EXPECT_NE(page.find("counter z.last 2\n"), std::string::npos);
    EXPECT_NE(page.find("gauge m.mid 1.5\n"), std::string::npos);
    EXPECT_NE(page.find("hist h.lat count=1"), std::string::npos);
    // Sorted: a.first precedes z.last.
    EXPECT_LT(page.find("a.first"), page.find("z.last"));
    // Rendering twice is bit-identical.
    EXPECT_EQ(page, reg.textPage());
}

TEST(Registry, JsonPageParsesShape)
{
    obs::Registry reg;
    reg.counter("c")->inc(7);
    reg.gauge("g")->set(2.5);
    reg.hist("h")->add(1.0);
    std::string j = reg.jsonPage();
    EXPECT_NE(j.find("\"counters\""), std::string::npos);
    EXPECT_NE(j.find("\"c\": 7"), std::string::npos);
    EXPECT_NE(j.find("\"gauges\""), std::string::npos);
    EXPECT_NE(j.find("\"histograms\""), std::string::npos);
    EXPECT_NE(j.find("\"count\": 1"), std::string::npos);
}

TEST(Registry, MergeAddsCountersAndHists)
{
    obs::Registry a, b;
    a.counter("shared")->inc(3);
    b.counter("shared")->inc(4);
    b.counter("only_b")->inc(1);
    a.gauge("g")->set(1.0);
    b.gauge("g")->set(9.0);
    a.hist("h")->add(1.0);
    b.hist("h")->add(3.0);
    a.merge(b);
    EXPECT_EQ(a.counter("shared")->value(), 7u);
    EXPECT_EQ(a.counter("only_b")->value(), 1u);
    EXPECT_DOUBLE_EQ(a.gauge("g")->value(), 9.0);  // last writer wins
    Histogram h = a.hist("h")->snapshot();
    EXPECT_EQ(h.count(), 2u);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(ShardedHist, ExactUnderThreadPoolContention)
{
    // Hammer one registry from a pool; the merged aggregate must match
    // the serial reference exactly in count/mean/min/max, because the
    // shard merge is exact (order within a shard is preserved and
    // RunningStat::merge is the exact combine).
    obs::Registry reg;
    obs::ShardedHist *h = reg.hist("contended");
    obs::Counter *c = reg.counter("adds");
    constexpr int kThreads = 8;
    constexpr int kPerThread = 5000;

    parallelFor(kThreads, [&](size_t t) {
        Rng r(1000 + t);
        for (int i = 0; i < kPerThread; ++i) {
            h->add(r.uniform() * 100.0);
            c->inc();
        }
    }, kThreads);

    // Serial reference over the same per-thread streams.
    Histogram ref;
    for (size_t t = 0; t < kThreads; ++t) {
        Rng r(1000 + t);
        for (int i = 0; i < kPerThread; ++i)
            ref.add(r.uniform() * 100.0);
    }

    EXPECT_EQ(c->value(),
              static_cast<uint64_t>(kThreads) * kPerThread);
    Histogram got = h->snapshot();
    EXPECT_EQ(got.count(), ref.count());
    EXPECT_DOUBLE_EQ(got.min(), ref.min());
    EXPECT_DOUBLE_EQ(got.max(), ref.max());
    EXPECT_NEAR(got.mean(), ref.mean(), 1e-9);
    EXPECT_DOUBLE_EQ(got.percentile(0.5), ref.percentile(0.5));
}

TEST(Scope, NestsAndRestores)
{
    EXPECT_EQ(obs::Scope::registry(), &obs::Registry::global());
    obs::Registry outer, inner;
    {
        obs::Scope s1(&outer);
        EXPECT_EQ(obs::Scope::registry(), &outer);
        {
            obs::Scope s2(&inner);
            EXPECT_EQ(obs::Scope::registry(), &inner);
            obs::Scope::registry()->counter("x")->inc();
        }
        EXPECT_EQ(obs::Scope::registry(), &outer);
    }
    EXPECT_EQ(obs::Scope::registry(), &obs::Registry::global());
    EXPECT_EQ(inner.counter("x")->value(), 1u);
    EXPECT_EQ(outer.counter("x")->value(), 0u);
}

TEST(Scope, TracerVisibleOnlyInScope)
{
    EXPECT_EQ(obs::Scope::tracer(), nullptr);
    obs::Registry reg;
    obs::Tracer tr;
    {
        obs::Scope s(&reg, &tr);
        EXPECT_EQ(obs::Scope::tracer(), &tr);
    }
    EXPECT_EQ(obs::Scope::tracer(), nullptr);
}

TEST(Tracer, GoldenChromeJson)
{
    obs::Tracer tr;
    tr.processName(1, "chip");
    tr.complete("op", "cat", 1.0, 2.5, 1, 3, {{"n", obs::jnum(
        static_cast<uint64_t>(7))}});
    tr.instant("hit", "ev", 4.0, 1, 3);
    tr.asyncBegin("req", "r", 9, 0.5, 1);
    tr.asyncEnd("req", "r", 9, 6.0, 1);
    std::string expect =
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
        "{\"name\":\"process_name\",\"cat\":\"simr\",\"ph\":\"M\","
        "\"ts\":0.000,\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"chip\"}},\n"
        "{\"name\":\"op\",\"cat\":\"cat\",\"ph\":\"X\",\"ts\":1.000,"
        "\"dur\":2.500,\"pid\":1,\"tid\":3,\"args\":{\"n\":7}},\n"
        "{\"name\":\"hit\",\"cat\":\"ev\",\"ph\":\"i\",\"ts\":4.000,"
        "\"pid\":1,\"tid\":3},\n"
        "{\"name\":\"req\",\"cat\":\"r\",\"ph\":\"b\",\"ts\":0.500,"
        "\"pid\":1,\"tid\":0,\"id\":9},\n"
        "{\"name\":\"req\",\"cat\":\"r\",\"ph\":\"e\",\"ts\":6.000,"
        "\"pid\":1,\"tid\":0,\"id\":9}\n"
        "]}\n";
    EXPECT_EQ(tr.json(), expect);
}

TEST(Tracer, EscapesStrings)
{
    obs::Tracer tr;
    tr.begin("quote\"back\\slash\nnl", "c", 0.0, 0, 0);
    std::string j = tr.json();
    EXPECT_NE(j.find("quote\\\"back\\\\slash\\nnl"),
              std::string::npos);
}

TEST(Tracer, CapCountsDrops)
{
    obs::Tracer tr(2);
    tr.instant("a", "c", 0, 0, 0);
    tr.instant("b", "c", 1, 0, 0);
    tr.instant("c", "c", 2, 0, 0);
    EXPECT_EQ(tr.size(), 2u);
    EXPECT_EQ(tr.dropped(), 1u);
}

namespace
{

/** Divergent services for the attribution-invariant checks. */
const char *kDivergentServices[] = {"search-leaf", "hdsearch-leaf",
                                    "user"};

} // namespace

TEST(DivergenceProfiler, SumsMatchEngineTotals)
{
    // The exact-attribution invariant (profiler cells increment at the
    // same call sites as SimtStats): per-PC sums equal the engine's
    // aggregate counters, for each of the most divergent services.
    for (const char *name : kDivergentServices) {
        auto svc = svc::buildService(name);
        ASSERT_NE(svc, nullptr) << name;
        obs::DivergenceProfiler prof(svc->program());
        auto r = measureEfficiency(*svc, batch::Policy::PerApiArgSize,
                                   simt::ReconvPolicy::MinSpPc, 32,
                                   512, 42, &prof);
        EXPECT_EQ(prof.totalMaskedSlots(), r.stats.maskedSlots)
            << name;
        EXPECT_EQ(prof.totalDivergeEvents(), r.stats.divergeEvents)
            << name;
        EXPECT_EQ(prof.totalReconvMerges(), r.stats.reconvMerges)
            << name;
        // And under stack-IPDOM, where explicit merges happen.
        obs::DivergenceProfiler prof2(svc->program());
        auto r2 = measureEfficiency(*svc, batch::Policy::PerApiArgSize,
                                    simt::ReconvPolicy::StackIpdom, 32,
                                    512, 42, &prof2);
        EXPECT_EQ(prof2.totalMaskedSlots(), r2.stats.maskedSlots)
            << name;
        EXPECT_EQ(prof2.totalDivergeEvents(), r2.stats.divergeEvents)
            << name;
        EXPECT_EQ(prof2.totalReconvMerges(), r2.stats.reconvMerges)
            << name;
    }
}

TEST(DivergenceProfiler, TopRowsCarryFunctionNames)
{
    auto svc = svc::buildService("search-leaf");
    ASSERT_NE(svc, nullptr);
    obs::DivergenceProfiler prof(svc->program());
    measureEfficiency(*svc, batch::Policy::PerApiArgSize,
                      simt::ReconvPolicy::MinSpPc, 32, 512, 42, &prof);
    auto rows = prof.top(5);
    ASSERT_FALSE(rows.empty());
    for (const auto &row : rows) {
        EXPECT_NE(row.func, "?") << std::hex << row.pc;
        EXPECT_GT(row.maskedSlots, 0u);
    }
}

TEST(DivergenceProfiler, StaticHintsSplitPredictedDivergence)
{
    // The predicted-divergence columns after joining static dataflow
    // hints: divergence may only occur at branches classified
    // MayDiverge or UniformPerBatch (the latter when a size-bucketed
    // batch mixes argument lengths) -- never at a proven UniformAlways
    // branch, and never at an unhinted cell. The accessors must agree
    // with the per-row attribution.
    for (const char *name : kDivergentServices) {
        auto svc = svc::buildService(name);
        ASSERT_NE(svc, nullptr) << name;
        obs::DivergenceProfiler prof(svc->program());
        auto r = measureEfficiency(*svc, batch::Policy::PerApiArgSize,
                                   simt::ReconvPolicy::MinSpPc, 32,
                                   512, 42, &prof);
        ASSERT_GT(r.stats.divergeEvents, 0u) << name;

        // Before hints are installed, the split is inert.
        EXPECT_EQ(prof.predictedDivergeEvents(), 0u) << name;
        EXPECT_EQ(prof.alwaysUniformViolations(), 0u) << name;

        auto ca = analysis::gateAndProve(svc->program());
        ASSERT_NE(ca, nullptr) << name;
        ASSERT_TRUE(ca->report.dataflow.ran) << name;
        prof.setStaticHints(ca->report.dataflow);
        EXPECT_GT(prof.predictedDivergeEvents(), 0u) << name;
        EXPECT_LE(prof.predictedDivergeEvents(),
                  prof.totalDivergeEvents()) << name;
        EXPECT_EQ(prof.alwaysUniformViolations(), 0u) << name;

        // Per-row cross-check of the accessors.
        uint64_t may = 0, per_batch = 0, other = 0;
        for (const auto &row : prof.top(100000)) {
            if (row.staticHint == static_cast<int8_t>(
                    analysis::Uniformity::MayDiverge))
                may += row.divergeEvents;
            else if (row.staticHint == static_cast<int8_t>(
                         analysis::Uniformity::UniformPerBatch))
                per_batch += row.divergeEvents;
            else
                other += row.divergeEvents;
        }
        EXPECT_EQ(may, prof.predictedDivergeEvents()) << name;
        EXPECT_EQ(may + per_batch, prof.totalDivergeEvents()) << name;
        EXPECT_EQ(other, 0u) << name;
    }
}

TEST(SimtStats, PlusEqualsAccumulates)
{
    simt::SimtStats a, b;
    a.batchOps = 10; a.scalarOps = 100; a.maskedSlots = 5;
    a.divergeEvents = 2; a.reconvMerges = 1; a.batches = 1;
    a.width = 32;
    b.batchOps = 20; b.scalarOps = 300; b.maskedSlots = 15;
    b.divergeEvents = 4; b.reconvMerges = 3; b.batches = 2;
    b.width = 32;
    a += b;
    EXPECT_EQ(a.batchOps, 30u);
    EXPECT_EQ(a.scalarOps, 400u);
    EXPECT_EQ(a.maskedSlots, 20u);
    EXPECT_EQ(a.divergeEvents, 6u);
    EXPECT_EQ(a.reconvMerges, 4u);
    EXPECT_EQ(a.batches, 3u);
    EXPECT_EQ(a.width, 32);
}

TEST(RunCells, MetricsDeterministicAcrossThreadCounts)
{
    std::vector<Cell> cells;
    TimingOptions opt;
    opt.requests = 96;
    for (const char *name : kDivergentServices)
        cells.push_back({name, core::makeRpuConfig(), opt});

    obs::Registry serial;
    {
        obs::Scope scope(&serial);
        runCells(cells, 1);
    }
    obs::Registry parallel4;
    {
        obs::Scope scope(&parallel4);
        runCells(cells, 4);
    }
    // Bit-identical exposition at any worker count: per-cell
    // registries merge into the parent in input order.
    EXPECT_EQ(serial.textPage(), parallel4.textPage());
    EXPECT_EQ(serial.jsonPage(), parallel4.jsonPage());
    EXPECT_GT(serial.counter("core.requests")->value(), 0u);
}

namespace
{

/** uqSim's shape of the User scenario (one server per tier) on the
 *  RPU system at the 5 kQPS these two tests have always offered. */
sys::ClusterConfig
oneReplicaAt5k(uint64_t requests)
{
    sys::ClusterConfig cfg = sys::oneReplica();
    cfg.qps = 5000;
    cfg.requests = requests;
    cfg.base.rpu = true;
    return cfg;
}

} // namespace

TEST(OneReplica, RegistryAndTierBreakdown)
{
    obs::Registry reg;
    sys::SysResult r;
    {
        obs::Scope scope(&reg);
        r = sys::runCluster(oneReplicaAt5k(2000)).sys;
    }
    EXPECT_EQ(reg.counter("sys.requests")->value(), 2000u);
    EXPECT_GT(reg.counter("sys.batches")->value(), 0u);
    EXPECT_GT(reg.counter("sys.memc_misses")->value(), 0u);
    ASSERT_EQ(r.tiers.size(), 5u);
    EXPECT_EQ(r.tiers[0].name, "web");
    EXPECT_EQ(r.tiers[1].name, "user");
    EXPECT_EQ(r.tiers[2].name, "mcrouter");
    EXPECT_EQ(r.tiers[3].name, "memc");
    EXPECT_EQ(r.tiers[4].name, "storage");
    uint64_t batches = reg.counter("sys.batches")->value();
    for (const auto &tier : r.tiers) {
        // Every batch visits the four front tiers; only batches with
        // a memcached miss visit storage.
        if (tier.name == "storage") {
            EXPECT_GT(tier.waitUs.count(), 0u);
            EXPECT_LE(tier.waitUs.count(), batches);
        } else {
            EXPECT_EQ(tier.waitUs.count(), batches) << tier.name;
        }
        EXPECT_GT(tier.serviceUs.mean(), 0.0) << tier.name;
    }
    EXPECT_GT(reg.gauge("sys.achieved_qps")->value(), 0.0);
}

TEST(OneReplica, EmitsBalancedTimeline)
{
    obs::Registry reg;
    obs::Tracer tr;
    {
        obs::Scope scope(&reg, &tr);
        sys::runCluster(oneReplicaAt5k(500));
    }
    auto events = tr.events();
    ASSERT_FALSE(events.empty());
    // Every request must open and close exactly once.
    int asyncB = 0, asyncE = 0, tierSpans = 0;
    for (const auto &e : events) {
        if (e.ph == 'b')
            ++asyncB;
        else if (e.ph == 'e')
            ++asyncE;
        else if (e.ph == 'X' && e.cat == "sys") {
            ++tierSpans;
            EXPECT_GE(e.durUs, 0.0);
        }
    }
    EXPECT_EQ(asyncB, 500);
    EXPECT_EQ(asyncE, 500);
    EXPECT_GT(tierSpans, 0);
}

TEST(SpanRecorder, WindowsCoverEveryOp)
{
    // The issue-window spans partition the engine's op timeline: total
    // window duration == batchOps (1 op = 1us of virtual time).
    auto svc = svc::buildService("user");
    ASSERT_NE(svc, nullptr);
    obs::Tracer tr;
    obs::SpanRecorder rec(&tr, 1, 1);
    auto r = measureEfficiency(*svc, batch::Policy::PerApiArgSize,
                               simt::ReconvPolicy::MinSpPc, 32, 256,
                               42, &rec);
    double windowUs = 0;
    int batchesOpened = 0, batchesClosed = 0;
    for (const auto &e : tr.events()) {
        if (e.ph == 'X' && e.name == "window")
            windowUs += e.durUs;
        else if (e.ph == 'B')
            ++batchesOpened;
        else if (e.ph == 'E')
            ++batchesClosed;
    }
    EXPECT_DOUBLE_EQ(windowUs,
                     static_cast<double>(r.stats.batchOps));
    EXPECT_EQ(batchesOpened,
              static_cast<int>(r.stats.batches));
    EXPECT_EQ(batchesOpened, batchesClosed);
}

namespace
{

/** Synthetic journey exercising every stage: a batched request that
 *  misses memcached, splits and visits storage. Times in us. */
obs::Journey
makeMissJourney(uint64_t req_id)
{
    obs::Journey j;
    j.reqId = req_id;
    j.batchId = 7;
    j.batchSize = 32;
    j.miss = true;
    j.orphan = true;
    auto ev = [&](double us, obs::JStage k, int tier = -1,
                  uint64_t aux = 0, bool foreign = false) {
        j.events.push_back({obs::journeyTicks(us), aux, k,
                            static_cast<int8_t>(tier), foreign});
    };
    ev(0.0, obs::JStage::Arrival);
    ev(80.5, obs::JStage::BatchFormed, -1, 7);
    double t = 80.5;
    for (int tier = 0; tier < 4; ++tier) {
        ev(t += 60.0, obs::JStage::TierEnqueue, tier);
        ev(t += 10.25, obs::JStage::TierStart, tier);
        ev(t += 100.0, obs::JStage::TierDone, tier);
    }
    ev(t, obs::JStage::CacheOutcome, -1, 1);
    ev(t, obs::JStage::SplitRetry);
    ev(t += 60.0, obs::JStage::TierEnqueue, 4);
    ev(t += 5.0, obs::JStage::TierStart, 4);
    ev(t += 1000.0, obs::JStage::TierDone, 4);
    ev(t += 120.0, obs::JStage::Completion);
    return j;
}

} // namespace

TEST(Anatomy, DecompositionIsExact)
{
    obs::Journey j = makeMissJourney(11);
    obs::RequestAnatomy a = obs::decompose(j);
    EXPECT_EQ(a.e2eTicks, j.e2eTicks());
    EXPECT_EQ(a.sumTicks(), a.e2eTicks);   // the telescoping identity
    EXPECT_TRUE(a.miss);
    EXPECT_TRUE(a.orphan);
    // 4 + 1 queue waits, 5 services, hops + reply in network.
    using obs::Bucket;
    EXPECT_EQ(a.ticks[static_cast<int>(Bucket::BatchWait)],
              obs::journeyTicks(80.5));
    EXPECT_EQ(a.ticks[static_cast<int>(Bucket::Queue)],
              4 * obs::journeyTicks(10.25) + obs::journeyTicks(5.0));
    EXPECT_EQ(a.ticks[static_cast<int>(Bucket::Service)],
              4 * obs::journeyTicks(100.0) + obs::journeyTicks(1000.0));
    EXPECT_EQ(a.ticks[static_cast<int>(Bucket::Divergence)], 0);
    EXPECT_EQ(a.ticks[static_cast<int>(Bucket::Memory)], 0);
}

TEST(Anatomy, ChipLinkMovesTicksButPreservesTheSum)
{
    obs::Journey j = makeMissJourney(3);
    obs::ChipLink link;
    link.tier = 1;
    link.divergenceFrac = 0.37;
    link.memoryFrac = 0.21;
    obs::RequestAnatomy plain = obs::decompose(j);
    obs::RequestAnatomy linked = obs::decompose(j, &link);
    using obs::Bucket;
    EXPECT_EQ(linked.sumTicks(), linked.e2eTicks);
    EXPECT_EQ(linked.e2eTicks, plain.e2eTicks);
    EXPECT_GT(linked.ticks[static_cast<int>(Bucket::Divergence)], 0);
    EXPECT_GT(linked.ticks[static_cast<int>(Bucket::Memory)], 0);
    // Only the linked tier's service ticks moved, nothing else.
    EXPECT_EQ(linked.ticks[static_cast<int>(Bucket::Service)] +
                  linked.ticks[static_cast<int>(Bucket::Divergence)] +
                  linked.ticks[static_cast<int>(Bucket::Memory)],
              plain.ticks[static_cast<int>(Bucket::Service)]);
    EXPECT_EQ(linked.ticks[static_cast<int>(Bucket::Queue)],
              plain.ticks[static_cast<int>(Bucket::Queue)]);
    EXPECT_EQ(linked.ticks[static_cast<int>(Bucket::BatchWait)],
              plain.ticks[static_cast<int>(Bucket::BatchWait)]);
}

TEST(Anatomy, CriticalPathIsContiguousAndCoversTheJourney)
{
    obs::Journey j = makeMissJourney(5);
    auto path = obs::criticalPath(j);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front().fromTick, j.arrivalTick());
    EXPECT_EQ(path.back().toTick, j.completionTick());
    int64_t sum = 0;
    for (size_t i = 0; i < path.size(); ++i) {
        EXPECT_GT(path[i].ticks(), 0) << "zero-length step " << i;
        if (i) {
            EXPECT_EQ(path[i].fromTick, path[i - 1].toTick) << i;
        }
        sum += path[i].ticks();
    }
    EXPECT_EQ(sum, j.e2eTicks());
}

TEST(Anatomy, BuildAnatomySeparatesMedianAndTail)
{
    // 100 journeys: 99 fast (two events, 100us) and one slow (2000us).
    std::vector<obs::Journey> js;
    for (uint64_t i = 0; i < 100; ++i) {
        obs::Journey j;
        j.reqId = i;
        double e2e = i == 42 ? 2000.0 : 100.0;
        j.events.push_back({0, 0, obs::JStage::Arrival, -1, false});
        j.events.push_back({obs::journeyTicks(e2e), 0,
                            obs::JStage::Completion, -1, false});
        js.push_back(std::move(j));
    }
    auto rep = obs::buildAnatomy(js);
    EXPECT_EQ(rep.all.count, 100u);
    EXPECT_EQ(rep.tail.count, 1u);          // the slowest 1%
    EXPECT_EQ(rep.slowestReqId, 42u);
    EXPECT_NEAR(rep.tail.meanE2eUs(), 2000.0, 1e-9);
    EXPECT_NEAR(rep.median.meanE2eUs(), 100.0, 1e-9);
    EXPECT_EQ(rep.requests.front().reqId, 42u);  // sorted e2e desc
    // Cohort sums obey the same exactness as the per-request rows.
    int64_t bucket_sum = 0;
    for (int b = 0; b < obs::kNumBuckets; ++b)
        bucket_sum += rep.all.ticks[b];
    EXPECT_EQ(bucket_sum, rep.all.e2eTicks);
}

TEST(JourneyRecorder, OffDeclinesAllCapturesEverything)
{
    obs::JourneyRecorder off(obs::JourneyMode::Off, 8);
    uint64_t key = 0;
    EXPECT_FALSE(off.offer(1, 100.0, &key));
    EXPECT_EQ(off.seen(), 0u);

    obs::JourneyRecorder all(obs::JourneyMode::All, 8);
    for (uint64_t i = 0; i < 100; ++i) {
        ASSERT_TRUE(all.offer(i, 10.0, &key));
        obs::Journey j;
        j.reqId = i;
        all.admit(std::move(j), key);
    }
    EXPECT_EQ(all.seen(), 100u);
    EXPECT_EQ(all.kept(), 100u);
    auto snap = all.snapshot();
    ASSERT_EQ(snap.size(), 100u);
    for (uint64_t i = 0; i < 100; ++i)
        EXPECT_EQ(snap[i].reqId, i);       // sorted by reqId
}

TEST(JourneyRecorder, ModeFromEnvParsesTheThreeModes)
{
    const auto dflt = obs::JourneyMode::Sampled;
    unsetenv("SIMR_JOURNEYS");
    EXPECT_EQ(obs::journeyModeFromEnv(dflt), dflt);
    setenv("SIMR_JOURNEYS", "", 1);
    EXPECT_EQ(obs::journeyModeFromEnv(dflt), dflt);
    setenv("SIMR_JOURNEYS", "off", 1);
    EXPECT_EQ(obs::journeyModeFromEnv(dflt), obs::JourneyMode::Off);
    setenv("SIMR_JOURNEYS", "0", 1);
    EXPECT_EQ(obs::journeyModeFromEnv(dflt), obs::JourneyMode::Off);
    setenv("SIMR_JOURNEYS", "all", 1);
    EXPECT_EQ(obs::journeyModeFromEnv(dflt), obs::JourneyMode::All);
    setenv("SIMR_JOURNEYS", "sampled", 1);
    EXPECT_EQ(obs::journeyModeFromEnv(obs::JourneyMode::Off),
              obs::JourneyMode::Sampled);
    unsetenv("SIMR_JOURNEYS");
}

TEST(JourneyRecorderDeath, UnknownModeFromEnvIsFatal)
{
    // A typo must not silently fall back to the default mode.
    for (const char *bad : {"al", "ALL", "on", "1"}) {
        setenv("SIMR_JOURNEYS", bad, 1);
        EXPECT_EXIT(obs::journeyModeFromEnv(), ::testing::ExitedWithCode(1),
                    "SIMR_JOURNEYS=.*: expected off\\|sampled\\|all")
            << "value '" << bad << "'";
    }
    setenv("SIMR_JOURNEYS", "al", 1);
    EXPECT_EXIT(obs::JourneyRecorder(), ::testing::ExitedWithCode(1),
                "SIMR_JOURNEYS=al");
    unsetenv("SIMR_JOURNEYS");
}

namespace
{

/** Offer/admit reqIds [0, n) with deterministic synthetic latencies
 *  (heavy tail for ids divisible by 64) from `threads` workers. */
void
offerStorm(obs::JourneyRecorder *rec, uint64_t n, int threads)
{
    parallelFor(static_cast<size_t>(threads), [&](size_t t) {
        for (uint64_t i = t; i < n; i += threads) {
            double e2e = i % 64 == 0 ? 10000.0 + i : 10.0 + i % 7;
            uint64_t key = 0;
            if (rec->offer(i, e2e, &key)) {
                obs::Journey j;
                j.reqId = i;
                j.events.push_back(
                    {0, 0, obs::JStage::Arrival, -1, false});
                j.events.push_back({obs::journeyTicks(e2e), 0,
                                    obs::JStage::Completion, -1,
                                    false});
                rec->admit(std::move(j), key);
            }
        }
    }, threads);
}

std::vector<uint64_t>
snapshotIds(const obs::JourneyRecorder &rec)
{
    std::vector<uint64_t> ids;
    for (const auto &j : rec.snapshot())
        ids.push_back(j.reqId);
    return ids;
}

} // namespace

TEST(JourneyRecorder, SampledSetIsThreadCountIndependent)
{
    // The sampling decision depends only on (reqId, latency, seed);
    // the snapshot is the global top-K of the shard union. The same
    // offered population must therefore yield the identical sampled
    // set at any thread count and any arrival interleaving.
    constexpr uint64_t kReqs = 8192;
    obs::JourneyRecorder serial(obs::JourneyMode::Sampled, 64);
    offerStorm(&serial, kReqs, 1);
    EXPECT_EQ(serial.seen(), kReqs);
    EXPECT_LE(serial.snapshot().size(), 64u);

    for (int threads : {2, 8}) {
        obs::JourneyRecorder par(obs::JourneyMode::Sampled, 64);
        offerStorm(&par, kReqs, threads);
        EXPECT_EQ(par.seen(), kReqs);
        EXPECT_EQ(snapshotIds(par), snapshotIds(serial)) << threads;
    }
}

TEST(JourneyRecorder, ReservoirIsLatencyBiased)
{
    // 1/64 of requests carry a ~1000x latency; with A-ES keys
    // (weight / Exp(1)) the sampled set must be dominated by them.
    constexpr uint64_t kReqs = 8192;
    obs::JourneyRecorder rec(obs::JourneyMode::Sampled, 64);
    offerStorm(&rec, kReqs, 1);
    auto snap = rec.snapshot();
    ASSERT_EQ(snap.size(), 64u);
    size_t heavy = 0;
    for (const auto &j : snap)
        heavy += j.reqId % 64 == 0;
    EXPECT_GE(heavy, snap.size() * 3 / 4)
        << "latency bias lost: only " << heavy << " tail journeys";
}

TEST(JourneyRecorder, ClearResetsEverything)
{
    obs::JourneyRecorder rec(obs::JourneyMode::Sampled, 4);
    offerStorm(&rec, 256, 1);
    EXPECT_GT(rec.seen(), 0u);
    EXPECT_GT(rec.kept(), 0u);
    rec.clear();
    EXPECT_EQ(rec.seen(), 0u);
    EXPECT_EQ(rec.kept(), 0u);
    EXPECT_TRUE(rec.snapshot().empty());
    // And it keeps working after the reset.
    offerStorm(&rec, 256, 1);
    EXPECT_EQ(rec.seen(), 256u);
    EXPECT_GT(rec.kept(), 0u);
}

TEST(BatchAnatomyRecorder, RowsMatchEngineTotals)
{
    auto svc = svc::buildService("user");
    ASSERT_NE(svc, nullptr);
    obs::BatchAnatomyRecorder bar;
    auto r = measureEfficiency(*svc, batch::Policy::PerApiArgSize,
                               simt::ReconvPolicy::MinSpPc, 32, 256,
                               42, &bar);
    const auto &rows = bar.rows();
    ASSERT_EQ(rows.size(), static_cast<size_t>(r.stats.batches));
    uint64_t ops = 0, scalar = 0, masked = 0, diverges = 0;
    for (const auto &row : rows) {
        ops += row.ops;
        scalar += row.scalarOps;
        masked += row.maskedSlots;
        diverges += row.divergeEvents;
        EXPECT_LE(row.memSlots, row.scalarOps);
        EXPECT_GE(row.endOp, row.startOp);
        // Every lane retires exactly once, inside the issue window.
        ASSERT_EQ(row.laneRetire.size(),
                  static_cast<size_t>(row.size));
        for (uint64_t at : row.laneRetire) {
            EXPECT_GE(at, row.startOp);
            EXPECT_LE(at, row.endOp);
        }
    }
    EXPECT_EQ(ops, r.stats.batchOps);
    EXPECT_EQ(scalar, r.stats.scalarOps);
    EXPECT_EQ(masked, r.stats.maskedSlots);
    EXPECT_EQ(diverges, r.stats.divergeEvents);

    obs::ChipLink link = bar.link(1);
    EXPECT_EQ(link.tier, 1);
    EXPECT_GE(link.divergenceFrac, 0.0);
    EXPECT_GE(link.memoryFrac, 0.0);
    EXPECT_LE(link.divergenceFrac + link.memoryFrac, 1.0);
    // The fractions are slot shares of the same issue budget.
    EXPECT_NEAR(link.divergenceFrac,
                static_cast<double>(masked) /
                    static_cast<double>(scalar + masked), 1e-12);
}

TEST(JourneyMetrics, PublishedIntoRegistry)
{
    obs::JourneyRecorder rec(obs::JourneyMode::Sampled, 16);
    offerStorm(&rec, 512, 1);
    auto rep = obs::buildAnatomy(rec.snapshot());
    obs::Registry reg;
    obs::recordJourneyMetrics(&reg, rec, rep);
    EXPECT_EQ(reg.counter("sys.journey.seen")->value(), 512u);
    EXPECT_EQ(reg.counter("sys.journey.sampled")->value(),
              rep.all.count);
    EXPECT_GT(reg.gauge("sys.journey.tail.e2e_us")->value(), 0.0);
    EXPECT_GT(reg.gauge("sys.journey.median.e2e_us")->value(), 0.0);
}

TEST(Tracer, FlowEventsCarryIdsAndPhases)
{
    obs::Tracer tr;
    tr.flowStart("batch link", "link", 9, 1.5, 2, 3);
    tr.flowStep("batch link", "link", 9, 2.5, 1, 1);
    tr.flowEnd("batch link", "link", 9, 3.5, 1, 1);
    auto events = tr.events();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].ph, 's');
    EXPECT_EQ(events[1].ph, 't');
    EXPECT_EQ(events[2].ph, 'f');
    std::string j = tr.json();
    EXPECT_NE(j.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(j.find("\"ph\":\"t\""), std::string::npos);
    EXPECT_NE(j.find("\"ph\":\"f\""), std::string::npos);
    EXPECT_NE(j.find("\"id\":9"), std::string::npos);
}

TEST(SpanRecorder, SinksDoNotPerturbExecution)
{
    // Attaching sinks must not change what executes: engine stats are
    // bit-identical with and without a tracer + profiler attached.
    auto svc = svc::buildService("search-leaf");
    ASSERT_NE(svc, nullptr);
    auto plain = measureEfficiency(*svc, batch::Policy::PerApiArgSize,
                                   simt::ReconvPolicy::MinSpPc, 32,
                                   256, 42);
    obs::Tracer tr;
    obs::DivergenceProfiler prof(svc->program());
    obs::SpanRecorder rec(&tr, 1, 1);
    obs::MultiObserver tee({&prof, &rec});
    auto traced = measureEfficiency(*svc, batch::Policy::PerApiArgSize,
                                    simt::ReconvPolicy::MinSpPc, 32,
                                    256, 42, &tee);
    EXPECT_TRUE(plain.stats == traced.stats);
}
