/**
 * @file
 * Golden fixture for the cluster engine: every SysResult field, the
 * ClusterResult counters and the sampled journey set of seven cluster
 * cells, hashed and compared against constants.
 *
 * sys_pdes_gate and the ClusterPdes tests compare the sharded engine
 * with the sequential one of the same build, so a change to the model
 * or to the event loop both engines share moves both sides together
 * and still passes. These constants pin the output itself, on the
 * sequential engine and at 4 shards x 1 worker alike: a speed-only
 * change to the engine must leave every one of them unchanged. They
 * were recorded once and must not be edited to make a change pass; a
 * deliberate model change re-records them in its own commit and says
 * why.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "golden_hash.h"
#include "obs/journey.h"
#include "obs/metrics.h"
#include "sys/cluster.h"

using namespace simr;
using namespace simr::sys;

namespace
{

using golden::Fnv;

void
addStat(Fnv &f, const RunningStat &s)
{
    f.add(s.count());
    for (double v : {s.sum(), s.mean(), s.min(), s.max(), s.variance()})
        f.add(v);
}

/** Hash of every reported field; PdesStats describe the engine, not
 *  the model, and are left out. */
uint64_t
hashCluster(const ClusterResult &r, const std::vector<obs::Journey> &js)
{
    Fnv f;
    f.add(r.sys.offeredQps);
    f.add(r.sys.achievedQps);
    const Histogram &e2e = r.sys.e2eUs;
    f.add(e2e.count());
    for (double v : {e2e.mean(), e2e.min(), e2e.max()})
        f.add(v);
    for (double s : e2e.sorted())
        f.add(s);
    f.add(static_cast<uint64_t>(r.sys.tiers.size()));
    for (const TierStat &t : r.sys.tiers) {
        f.add(t.name);
        addStat(f, t.waitUs);
        addStat(f, t.serviceUs);
    }
    for (uint64_t v : {r.servers, r.batches, r.memcMisses, r.splitOrphans})
        f.add(v);
    f.add(static_cast<uint64_t>(js.size()));
    for (const obs::Journey &j : js) {
        for (uint64_t v :
             {j.reqId, j.batchId, static_cast<uint64_t>(j.batchSize),
              static_cast<uint64_t>(j.miss), static_cast<uint64_t>(j.orphan),
              static_cast<uint64_t>(j.blockedOnBatch),
              static_cast<uint64_t>(j.events.size())})
            f.add(v);
        for (const obs::JourneyEvent &ev : j.events)
            for (uint64_t v : {static_cast<uint64_t>(ev.tick), ev.aux,
                               static_cast<uint64_t>(ev.kind),
                               static_cast<uint64_t>(ev.tier),
                               static_cast<uint64_t>(ev.foreign)})
                f.add(v);
    }
    return f.value();
}

struct Cell
{
    const char *label;
    ClusterConfig cfg;
};

/** The four sys_pdes_gate cells at its default seed, then the three
 *  Fig. 22 systems of the 1024-server benchmark shape (same servers
 *  per tier, same 100 requests per client) cut to 20k requests. */
std::vector<Cell>
cells()
{
    ClusterConfig gate;
    gate.webServers = 8;
    gate.userServers = 6;
    gate.mcrouterServers = 4;
    gate.memcServers = 4;
    gate.storageServers = 2;
    gate.users = 2000;
    gate.requests = 20000;
    gate.seed = 42;

    ClusterConfig big;
    big.webServers = 64;
    big.userServers = 512;
    big.mcrouterServers = 160;
    big.memcServers = 256;
    big.storageServers = 32;
    big.users = 200;
    big.requests = 20000;
    big.qps = 3.0e6;
    big.seed = 42;

    std::vector<Cell> out;
    auto add = [&out](const char *label, ClusterConfig c, bool rpu,
                      bool split, double qps) {
        c.base.rpu = rpu;
        c.base.batchSplit = split;
        c.qps = qps;
        out.push_back({label, c});
    };
    add("gate rpu-split", gate, true, true, 150000);
    add("gate rpu-nosplit", gate, true, false, 150000);
    add("gate cpu", gate, false, true, 80000);
    ClusterConfig bursty = gate;
    bursty.base.memcHitRate = 0.7;
    bursty.burstProb = 0.2;
    bursty.mailboxCapacity = 2;
    add("gate bursty-overflow", bursty, true, true, 150000);
    add("1024 cpu", big, false, false, big.qps);
    add("1024 rpu-split", big, true, true, big.qps);
    add("1024 rpu-nosplit", big, true, false, big.qps);
    return out;
}

/** One run with the sampled journey recorder in scope; shards == 0 is
 *  the sequential reference engine. */
uint64_t
runAndHash(ClusterConfig cfg, int shards)
{
    obs::Registry reg;
    obs::JourneyRecorder rec(obs::JourneyMode::Sampled, 256,
                             0x5eed5eedULL);
    obs::Scope scope(&reg, nullptr, &rec);
    ClusterResult r;
    if (shards == 0) {
        r = runClusterSequential(cfg);
    } else {
        cfg.shards = shards;
        cfg.threads = 1;
        r = runCluster(cfg);
        EXPECT_EQ(r.pdes.shards, shards);
    }
    EXPECT_EQ(r.sys.e2eUs.count(), cfg.requests);
    const std::vector<obs::Journey> js = rec.snapshot();
    EXPECT_FALSE(js.empty());
    return hashCluster(r, js);
}

constexpr size_t kNumCells = 7;

/** Recorded per cell, in cells() order. */
constexpr uint64_t kGolden[kNumCells] = {
    0xb2662c1e2875d70bULL,  // gate rpu-split
    0x5cc2aa4c4c4bc236ULL,  // gate rpu-nosplit
    0x1db9340571a338a9ULL,  // gate cpu
    0x5998aae6c52cbbffULL,  // gate bursty-overflow
    0x8645ad4acdd7183eULL,  // 1024 cpu
    0xd9c457738286c52dULL,  // 1024 rpu-split
    0x1b552c68a0d2bf3bULL,  // 1024 rpu-nosplit
};

} // namespace

TEST(SysGolden, EveryReportedFieldMatchesRecordedHashes)
{
    const auto cs = cells();
    ASSERT_EQ(cs.size(), kNumCells);

    const int engines[] = {0, 4};
    uint64_t got[kNumCells][2] = {};
    bool all = true;
    for (size_t c = 0; c < kNumCells; ++c)
        for (size_t e = 0; e < 2; ++e) {
            got[c][e] = runAndHash(cs[c].cfg, engines[e]);
            EXPECT_EQ(got[c][e], kGolden[c])
                << cs[c].label << (e == 0 ? ", sequential" :
                                            ", 4 shards x 1 worker");
            all = all && got[c][e] == kGolden[c];
        }
    if (!all) {
        std::printf("measured hashes (sequential, 4 shards):\n");
        for (size_t c = 0; c < kNumCells; ++c)
            std::printf("    0x%016" PRIx64 "ULL, 0x%016" PRIx64
                        "ULL  // %s\n",
                        got[c][0], got[c][1], cs[c].label);
    }
}
