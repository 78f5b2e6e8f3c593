/**
 * @file
 * Property-style tests: randomized sweeps over cache geometries, MCU
 * access patterns, address-map samples and statistics, checking
 * invariants rather than point values. Parameterized over seeds so
 * each instantiation explores a different random neighbourhood.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "common/stats.h"
#include "mem/address_space.h"
#include "mem/cache.h"
#include "mem/coalescer.h"
#include "mem/dram.h"
#include "simr/runner.h"
#include "sys/station.h"

using namespace simr;
using namespace simr::mem;

class SeededTest : public ::testing::TestWithParam<uint64_t>
{
  protected:
    Rng rng_{GetParam()};
};

TEST_P(SeededTest, CacheInvariants)
{
    // Random geometry (power-of-two sets guaranteed by construction).
    uint64_t kb = 1ull << rng_.range(0, 6);            // 1..64 KB
    uint32_t assoc = 1u << rng_.range(0, 3);           // 1..8 ways
    CacheConfig cfg;
    cfg.sizeBytes = kb * 1024;
    cfg.assoc = assoc;
    Cache c(cfg);

    uint64_t hits = 0, n = 4000;
    std::set<Addr> lines_seen;
    for (uint64_t i = 0; i < n; ++i) {
        Addr a = rng_.below(1 << 22);
        bool hit = c.access(a, rng_.chance(0.3));
        hits += hit ? 1 : 0;
        lines_seen.insert(a / cfg.lineBytes);
        // An immediate re-access of the same address always hits.
        EXPECT_TRUE(c.probe(a));
    }
    const auto &s = c.stats();
    EXPECT_EQ(s.accesses, n);
    EXPECT_EQ(s.misses, n - hits);
    // Every distinct line's first touch is a compulsory miss.
    EXPECT_GE(s.misses, lines_seen.size());
    // Writebacks never exceed store-dirtied fills.
    EXPECT_LE(s.writebacks, s.misses);
}

TEST_P(SeededTest, McuNeverInflatesDivergentAccessCount)
{
    AddressMap map(true, 32);
    Mcu mcu(map);
    std::vector<MemAccess> out;
    for (int trial = 0; trial < 200; ++trial) {
        int lanes = static_cast<int>(rng_.range(1, 32));
        static isa::StaticInst si;
        si = isa::StaticInst();
        si.op = rng_.chance(0.5) ? isa::Op::Load : isa::Op::Store;
        si.accessSize = 8;
        trace::DynOp op;
        op.si = &si;
        op.accessSize = 8;
        op.addrCount = static_cast<uint8_t>(lanes);
        op.mask = lanes >= 32 ? 0xffffffffu : ((1u << lanes) - 1);
        for (int l = 0; l < lanes; ++l) {
            op.lane[l] = static_cast<uint8_t>(l);
            // Word-aligned heap addresses (no line straddling).
            op.addr[l] = AddressSpace::kPrivateHeapBase +
                (rng_.below(1 << 16)) * 8;
        }
        auto kind = mcu.coalesce(op, out);
        EXPECT_GE(out.size(), 1u);
        EXPECT_LE(out.size(), static_cast<size_t>(lanes))
            << "coalescing must never generate more accesses than "
               "lanes for aligned word accesses (kind "
            << static_cast<int>(kind) << ")";
        for (const auto &a : out)
            EXPECT_EQ(a.paddr % 32, 0u) << "line-aligned outputs";
    }
    EXPECT_GE(mcu.stats().reductionFactor(), 1.0);
}

TEST_P(SeededTest, StackMapBijectiveOnRandomSamples)
{
    AddressMap map(true, 32);
    std::map<Addr, Addr> forward;
    for (int i = 0; i < 5000; ++i) {
        uint64_t lane = rng_.below(32);
        Addr off = rng_.below(AddressSpace::kStackSize);
        Addr va = AddressSpace::stackSegmentBase(lane) + off;
        Addr pa = map.toPhysical(va);
        auto [it, fresh] = forward.emplace(va, pa);
        if (!fresh) {
            EXPECT_EQ(it->second, pa) << "mapping is a function";
        }
        // Physical image stays within the batch's stack area.
        EXPECT_GE(pa, AddressSpace::kStackBase);
        EXPECT_LT(pa, AddressSpace::kStackBase +
                          32 * AddressSpace::kStackSize);
    }
    // Injectivity across the sample.
    std::set<Addr> images;
    for (const auto &[va, pa] : forward)
        images.insert(pa);
    EXPECT_EQ(images.size(), forward.size());
}

TEST_P(SeededTest, RunningStatMatchesDirectComputation)
{
    RunningStat s;
    std::vector<double> xs;
    int n = static_cast<int>(rng_.range(2, 300));
    for (int i = 0; i < n; ++i) {
        double x = rng_.normal(10.0, 4.0);
        xs.push_back(x);
        s.add(x);
    }
    double mean = 0;
    for (double x : xs)
        mean += x / xs.size();
    double var = 0;
    for (double x : xs)
        var += (x - mean) * (x - mean) / (xs.size() - 1);
    EXPECT_NEAR(s.mean(), mean, 1e-9);
    EXPECT_NEAR(s.variance(), var, 1e-6);
}

TEST_P(SeededTest, DramDelayMonotoneInBurstSize)
{
    double prev = -1;
    for (int burst : {1, 4, 16, 64}) {
        Dram d({2, 1.0, 100, 32});
        uint32_t worst = 0;
        for (int i = 0; i < burst; ++i)
            worst = std::max(worst,
                             d.access(0, rng_.below(1 << 20) * 32));
        EXPECT_GE(static_cast<double>(worst), prev);
        prev = worst;
    }
}

TEST_P(SeededTest, BatchingConservesAndBoundsEveryPolicy)
{
    int n = static_cast<int>(rng_.range(1, 700));
    int bs = static_cast<int>(rng_.range(1, 64));
    std::vector<svc::Request> reqs;
    for (int i = 0; i < n; ++i) {
        svc::Request r;
        r.id = i;
        r.api = static_cast<int>(rng_.below(5));
        r.argLen = 1 + static_cast<int>(rng_.below(32));
        reqs.push_back(r);
    }
    for (auto pol : {batch::Policy::Naive, batch::Policy::PerApi,
                     batch::Policy::PerApiArgSize}) {
        batch::BatchingServer server(pol, bs);
        auto batches = server.formBatches(reqs);
        std::set<int64_t> ids;
        for (const auto &b : batches) {
            EXPECT_GE(b.size(), 1);
            EXPECT_LE(b.size(), bs);
            for (const auto &r : b.requests)
                EXPECT_TRUE(ids.insert(r.id).second);
        }
        EXPECT_EQ(static_cast<int>(ids.size()), n);
    }
}

TEST_P(SeededTest, LockstepEfficiencyBoundedForRandomMixes)
{
    // Random service + random policy: efficiency always in (0, 1] and
    // every request completes.
    const auto &names = svc::serviceNames();
    auto svc = svc::buildService(
        names[rng_.below(names.size())]);
    auto policy = rng_.chance(0.5) ? simt::ReconvPolicy::StackIpdom
                                   : simt::ReconvPolicy::MinSpPc;
    int width = 1 << rng_.range(0, 5);
    int n = static_cast<int>(rng_.range(width, 4 * width));
    auto eff = measureEfficiency(*svc, batch::Policy::Naive, policy,
                                 width, n, GetParam());
    EXPECT_GT(eff.efficiency(), 0.0);
    EXPECT_LE(eff.efficiency(), 1.0 + 1e-12);
    EXPECT_EQ(eff.stats.width, width);
}

TEST_P(SeededTest, BatchWindowsTileArrivalsAndEmitInOrder)
{
    // The cluster engine schedules a web server's next batch from its
    // current one, which is exact only because formed batches tile the
    // server's time-sorted arrivals and their emit times never
    // decrease. Arrivals mix bursts, ties and long gaps.
    for (int bsize : {1, 4, 32}) {
        for (double timeout : {0.0, 100.0}) {
            SCOPED_TRACE("bsize " + std::to_string(bsize) + ", timeout " +
                         std::to_string(timeout));
            const size_t n = static_cast<size_t>(rng_.range(1, 3000));
            std::vector<double> times(n);
            double now = rng_.uniform() * 1000;
            for (double &t : times) {
                if (!rng_.chance(0.1))
                    now += rng_.exponential(rng_.chance(0.5) ? 4 : 300);
                t = now;
            }
            const auto wins =
                sys::formBatchWindows(times.data(), n, bsize, timeout);
            ASSERT_FALSE(wins.empty());
            EXPECT_EQ(wins.front().begin, 0u);
            EXPECT_EQ(wins.back().end, n);
            for (size_t i = 0; i < wins.size(); ++i) {
                const sys::BatchWindow &w = wins[i];
                ASSERT_LT(w.begin, w.end);
                EXPECT_LE(w.end - w.begin, static_cast<size_t>(bsize));
                // A batch never leaves before its last request arrives.
                EXPECT_GE(w.emitTime, times[w.end - 1]);
                if (i == 0)
                    continue;
                EXPECT_EQ(w.begin, wins[i - 1].end);
                EXPECT_LE(wins[i - 1].emitTime, w.emitTime)
                    << "batch " << i;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));
