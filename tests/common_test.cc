/**
 * @file
 * Unit tests for the common utilities: RNG, statistics, tables, config.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>

#include "common/config.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "simr/streamcache.h"
#include "sys/cluster.h"
#include "trace/capture.h"

using namespace simr;

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = r.range(3, 6);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 6);
        saw_lo = saw_lo || v == 3;
        saw_hi = saw_hi || v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, RangeDegenerate)
{
    Rng r(7);
    EXPECT_EQ(r.range(5, 5), 5);
    EXPECT_EQ(r.range(9, 2), 9);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceProbability)
{
    Rng r(13);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ExponentialMean)
{
    Rng r(17);
    double sum = 0;
    for (int i = 0; i < 20000; ++i)
        sum += r.exponential(50.0);
    EXPECT_NEAR(sum / 20000.0, 50.0, 2.5);
}

TEST(Rng, ZipfBounded)
{
    Rng r(19);
    for (int i = 0; i < 5000; ++i)
        EXPECT_LT(r.zipf(100, 0.9), 100u);
}

TEST(Rng, ZipfSkewed)
{
    // Heavier skew concentrates more mass on low ranks.
    Rng r(23);
    int low_heavy = 0, low_flat = 0;
    for (int i = 0; i < 5000; ++i) {
        low_heavy += r.zipf(1000, 1.2) < 10 ? 1 : 0;
        low_flat += r.zipf(1000, 0.3) < 10 ? 1 : 0;
    }
    EXPECT_GT(low_heavy, low_flat);
}

TEST(Rng, ZipfSingleItem)
{
    Rng r(29);
    EXPECT_EQ(r.zipf(1, 0.9), 0u);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng r(31);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Mix64, DeterministicAndSpread)
{
    EXPECT_EQ(mix64(42), mix64(42));
    std::set<uint64_t> outs;
    for (uint64_t i = 0; i < 1000; ++i)
        outs.insert(mix64(i));
    EXPECT_EQ(outs.size(), 1000u);
}

TEST(RunningStat, Basics)
{
    RunningStat s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
    EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-9);
}

TEST(RunningStat, Empty)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MergeMatchesCombined)
{
    RunningStat a, b, all;
    Rng r(37);
    for (int i = 0; i < 100; ++i) {
        double x = r.uniform() * 10;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Histogram, Percentiles)
{
    Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
    EXPECT_NEAR(h.percentile(0.5), 50.5, 0.01);
    EXPECT_NEAR(h.percentile(0.99), 99.01, 0.05);
}

TEST(Histogram, AddAfterPercentile)
{
    Histogram h;
    h.add(5);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 5.0);
    h.add(100);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
}

TEST(Histogram, EmptyIsZero)
{
    Histogram h;
    EXPECT_EQ(h.percentile(0.5), 0.0);
    EXPECT_EQ(h.count(), 0u);
    // Every percentile of an empty histogram is 0, including the
    // endpoints and out-of-range ranks.
    EXPECT_EQ(h.percentile(0.0), 0.0);
    EXPECT_EQ(h.percentile(1.0), 0.0);
    EXPECT_EQ(h.percentile(-1.0), 0.0);
    EXPECT_EQ(h.percentile(2.0), 0.0);
}

TEST(Histogram, SingleSampleEveryPercentile)
{
    Histogram h;
    h.add(42.0);
    for (double p : {0.0, 0.01, 0.5, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(h.percentile(p), 42.0) << "p=" << p;
}

TEST(Histogram, PercentileEdgeRanksClamp)
{
    Histogram h;
    for (double x : {10.0, 20.0, 30.0, 40.0})
        h.add(x);
    // p <= 0 is the minimum, p >= 1 the maximum -- including ranks
    // outside [0, 1] and NaN (treated as rank 0).
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(-0.5), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 40.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.5), 40.0);
    EXPECT_DOUBLE_EQ(h.percentile(std::nan("")), 10.0);
}

TEST(Histogram, PercentileInterpolationLocked)
{
    // Regression lock on the interpolation scheme (R-7, the linear
    // rank estimator): for {10,20,30,40}, rank h = p*(n-1) and the
    // result interpolates between floor(h) and floor(h)+1.
    Histogram h;
    for (double x : {10.0, 20.0, 30.0, 40.0})
        h.add(x);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 25.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.25), 17.5);
    EXPECT_DOUBLE_EQ(h.percentile(0.75), 32.5);
    EXPECT_DOUBLE_EQ(h.percentile(1.0 / 3.0), 20.0);
}

TEST(Histogram, MergeMatchesCombined)
{
    Histogram a, b, all;
    Rng r(91);
    for (int i = 0; i < 200; ++i) {
        double x = r.uniform() * 100;
        (i % 3 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    for (double p : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(a.percentile(p), all.percentile(p))
            << "p=" << p;
}

TEST(Histogram, MergeAfterPercentileResorts)
{
    Histogram a, b;
    a.add(30.0);
    a.add(10.0);
    EXPECT_DOUBLE_EQ(a.percentile(1.0), 30.0);  // forces the sort
    b.add(20.0);
    b.add(40.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.percentile(0.5), 25.0);
    EXPECT_DOUBLE_EQ(a.percentile(1.0), 40.0);
}

TEST(CounterSet, AddGetMerge)
{
    CounterSet a, b;
    a.add("x");
    a.add("x", 4);
    b.add("x", 2);
    b.add("y", 7);
    a.merge(b);
    EXPECT_EQ(a.get("x"), 7u);
    EXPECT_EQ(a.get("y"), 7u);
    EXPECT_EQ(a.get("missing"), 0u);
}

TEST(Table, RendersAlignedRows)
{
    Table t("demo");
    t.header({"a", "bb"});
    t.row({"1", "2"});
    t.row({"333", "4"});
    std::string out = t.render();
    EXPECT_NE(out.find("== demo =="), std::string::npos);
    EXPECT_NE(out.find("| 333 | 4  |"), std::string::npos);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(Table::num(1.234, 2), "1.23");
    EXPECT_EQ(Table::mult(5.7), "5.70x");
    EXPECT_EQ(Table::pct(0.921), "92.1%");
}

TEST(Config, EnvFallbacks)
{
    unsetenv("SIMR_TEST_INT");
    EXPECT_EQ(envInt("SIMR_TEST_INT", 42), 42);
    setenv("SIMR_TEST_INT", "17", 1);
    EXPECT_EQ(envInt("SIMR_TEST_INT", 42), 17);
    unsetenv("SIMR_TEST_INT");

    EXPECT_DOUBLE_EQ(envDouble("SIMR_TEST_DBL", 1.5), 1.5);
    EXPECT_EQ(envStr("SIMR_TEST_STR", "dflt"), "dflt");
}

// A mistyped SIMR_* value must stop the run, naming the variable and
// the value, instead of silently selecting some other behaviour.
TEST(ConfigDeath, EnvIntRejectsAnythingButAWholeInteger)
{
    for (const char *bad : {"on", "4x", "x4", " 4", "4 ", "0x10", "1e3",
                            "99999999999999999999"}) {
        setenv("SIMR_TEST_INT", bad, 1);
        EXPECT_EXIT(envInt("SIMR_TEST_INT", 42),
                    ::testing::ExitedWithCode(1),
                    "SIMR_TEST_INT=.*: expected a base-10 integer")
            << "value '" << bad << "'";
    }
    setenv("SIMR_TEST_INT", "on", 1);
    EXPECT_EXIT(envInt("SIMR_TEST_INT", 42), ::testing::ExitedWithCode(1),
                "SIMR_TEST_INT=on");

    // Whole integers, signed or not, still parse; empty means unset.
    setenv("SIMR_TEST_INT", "-17", 1);
    EXPECT_EQ(envInt("SIMR_TEST_INT", 42), -17);
    setenv("SIMR_TEST_INT", "", 1);
    EXPECT_EQ(envInt("SIMR_TEST_INT", 42), 42);
    unsetenv("SIMR_TEST_INT");
}

TEST(ConfigDeath, EnvIntRejectsValuesBelowMin)
{
    setenv("SIMR_TEST_INT", "-1", 1);
    EXPECT_EXIT(envInt("SIMR_TEST_INT", 42, 0), ::testing::ExitedWithCode(1),
                "SIMR_TEST_INT=-1: must be >= 0");
    setenv("SIMR_TEST_INT", "0", 1);
    EXPECT_EQ(envInt("SIMR_TEST_INT", 42, 0), 0);
    unsetenv("SIMR_TEST_INT");
}

TEST(ConfigDeath, ThreadCountMustBeAWholeNonNegativeInteger)
{
    setenv("SIMR_THREADS", "4x", 1);
    EXPECT_EXIT(defaultThreads(), ::testing::ExitedWithCode(1),
                "SIMR_THREADS=4x: expected a base-10 integer");
    setenv("SIMR_THREADS", "-1", 1);
    EXPECT_EXIT(defaultThreads(), ::testing::ExitedWithCode(1),
                "SIMR_THREADS=-1: must be >= 0");
    // 0 still means one worker per hardware thread.
    setenv("SIMR_THREADS", "0", 1);
    EXPECT_EQ(defaultThreads(), hardwareThreads());
    unsetenv("SIMR_THREADS");
}

TEST(ConfigDeath, TraceCachesRejectTyposAndNegativeBudgets)
{
    // The caches read their environment once, in a process-wide
    // singleton: re-execute for each death test so every child starts
    // with the singletons unbuilt.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    setenv("SIMR_TRACE_CACHE", "on", 1);
    EXPECT_EXIT(trace::TraceCache::process(), ::testing::ExitedWithCode(1),
                "SIMR_TRACE_CACHE=on: expected a base-10 integer");
    EXPECT_EXIT(StreamCache::process(), ::testing::ExitedWithCode(1),
                "SIMR_TRACE_CACHE=on: expected a base-10 integer");
    unsetenv("SIMR_TRACE_CACHE");

    setenv("SIMR_TRACE_CACHE_MB", "-1", 1);
    EXPECT_EXIT(trace::TraceCache::process(), ::testing::ExitedWithCode(1),
                "SIMR_TRACE_CACHE_MB=-1: must be >= 0");
    unsetenv("SIMR_TRACE_CACHE_MB");

    setenv("SIMR_STREAM_CACHE_MB", "-1", 1);
    EXPECT_EXIT(StreamCache::process(), ::testing::ExitedWithCode(1),
                "SIMR_STREAM_CACHE_MB=-1: must be >= 0");
    unsetenv("SIMR_STREAM_CACHE_MB");
}

TEST(ConfigDeath, ClusterShardCountMustBeNonNegative)
{
    setenv("SIMR_SYS_SHARDS", "-2", 1);
    sys::ClusterConfig cfg;
    EXPECT_EXIT(sys::runCluster(cfg), ::testing::ExitedWithCode(1),
                "SIMR_SYS_SHARDS=-2: must be >= 0");
    unsetenv("SIMR_SYS_SHARDS");
}

TEST(Config, RunScaleFromEnv)
{
    setenv("SIMR_REQUESTS", "123", 1);
    setenv("SIMR_TIMING_REQUESTS", "45", 1);
    auto s = RunScale::fromEnv();
    EXPECT_EQ(s.requests, 123);
    EXPECT_EQ(s.timingRequests, 45);
    unsetenv("SIMR_REQUESTS");
    unsetenv("SIMR_TIMING_REQUESTS");
}

TEST(Histogram, AddNMatchesRepeatedAdd)
{
    // The commit stage retires multi-request batches through addN; the
    // figures must not shift against the one-add-per-request original.
    Histogram bulk, loop;
    struct { double x; uint64_t n; } batches[] = {
        {12.0, 3}, {4.5, 1}, {90.25, 7}, {4.5, 5}, {0.0, 2},
    };
    for (const auto &b : batches) {
        bulk.addN(b.x, b.n);
        for (uint64_t i = 0; i < b.n; ++i)
            loop.add(b.x);
    }
    EXPECT_EQ(bulk.count(), loop.count());
    EXPECT_DOUBLE_EQ(bulk.mean(), loop.mean());
    EXPECT_DOUBLE_EQ(bulk.min(), loop.min());
    EXPECT_DOUBLE_EQ(bulk.max(), loop.max());
    for (double p : {0.5, 0.9, 0.95, 0.99})
        EXPECT_DOUBLE_EQ(bulk.percentile(p), loop.percentile(p));
}

TEST(Histogram, AddNZeroCountIsNoop)
{
    Histogram h;
    h.addN(7.0, 0);
    EXPECT_EQ(h.count(), 0u);
    h.add(1.0);
    h.addN(3.0, 0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.max(), 1.0);
}
