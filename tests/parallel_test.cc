/**
 * @file
 * Tests for the parallel experiment harness: pool lifecycle and
 * exception propagation, parallelFor/parallelMap semantics, and the
 * cell-sweep determinism contract (runCells must produce bit-identical
 * TimingRun statistics at any worker count), plus the PDES kernel's
 * synchronization primitive, the reusable spin barrier.
 */

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "simr/runner.h"

using namespace simr;

TEST(ThreadPool, RunsAllTasks)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.run([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ReusableAfterWait)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.run([&count] { ++count; });
    pool.wait();
    pool.run([&count] { ++count; });
    pool.run([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, ShutdownDrainsQueue)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.run([&count] { ++count; });
        // Destructor must drain the queue before joining.
    }
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ShutdownIdempotent)
{
    ThreadPool pool(2);
    pool.run([] {});
    pool.shutdown();
    pool.shutdown();  // second call is a no-op
}

TEST(ThreadPool, WaitRethrowsFirstTaskException)
{
    ThreadPool pool(2);
    pool.run([] { throw std::runtime_error("task boom"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The error is cleared by the rethrow: the pool stays usable.
    std::atomic<int> count{0};
    pool.run([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, CoversRangeExactlyOnce)
{
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(hits.size(), [&](size_t i) { ++hits[i]; }, 8);
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SerialFallbackPreservesOrder)
{
    std::vector<size_t> order;
    parallelFor(10, [&](size_t i) { order.push_back(i); }, 1);
    ASSERT_EQ(order.size(), 10u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, PropagatesBodyException)
{
    EXPECT_THROW(
        parallelFor(64, [&](size_t i) {
            if (i == 13)
                throw std::runtime_error("body boom");
        }, 4),
        std::runtime_error);
}

TEST(ParallelFor, SerialExceptionAlsoPropagates)
{
    EXPECT_THROW(
        parallelFor(4, [&](size_t i) {
            if (i == 2)
                throw std::logic_error("serial boom");
        }, 1),
        std::logic_error);
}

TEST(ParallelMap, ResultsInInputOrder)
{
    std::vector<int> xs(257);
    for (size_t i = 0; i < xs.size(); ++i)
        xs[i] = static_cast<int>(i);
    auto ys = parallelMap(xs, [](int x) { return 2 * x + 1; }, 8);
    ASSERT_EQ(ys.size(), xs.size());
    for (size_t i = 0; i < ys.size(); ++i)
        EXPECT_EQ(ys[i], 2 * static_cast<int>(i) + 1);
}

TEST(ParallelConfig, ThreadOverrideWins)
{
    setDefaultThreads(3);
    EXPECT_EQ(defaultThreads(), 3);
    setDefaultThreads(0);
    EXPECT_GE(defaultThreads(), 1);
}

TEST(CellSeed, PureFunctionOfIdentity)
{
    auto cpu = core::makeCpuConfig();
    auto rpu = core::makeRpuConfig();
    EXPECT_EQ(cellSeed(42, "post", cpu), cellSeed(42, "post", cpu));
    EXPECT_NE(cellSeed(42, "post", cpu), cellSeed(42, "user", cpu));
    EXPECT_NE(cellSeed(42, "post", cpu), cellSeed(43, "post", cpu));
    // Config flavours of one service share the request stream.
    EXPECT_EQ(cellSeed(42, "post", cpu), cellSeed(42, "post", rpu));
}

namespace
{

/** The model output the determinism contract pins, bit-for-bit, plus
 *  the energy derived from it. */
void
expectIdenticalRuns(const simr::TimingRun &a, const simr::TimingRun &b)
{
    EXPECT_TRUE(simr::core::sameOutput(a.core, b.core));
    EXPECT_EQ(a.energy.total(), b.energy.total());
    EXPECT_EQ(a.reqPerJoule(), b.reqPerJoule());
}

} // namespace

TEST(RunCells, DeterministicAcrossThreadCounts)
{
    TimingOptions opt;
    opt.requests = 96;
    opt.seed = 42;

    // Three services under two configs: enough cells to interleave.
    std::vector<Cell> cells;
    for (const char *name : {"post", "memc", "user"}) {
        cells.push_back({name, core::makeCpuConfig(), opt});
        cells.push_back({name, core::makeRpuConfig(), opt});
    }
    // And the full RPU sweep fully live: with the trace caches on, a
    // later sweep would replay the serial sweep's captures instead of
    // running the harness's own workers end to end.
    TimingOptions live = opt;
    live.useTraceCache = false;
    for (const auto &name : svc::serviceNames())
        cells.push_back({name, core::makeRpuConfig(), live});

    auto serial = runCells(cells, 1);
    int hw = hardwareThreads();
    auto parallel = runCells(cells, hw);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectIdenticalRuns(serial[i], parallel[i]);
    }

    // And further parallel sweeps agree too (no run-to-run jitter).
    for (int threads : {2, 4}) {
        auto again = runCells(cells, std::min(threads, hw));
        for (size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE("cell " + std::to_string(i) + ", " +
                         std::to_string(threads) + " threads");
            expectIdenticalRuns(serial[i], again[i]);
        }
    }
}

TEST(SpinBarrier, SinglePartyIsANoop)
{
    SpinBarrier b(1);
    for (int i = 0; i < 3; ++i)
        b.arriveAndWait(); // must not block
}

TEST(SpinBarrier, SynchronizesPhases)
{
    // Each of 4 threads writes the phase into its own plain (not
    // atomic) slot, then waits. After the barrier every thread must
    // read ALL slots of the phase -- for many consecutive phases
    // (generation reuse) -- and the second barrier keeps the next
    // phase's writes after every read. This is the handoff the PDES
    // kernel relies on; under TSan a barrier that did not publish the
    // writes reports a race here.
    const int parties = 4, phases = 50;
    SpinBarrier barrier(parties);
    std::vector<int> slots(parties, -1);
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < parties; ++t)
        threads.emplace_back([&, t] {
            for (int p = 0; p < phases; ++p) {
                slots[static_cast<size_t>(t)] = p;
                barrier.arriveAndWait();
                for (int v : slots)
                    if (v != p)
                        failures.fetch_add(1);
                barrier.arriveAndWait();
            }
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);
}
