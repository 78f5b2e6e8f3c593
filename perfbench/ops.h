/**
 * @file
 * The benchmark's operations: one timing cell, one SIMT-efficiency
 * cell, one cache study or one cluster load point. Each runs through
 * the simulator's public entry points, checks its output, folds every
 * simulated statistic into the digest and its cache reuse into the
 * reuse digest, and adds its work to the phase totals. In the traced
 * run each operation also records one parent span with one child span
 * per layer call.
 */

#ifndef SIMR_PERFBENCH_OPS_H
#define SIMR_PERFBENCH_OPS_H

#include <cstdint>
#include <string>
#include <vector>

#include "digest.h"
#include "simr/cachestudy.h"
#include "simr/runner.h"
#include "spans.h"
#include "sys/cluster.h"

namespace perfbench
{

/** Work done in one phase, gathered from operation results. */
struct Totals
{
    uint64_t ops = 0;
    uint64_t opsFailed = 0;
    uint64_t simRequests = 0;   ///< requests the operations simulated

    // Timing core.
    uint64_t coreCycles = 0;
    uint64_t coreTickedCycles = 0;
    uint64_t coreBatchOps = 0;

    // Lockstep SIMT (timing and efficiency cells).
    uint64_t simtBatchOps = 0;
    uint64_t simtScalarOps = 0;
    double simtSlots = 0;       ///< sum of batchOps x width

    // Request- and stream-level trace reuse (timing cells).
    simr::trace::ReuseStats reuse;
    uint64_t streamLookups = 0; ///< StreamCache hits + misses
    uint64_t streamHits = 0;
    uint64_t liveOps = 0;       ///< front-end ops not served by replay

    // Memory (cache studies and timing cells).
    uint64_t l1Accesses = 0;
    uint64_t l1Misses = 0;
    uint64_t mshrMerges = 0;
    uint64_t tlbMisses = 0;

    // Services, analysis and batching calls the traced run times.
    uint64_t genRequests = 0;
    uint64_t programs = 0;
    uint64_t batches = 0;
    uint64_t batchedRequests = 0;
    uint64_t batchSlots = 0;

    // Cluster.
    uint64_t sysEvents = 0;
    uint64_t sysWindows = 0;
    uint64_t sysMailboxSends = 0;
    uint64_t sysMailboxSpills = 0;
    uint64_t sysBatches = 0;
    uint64_t sysMemcMisses = 0;
};

/** Host wall and CPU seconds of each operation of one phase. */
struct OpTimes
{
    std::vector<double> wall;
    std::vector<double> cpu;
};

/** State one workload process carries through its operations. */
struct Bench
{
    explicit Bench(bool traced) : log(traced) {}

    SpanLog log;
    Digest digest;        ///< simulated statistics, operation by operation
    Digest reuseDigest;   ///< cache hits, misses and replayed ops
    Totals setup;
    Totals measure;
    Totals *cur = &setup;
    OpTimes setupTimes;
    OpTimes measureTimes;
    OpTimes *curTimes = &setupTimes;

    void
    enter(Phase p)
    {
        log.setPhase(p);
        cur = p == Phase::Setup ? &setup : &measure;
        curTimes = p == Phase::Setup ? &setupTimes : &measureTimes;
    }
};

/** Process CPU seconds (user + system, all threads). */
double cpuSeconds();

/**
 * Records the host wall and CPU time of one operation's simulator call;
 * the benchmark's own checks and digests stay outside it.
 */
class OpTimer
{
  public:
    explicit OpTimer(Bench &b)
        : times_(*b.curTimes), wall0_(Clock::now()), cpu0_(cpuSeconds())
    {}
    ~OpTimer()
    {
        times_.wall.push_back(
            std::chrono::duration<double>(Clock::now() - wall0_).count());
        times_.cpu.push_back(cpuSeconds() - cpu0_);
    }
    OpTimer(const OpTimer &) = delete;
    OpTimer &operator=(const OpTimer &) = delete;

  private:
    OpTimes &times_;
    Clock::time_point wall0_;
    double cpu0_;
};

/**
 * One timing cell (runCells with one worker). The traced run builds the
 * cell's streams itself from the same public pieces runTiming uses and
 * hands the core a TimedStream per stream.
 */
simr::TimingRun timingCell(Bench &b, const simr::Cell &cell);

/** One SIMT-efficiency cell (measureEfficiency). */
void efficiencyCell(Bench &b, const simr::svc::Service &svc,
                    simr::batch::Policy policy,
                    simr::simt::ReconvPolicy reconv, int width, int n,
                    uint64_t seed);

/** One L1 cache study: studyRpuCache when batch > 0, else the CPU. */
void cacheStudy(Bench &b, const simr::svc::Service &svc, int batch,
                const simr::CacheStudyOptions &opt);

/** One cluster load point (runCluster); `system` tags its spans. */
void clusterPoint(Bench &b, const std::string &system,
                  const simr::sys::ClusterConfig &cfg);

/** Every reported statistic of two timing runs is identical. */
bool sameRun(const simr::TimingRun &a, const simr::TimingRun &b);

} // namespace perfbench

#endif // SIMR_PERFBENCH_OPS_H
