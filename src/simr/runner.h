/**
 * @file
 * Experiment runner: the high-level API that examples, tests and the
 * reproduction benches drive. Wires together request generation, the
 * batching server, the lockstep SIMT engines, the timing cores and the
 * energy model.
 */

#ifndef SIMR_SIMR_RUNNER_H
#define SIMR_SIMR_RUNNER_H

#include <vector>

#include "batching/policy.h"
#include "core/pipeline.h"
#include "energy/model.h"
#include "mem/allocator.h"
#include "services/service.h"
#include "simt/lockstep.h"

namespace simr
{

/** Generate `n` arrival-ordered requests for a service. */
std::vector<svc::Request> genRequests(const svc::Service &svc, int n,
                                      uint64_t seed);

/**
 * Batch provider over pre-formed batches: lane l of every batch runs in
 * hardware thread slot l (stacks contiguous per batch, arenas assigned
 * by the allocator policy).
 */
simt::LockstepEngine::BatchProvider
makeBatchProvider(const svc::Service &svc, std::vector<batch::Batch> batches,
                  mem::AllocPolicy alloc_policy = mem::AllocPolicy::SimrAware);

/**
 * Scalar request provider: requests run back-to-back in hardware thread
 * slot `slot`.
 */
trace::RequestProvider
makeScalarProvider(const svc::Service &svc, std::vector<svc::Request> reqs,
                   uint64_t slot,
                   mem::AllocPolicy alloc_policy = mem::AllocPolicy::GlibcLike);

/** SIMT-efficiency measurement (Figs. 4 and 11). */
struct EfficiencyResult
{
    simt::SimtStats stats;

    double efficiency() const { return stats.efficiency(); }
};

/**
 * Measure SIMT efficiency of a service under a batching policy and
 * reconvergence scheme, over `n` requests batched `width` wide: one
 * lockstep engine, built and drained like a one-context RPU front end
 * (runFrontEnd with the same width, policy, reconvergence, requests and
 * seed gives the same SimtStats), always live and consulting no
 * process-wide cache. The stats are also recorded into the scoped
 * registry. An optional observer (obs::DivergenceProfiler,
 * obs::SpanRecorder, ...) sees every lockstep event of the run.
 */
EfficiencyResult measureEfficiency(const svc::Service &svc,
                                   batch::Policy policy,
                                   simt::ReconvPolicy reconv, int width,
                                   int n, uint64_t seed,
                                   simt::LockstepObserver *observer = nullptr);

/** One chip-level timing + energy run. */
struct TimingRun
{
    core::CoreResult core;
    energy::EnergyBreakdown energy;
    /** Lockstep SIMT stats summed across engines (batch configs only). */
    simt::SimtStats simt;
    /**
     * Trace-cache accounting summed across this run's lanes/streams.
     * Unlike everything above it depends on what earlier runs left in
     * the process-wide cache, so it is reported, never gated on.
     */
    trace::ReuseStats reuse;

    double reqPerJoule() const
    {
        return energy::requestsPerJoule(core, energy);
    }
};

/** Options for runTiming. */
struct TimingOptions
{
    batch::Policy policy = batch::Policy::PerApiArgSize;
    simt::ReconvPolicy reconv = simt::ReconvPolicy::MinSpPc;
    mem::AllocPolicy alloc = mem::AllocPolicy::SimrAware;
    int requests = 512;
    uint64_t seed = 42;
    /** Override the batch size; 0 = the service's tuned batch size. */
    int batchOverride = 0;
    bool useTunedBatch = true;
    /**
     * Replay from (and capture into) the process-wide trace caches, at
     * both levels: requests from trace::TraceCache, and whole per-unit
     * DynOp streams from simr::StreamCache when an identical cell
     * already ran. Replay is bit-identical to live execution (gated by
     * trace_replay_gate), so this only changes wall-clock time; set
     * false to force live interpretation (efficiency probes and cache
     * studies always run so). Ignored when caching is disabled
     * process-wide via SIMR_TRACE_CACHE=0.
     */
    bool useTraceCache = true;

    /** Same run: every field above. */
    bool operator==(const TimingOptions &) const = default;
};

/**
 * Run a service through a core configuration:
 *  - batchWidth > 1: lockstep batch stream (RPU / GPU),
 *  - smtThreads > 1: requests split across SMT contexts,
 *  - otherwise: one scalar stream.
 */
TimingRun runTiming(const svc::Service &svc, const core::CoreConfig &cfg,
                    const TimingOptions &opt);

/**
 * Result of a front-end-only run: the cell's DynOp streams drained
 * with no timing core behind them.
 */
struct FrontEndRun
{
    /** Lockstep SIMT stats summed across engines (batch configs only). */
    simt::SimtStats simt;
    /** Request- and stream-level trace reuse (reported, never gated). */
    trace::ReuseStats reuse;
    uint64_t dynOps = 0;     ///< DynOps produced across all streams
    uint64_t requests = 0;   ///< requests completed across all streams
    /**
     * Digest of every DynOp drained, in drain order: each field the
     * timing core reads, lane/address prefix included. Equal streams
     * give equal digests, so a replay gate can check the stream itself
     * and not only the statistics it leaves behind.
     */
    uint64_t digest = 0;
};

/**
 * Run only the front end of a cell -- request generation, batching,
 * lockstep/scalar execution -- and drain the resulting DynOp streams,
 * with the same trace-cache behaviour as runTiming (identical stream
 * keys, so the two share captures). This is the functional half of
 * the simulator: SIMT-efficiency studies, batching-policy sweeps and
 * trace characterization all reduce to it, and it is what the trace
 * cache accelerates end to end. Records no core/simt run metrics (it
 * is a functional probe); the batching layer's batch.* metrics record
 * exactly as in a timing run, warm or cold.
 */
FrontEndRun runFrontEnd(const svc::Service &svc,
                        const core::CoreConfig &cfg,
                        const TimingOptions &opt);

/**
 * One experiment cell of a sweep: a service under a core configuration
 * with run options. The unit of parallelism in the experiment harness.
 */
struct Cell
{
    std::string service;      ///< registry name (svc::buildService)
    core::CoreConfig cfg;
    TimingOptions opt;

    /**
     * Cell identity: the service, every CoreConfig field and every
     * TimingOptions field. Two equal cells run bit-identically
     * (runCells seeds a cell from its identity alone).
     */
    bool operator==(const Cell &) const = default;
};

/**
 * Seed for one cell, derived from the master seed and the cell identity
 * (service name + the config fields that change what executes). Because
 * the seed depends only on what the cell *is* -- never on when or where
 * it runs -- sweep results are bit-identical to the serial order at any
 * thread count.
 */
uint64_t cellSeed(uint64_t master, const std::string &service,
                  const core::CoreConfig &cfg);

/**
 * Run a sweep of cells, fanned out over `threads` workers
 * (0 = defaultThreads(), 1 = serial on the calling thread). Each cell
 * builds its own service instance and runs runTiming with its derived
 * cellSeed; results return in input order.
 *
 * Observability: each cell runs under its own private obs::Registry
 * (tracing disabled inside cells), and the per-cell registries are
 * merged into the caller's scoped registry in input order after the
 * fan-out -- so the merged exposition is bit-identical at any thread
 * count.
 */
std::vector<TimingRun> runCells(const std::vector<Cell> &cells,
                                int threads = 0);

/**
 * Snapshot the process-wide trace-cache statistics into a registry:
 * trace.cache_hits / trace.cache_misses / trace.dedup_requests counters
 * and the trace.bytes_resident / trace.entries / trace.evictions gauges
 * for the request-level cache, plus trace.stream_hits /
 * trace.stream_misses and trace.stream_* gauges for the stream-level
 * cache (trace.stream_entries, trace.stream_bytes_resident and
 * trace.stream_ops count streams, the last one their ops, so the two
 * give bytes per op). Callers (simr_cli stats) invoke this once,
 * right before exposition; runCells deliberately does not -- cache
 * hit/miss totals depend on cross-thread scheduling, and the per-cell
 * registries it merges must stay bit-identical at any thread count.
 * No-op when the cache is disabled (SIMR_TRACE_CACHE=0).
 */
void recordTraceCacheStats();

/**
 * Fold the process-wide analysis cache totals into the current scoped
 * registry: analysis.cache_hits / analysis.cache_misses counters and
 * the analysis.cache_entries gauge. Same exposition contract as
 * recordTraceCacheStats (call once before exposition; never from
 * runCells).
 */
void recordAnalysisStats();

} // namespace simr

#endif // SIMR_SIMR_RUNNER_H
