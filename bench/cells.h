/**
 * @file
 * Experiment inputs defined once for the benches that time them and
 * the tests that check them: the seven core design points, the
 * 14-service x 4-config sweep with its front-end twin, the four
 * sys_pdes_gate cluster cells and the runners the journey and PDES
 * gates share with their benches.
 */

#ifndef SIMR_BENCH_CELLS_H
#define SIMR_BENCH_CELLS_H

#include <string>
#include <vector>

#include "common/parallel.h"
#include "obs/journey.h"
#include "obs/metrics.h"
#include "simr/runner.h"
#include "simr/streamcache.h"
#include "sys/cluster.h"
#include "trace/capture.h"

namespace simr::bench
{

/** One core design point: a label for tables and messages, and its
 *  config. */
struct DesignPoint
{
    const char *label;
    core::CoreConfig cfg;
};

/** Table IV's design points: the first four of designPoints(). */
constexpr size_t kTableIvPoints = 4;

/**
 * The four Table IV design points (CPU, SMT-8, RPU, GPU-like), then the
 * three Sec. V-A1 RPU variants -- 32 full-width lanes, atomics in the
 * L1, lane-0 branch prediction -- whose paths the stock configs never
 * take. The variants keep the RPU's config name; `label` tells them
 * apart.
 */
inline std::vector<DesignPoint>
designPoints()
{
    core::CoreConfig lanes32 = core::makeRpuConfig();
    lanes32.lanes = 32;
    core::CoreConfig atomicsL1 = core::makeRpuConfig();
    atomicsL1.mem.atomicsAtL3 = false;
    core::CoreConfig lane0Bp = core::makeRpuConfig();
    lane0Bp.majorityVoteBp = false;
    return {
        {"cpu", core::makeCpuConfig()},
        {"cpu-smt8", core::makeSmt8Config()},
        {"rpu", core::makeRpuConfig()},
        {"gpu", core::makeGpuConfig()},
        {"rpu-lanes32", lanes32},
        {"rpu-atomics-l1", atomicsL1},
        {"rpu-lane0-bp", lane0Bp},
    };
}

/** The 14-service sweep under Table IV's four design points,
 *  config-major. */
inline std::vector<Cell>
sweepCells(const TimingOptions &opt)
{
    const std::vector<DesignPoint> points = designPoints();
    std::vector<Cell> cells;
    for (size_t d = 0; d < kTableIvPoints; ++d)
        for (const auto &name : svc::serviceNames())
            cells.push_back({name, points[d].cfg, opt});
    return cells;
}

/**
 * The front-end half of every cell (runFrontEnd, no timing core),
 * fanned out like runCells and with the same per-cell seeds, so the
 * sweep shares stream-cache entries with the timing sweeps.
 */
inline std::vector<FrontEndRun>
frontEndSweep(const std::vector<Cell> &cells)
{
    std::vector<FrontEndRun> out(cells.size());
    parallelFor(cells.size(), [&](size_t i) {
        const Cell &cell = cells[i];
        auto svc = svc::buildService(cell.service);
        TimingOptions opt = cell.opt;
        opt.seed = cellSeed(cell.opt.seed, cell.service, cell.cfg);
        out[i] = runFrontEnd(*svc, cell.cfg, opt);
    }, 0);
    return out;
}

/** Drop both trace-cache levels (request traces and whole streams). */
inline void
clearCaches()
{
    trace::TraceCache::process()->clear();
    StreamCache::process()->clear();
}

/**
 * "config/service(tag)" of every cell whose model output differs
 * between two timing sweeps: the core result and the lockstep
 * statistics. Trace reuse is reported, never compared.
 */
inline std::vector<std::string>
divergedCells(const std::vector<Cell> &cells,
              const std::vector<TimingRun> &a,
              const std::vector<TimingRun> &b, const char *tag)
{
    std::vector<std::string> out;
    for (size_t i = 0; i < cells.size(); ++i)
        if (!core::sameOutput(a[i].core, b[i].core) ||
            a[i].simt != b[i].simt)
            out.push_back(cells[i].cfg.name + "/" + cells[i].service +
                          "(" + tag + ")");
    return out;
}

/**
 * The same for two front-end sweeps: lockstep statistics, op and
 * request counts and the digest of every op drained, so a replayed
 * stream that leaves every statistic equal still diverges if one
 * address differs.
 */
inline std::vector<std::string>
divergedCells(const std::vector<Cell> &cells,
              const std::vector<FrontEndRun> &a,
              const std::vector<FrontEndRun> &b, const char *tag)
{
    std::vector<std::string> out;
    for (size_t i = 0; i < cells.size(); ++i)
        if (a[i].simt != b[i].simt || a[i].dynOps != b[i].dynOps ||
            a[i].requests != b[i].requests || a[i].digest != b[i].digest)
            out.push_back(cells[i].cfg.name + "/" + cells[i].service +
                          "(" + tag + ")");
    return out;
}

/** One one-replica scenario cell (sys::oneReplica()): platform and
 *  offered load. */
struct SysCell
{
    bool rpu;
    bool split;
    double qps;
};

/** Run one SysCell with a journey recorder of `mode` in scope;
 *  `sampled_ids`, when given, receives the kept journeys' request ids. */
inline sys::SysResult
runSysCell(const SysCell &cell, int requests, uint64_t seed,
           obs::JourneyMode mode, std::vector<uint64_t> *sampled_ids)
{
    sys::ClusterConfig cfg = sys::oneReplica();
    cfg.qps = cell.qps;
    cfg.requests = static_cast<uint64_t>(requests);
    cfg.seed = seed;
    cfg.base.rpu = cell.rpu;
    cfg.base.batchSplit = cell.split;
    obs::JourneyRecorder rec(mode, 256);
    obs::Registry reg;
    obs::Scope scope(&reg, nullptr, &rec);
    sys::SysResult r = sys::runCluster(cfg).sys;
    if (sampled_ids) {
        sampled_ids->clear();
        for (const auto &j : rec.snapshot())
            sampled_ids->push_back(j.reqId);
    }
    return r;
}

/** One named cluster cell. */
struct ClusterCell
{
    const char *name;
    sys::ClusterConfig cfg;
};

/**
 * The four sys_pdes_gate cells, 22 servers and 2000 users each:
 * RPU with and without batch splitting, CPU, and a bursty RPU cell
 * (bursty arrivals and a 70% memcached hit rate) whose cross-shard
 * traffic comes in bunches.
 */
inline std::vector<ClusterCell>
pdesGateCells(uint64_t seed)
{
    sys::ClusterConfig base;
    base.webServers = 8;
    base.userServers = 6;
    base.mcrouterServers = 4;
    base.memcServers = 4;
    base.storageServers = 2;
    base.users = 2000;
    base.requests = 20000;
    base.seed = seed;

    std::vector<ClusterCell> cells;
    auto add = [&cells](const char *name, sys::ClusterConfig c, bool rpu,
                        bool split, double qps) {
        c.base.rpu = rpu;
        c.base.batchSplit = split;
        c.qps = qps;
        cells.push_back({name, c});
    };
    add("rpu-split", base, true, true, 150000);
    add("rpu-nosplit", base, true, false, 150000);
    add("cpu", base, false, true, 80000);
    sys::ClusterConfig bursty = base;
    bursty.base.memcHitRate = 0.7;
    bursty.burstProb = 0.2;
    add("bursty", bursty, true, true, 150000);
    return cells;
}

/**
 * One cluster-engine run under a fresh observability scope; shards ==
 * 0 runs the sequential reference engine. With `journeys`, a sampled
 * recorder (256 journeys, fixed seed) is in scope and its set is
 * returned there.
 */
inline sys::ClusterResult
runEngine(sys::ClusterConfig cfg, int shards, int threads,
          std::vector<obs::Journey> *journeys)
{
    obs::Registry reg;
    obs::JourneyRecorder rec(obs::JourneyMode::Sampled, 256,
                             0x5eed5eedULL);
    obs::Scope scope(&reg, nullptr, journeys ? &rec : nullptr);
    sys::ClusterResult r;
    if (shards == 0) {
        r = sys::runClusterSequential(cfg);
    } else {
        cfg.shards = shards;
        cfg.threads = threads;
        r = sys::runCluster(cfg);
    }
    if (journeys)
        *journeys = rec.snapshot();
    return r;
}

} // namespace simr::bench

#endif // SIMR_BENCH_CELLS_H
