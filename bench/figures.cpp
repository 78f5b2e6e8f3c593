/**
 * @file
 * The paper's tables and figures (and the sensitivity studies and
 * extensions beside them), one function each. Timing cells,
 * efficiency probes and cache studies go through the shared CellMemo.
 * The tuner and the timing runs of the two extensions that run on the
 * master seed call the runner directly.
 */

#include "figures.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "common/parallel.h"
#include "common/table.h"
#include "energy/area.h"
#include "simr/cachestudy.h"
#include "simr/tuner.h"
#include "sys/cluster.h"

namespace simr::bench
{

namespace
{

/**
 * Results of `want`, in input order, from the work `seen` already ran.
 * The work it has not seen is appended and handed, in one vector, to
 * `run_fresh`.
 */
template <typename Seen, typename Work, typename RunFresh>
auto
findOrRun(Seen &seen, const std::vector<Work> &want, RunFresh run_fresh)
{
    const size_t first_new = seen.work.size();
    std::vector<size_t> at;
    at.reserve(want.size());
    for (const Work &w : want) {
        auto it = std::find(seen.work.begin(), seen.work.end(), w);
        at.push_back(static_cast<size_t>(it - seen.work.begin()));
        if (it == seen.work.end())
            seen.work.push_back(w);
    }
    std::vector<Work> fresh(seen.work.begin() + first_new, seen.work.end());
    for (auto &r : run_fresh(fresh))
        seen.results.push_back(std::move(r));

    decltype(seen.results) out;
    out.reserve(at.size());
    for (size_t i : at)
        out.push_back(seen.results[i]);
    return out;
}

} // namespace

std::vector<TimingRun>
CellMemo::run(const std::vector<Cell> &cells)
{
    return findOrRun(cells_, cells, [](const std::vector<Cell> &fresh) {
        return runCells(fresh);
    });
}

std::vector<EfficiencyResult>
CellMemo::run(const std::vector<Probe> &probes)
{
    return findOrRun(probes_, probes, [](const std::vector<Probe> &fresh) {
        return parallelMap(fresh, [](const Probe &p) {
            auto svc = svc::buildService(p.service);
            return measureEfficiency(*svc, p.policy, p.reconv, p.width,
                                     p.requests, p.seed);
        });
    });
}

std::vector<CacheStudyResult>
CellMemo::run(const std::vector<Study> &studies)
{
    return findOrRun(studies_, studies, [](const std::vector<Study> &fresh) {
        return parallelMap(fresh, [](const Study &st) {
            auto svc = svc::buildService(st.service);
            return st.batch > 0 ? studyRpuCache(*svc, st.batch, st.opt)
                                : studyCpuCache(*svc, st.opt);
        });
    });
}

namespace
{

/** Results of one service under one core configuration. */
struct ChipRun
{
    TimingRun cpu;
    TimingRun other;  ///< SMT8 / RPU / GPU, depending on the figure

    double energyRatio() const
    {
        return other.reqPerJoule() / cpu.reqPerJoule();
    }

    double latencyRatio() const
    {
        return other.core.meanLatencySeconds() /
            cpu.core.meanLatencySeconds();
    }
};

/** Cycle-level run options at this scale. */
TimingOptions
timingOptions(const RunScale &scale)
{
    TimingOptions opt;
    opt.requests = static_cast<int>(scale.timingRequests);
    opt.seed = scale.seed;
    return opt;
}

/**
 * Every service under the scalar CPU and one comparison config. The
 * CPU cells are ordinary memo cells, so the baselines run once however
 * many figures compare against them.
 */
std::map<std::string, ChipRun>
runAllServices(CellMemo &memo, const core::CoreConfig &other_cfg,
               const TimingOptions &opt)
{
    const auto &names = svc::serviceNames();
    std::vector<Cell> cells;
    for (const auto &name : names)
        cells.push_back({name, other_cfg, opt});
    for (const auto &name : names)
        cells.push_back({name, core::makeCpuConfig(), opt});
    auto runs = memo.run(cells);

    std::map<std::string, ChipRun> out;
    for (size_t i = 0; i < names.size(); ++i)
        out.emplace(names[i], ChipRun{runs[names.size() + i], runs[i]});
    return out;
}

/** Geometric mean. */
double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0;
    for (double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

std::string
kb(uint64_t bytes)
{
    return std::to_string(bytes / 1024) + "KB";
}

} // namespace

/**
 * Figure 4: SIMT control-flow efficiency of naive (arrival-order)
 * batching at batch size 32. Paper result: ~68% on average -- enough
 * latent similarity to motivate the RPU, with per-service spread from
 * ~25% (multi-API Post) to ~99% (branch-free UniqueID).
 */
void
fig04(const RunScale &scale, CellMemo &memo)
{
    int n = static_cast<int>(scale.requests);

    Table t("Figure 4: SIMT efficiency of naive batching "
            "(batch=32, " + std::to_string(n) + " requests, MinSP-PC)");
    t.header({"service", "SIMT efficiency", "diverge events/batch"});

    // Fig. 11's naive column: the same probes.
    const auto &names = svc::serviceNames();
    std::vector<Probe> probes;
    for (const auto &name : names)
        probes.push_back({name, batch::Policy::Naive,
                          simt::ReconvPolicy::MinSpPc, 32, n, scale.seed});
    auto results = memo.run(probes);

    std::vector<double> effs;
    for (size_t i = 0; i < names.size(); ++i) {
        const std::string &name = names[i];
        const EfficiencyResult &r = results[i];
        effs.push_back(r.efficiency());
        double dpb = r.stats.batches ?
            static_cast<double>(r.stats.divergeEvents) /
            static_cast<double>(r.stats.batches) : 0;
        t.row({name, Table::pct(r.efficiency()), Table::num(dpb, 1)});
    }
    t.row({"AVERAGE", Table::pct(geomean(effs)), ""});
    t.print();

    std::printf("paper: ~68%% average naive SIMT efficiency\n");
}

/**
 * Figure 5: off-chip DRAM bandwidth scaling and the on-chip thread
 * count needed to use it, assuming the 2 GB/s-per-thread rule CPU
 * vendors provision for. Paper point: DDR5 pushes sockets toward 256
 * threads and DDR6/HBM toward 512+, far past what MIMD cores scale to
 * -- the RPU's thread-density argument.
 */
void
fig05(const RunScale &, CellMemo &)
{
    struct Gen
    {
        const char *name;
        double gbps;
    };
    const Gen gens[] = {
        {"DDR4-3200 (8ch)", 200},
        {"DDR5-4800 (8ch)", 307},
        {"DDR5-7200 (10ch)", 576},
        {"DDR6 (10ch)", 1100},
        {"HBM2e (4 stacks)", 1600},
    };

    const double gb_per_thread = 2.0;
    Table t("Figure 5: off-chip bandwidth and threads/socket to use it");
    t.header({"memory generation", "BW (GB/s)",
              "threads @2GB/s/thread", "64-thread MIMD sockets"});
    for (const auto &g : gens) {
        double threads = g.gbps / gb_per_thread;
        t.row({g.name, Table::num(g.gbps, 0), Table::num(threads, 0),
               Table::num(threads / 64.0, 1)});
    }
    t.print();

    std::printf("paper: DDR5 needs ~256 threads/socket, DDR6/HBM ~512+; "
                "SIMT thread aggregation scales there, MIMD does not\n");
}

/**
 * Figure 10: dynamic energy breakdown per pipeline stage when the
 * microservices run on the scalar CPU. Paper result: frontend+OoO
 * consumes ~73% on average; the SIMD-vectorized HDSearch-leaf (~39%)
 * and Recommender-leaf (~60%) are the exceptions; memory ~20% average.
 */
void
fig10(const RunScale &scale, CellMemo &memo)
{
    TimingOptions opt = timingOptions(scale);

    Table t("Figure 10: CPU dynamic energy breakdown per pipeline stage");
    t.header({"service", "frontend+OoO", "execution", "memory"});

    const auto &names = svc::serviceNames();
    std::vector<Cell> cells;
    for (const auto &name : names)
        cells.push_back({name, core::makeCpuConfig(), opt});
    auto runs = memo.run(cells);

    std::vector<double> fe_s, ex_s, me_s;
    for (size_t i = 0; i < names.size(); ++i) {
        const auto &name = names[i];
        const auto &run = runs[i];
        double dyn = run.energy.dynamicTotal();
        double fe = (run.energy.frontendOoo + run.energy.simtOverhead) /
            dyn;
        double ex = run.energy.execution / dyn;
        double me = run.energy.memory / dyn;
        fe_s.push_back(fe);
        ex_s.push_back(ex);
        me_s.push_back(me);
        t.row({name, Table::pct(fe), Table::pct(ex), Table::pct(me)});
    }
    double n = static_cast<double>(fe_s.size());
    double fe_avg = 0, ex_avg = 0, me_avg = 0;
    for (size_t i = 0; i < fe_s.size(); ++i) {
        fe_avg += fe_s[i] / n;
        ex_avg += ex_s[i] / n;
        me_avg += me_s[i] / n;
    }
    t.row({"AVERAGE", Table::pct(fe_avg), Table::pct(ex_avg),
           Table::pct(me_avg)});
    t.print();

    std::printf("paper: ~73%% frontend+OoO average; HDSearch-leaf ~39%%, "
                "Recommender-leaf ~60%%; memory ~20%%\n");
}

/**
 * Figure 11: SIMT efficiency under the batching policies of the
 * SIMR-aware server, for both the ideal stack-based IPDOM analysis and
 * the MinSP-PC heuristic. Paper results: naive < per-API <
 * per-API+arg-size; stack-based reaches 92% on average, MinSP-PC 91%;
 * per-API gives ~2x on memcached and ~4x on Post; argument-size
 * batching adds ~20% on average and up to ~5x on Search-leaf and text.
 */
void
fig11(const RunScale &scale, CellMemo &memo)
{
    int n = static_cast<int>(scale.requests);

    Table t("Figure 11: SIMT efficiency by batching policy "
            "(batch=32, " + std::to_string(n) + " requests)");
    t.header({"service", "naive", "per-api",
              "per-api+arg (ideal stack)", "per-api+arg (MinSP-PC)"});

    // One probe per (service, policy/reconv) combination; the naive
    // column is Fig. 4's.
    const auto &names = svc::serviceNames();
    std::vector<Probe> probes;
    for (const auto &name : names) {
        probes.push_back({name, batch::Policy::Naive,
                          simt::ReconvPolicy::MinSpPc, 32, n, scale.seed});
        probes.push_back({name, batch::Policy::PerApi,
                          simt::ReconvPolicy::MinSpPc, 32, n, scale.seed});
        probes.push_back({name, batch::Policy::PerApiArgSize,
                          simt::ReconvPolicy::StackIpdom, 32, n,
                          scale.seed});
        probes.push_back({name, batch::Policy::PerApiArgSize,
                          simt::ReconvPolicy::MinSpPc, 32, n, scale.seed});
    }
    auto effs = memo.run(probes);

    std::vector<double> naive_e, api_e, ideal_e, heur_e;
    for (size_t i = 0; i < names.size(); ++i) {
        const auto &name = names[i];
        double naive = effs[4 * i + 0].efficiency();
        double api = effs[4 * i + 1].efficiency();
        double ideal = effs[4 * i + 2].efficiency();
        double heur = effs[4 * i + 3].efficiency();
        naive_e.push_back(naive);
        api_e.push_back(api);
        ideal_e.push_back(ideal);
        heur_e.push_back(heur);
        t.row({name, Table::pct(naive), Table::pct(api),
               Table::pct(ideal), Table::pct(heur)});
    }
    t.row({"AVERAGE", Table::pct(geomean(naive_e)),
           Table::pct(geomean(api_e)), Table::pct(geomean(ideal_e)),
           Table::pct(geomean(heur_e))});
    t.print();

    std::printf("paper: stack-based 92%%, MinSP-PC 91%% average; per-API "
                "~2x memcached / ~4x post; arg-size up to ~5x on "
                "search-leaf and text\n");
}

/**
 * Figure 14: RPU L1 accesses normalized to CPU L1 accesses, both
 * executing the same requests (the paper uses 640 threads each).
 * Paper result: the RPU's 32-wide batches generate ~4x fewer accesses
 * on average; stack-heavy Post services coalesce the most, while the
 * divergent-heap HDSearch-leaf stays close to the CPU.
 */
void
fig14(const RunScale &scale, CellMemo &memo)
{
    CacheStudyOptions opt;
    opt.requests = 640;
    opt.seed = scale.seed;

    Table t("Figure 14: RPU L1 accesses normalized to CPU (640 requests)");
    t.header({"service", "CPU accesses", "RPU accesses", "RPU/CPU",
              "stack-coalesced", "same-word", "divergent"});
    // The CPU, and the RPU at the tuned batch: one of Fig. 15's studies.
    const auto &names = svc::serviceNames();
    std::vector<Study> studies;
    for (const auto &name : names) {
        studies.push_back({name, 0, opt});
        studies.push_back(
            {name, svc::buildService(name)->traits().tunedBatch, opt});
    }
    auto results = memo.run(studies);

    std::vector<double> ratios;
    for (size_t i = 0; i < names.size(); ++i) {
        const auto &name = names[i];
        const auto &cpu = results[2 * i];
        const auto &rpu = results[2 * i + 1];
        double ratio = static_cast<double>(rpu.l1Accesses) /
            static_cast<double>(cpu.l1Accesses);
        ratios.push_back(ratio);
        double total = static_cast<double>(rpu.mcu.batchMemInsts);
        t.row({name,
               std::to_string(cpu.l1Accesses),
               std::to_string(rpu.l1Accesses),
               Table::mult(ratio),
               Table::pct(total ? rpu.mcu.stackCoalesced / total : 0),
               Table::pct(total ? rpu.mcu.sameWord / total : 0),
               Table::pct(total ? rpu.mcu.divergent / total : 0)});
    }
    t.row({"AVERAGE", "", "", Table::mult(geomean(ratios)), "", "", ""});
    t.print();

    std::printf("paper: RPU generates ~4x fewer L1 accesses (ratio "
                "~0.25x) on average\n");
}

/**
 * Figure 15: L1 MPKI of the single-threaded CPU (64KB L1) vs the RPU
 * (256KB L1) at batch sizes 32/16/8/4. Paper result: most services run
 * a batch of 32 within 8KB/thread and *improve* MPKI over the CPU
 * thanks to coalescing; the data-intensive leaves (HDSearch-leaf,
 * Search-leaf) thrash at 32 but behave at 8 -- the batch-tuning rule.
 */
void
fig15(const RunScale &scale, CellMemo &memo)
{
    CacheStudyOptions opt;
    opt.requests = 640;
    opt.seed = scale.seed;

    Table t("Figure 15: L1 MPKI, CPU 64KB vs RPU 256KB by batch size");
    t.header({"service", "CPU", "RPU-32", "RPU-16", "RPU-8", "RPU-4"});

    const int sizes[] = {32, 16, 8, 4};
    CacheStudyOptions copt = opt;
    copt.l1KB = 64;
    CacheStudyOptions ropt = opt;
    ropt.l1KB = 256;
    const auto &names = svc::serviceNames();
    std::vector<Study> studies;
    for (const auto &name : names) {
        studies.push_back({name, 0, copt});
        for (int bs : sizes)
            studies.push_back({name, bs, ropt});
    }
    auto results = memo.run(studies);

    const size_t per_service = 1 + std::size(sizes);
    for (size_t i = 0; i < names.size(); ++i) {
        std::vector<std::string> row = {names[i]};
        for (size_t j = 0; j < per_service; ++j)
            row.push_back(Table::num(results[per_service * i + j].mpki(), 1));
        t.row(row);
    }
    t.print();

    std::printf("paper: leaves (search-leaf, hdsearch-leaf) thrash at "
                "batch 32 and recover at batch 8; other services improve "
                "on the CPU at batch 32\n");
}

/**
 * Figure 19: energy efficiency (requests/joule) of the RPU and the
 * SMT-8 CPU, normalized to the single-threaded CPU. Paper result: RPU
 * ~5.7x on average (leaves below average), CPU-SMT8 ~1.05x.
 */
void
fig19(const RunScale &scale, CellMemo &memo)
{
    TimingOptions opt = timingOptions(scale);
    auto rpu_runs = runAllServices(memo, core::makeRpuConfig(), opt);
    auto smt_runs = runAllServices(memo, core::makeSmt8Config(), opt);

    Table t("Figure 19: requests/joule relative to single-threaded CPU "
            "(" + std::to_string(opt.requests) + " requests/service)");
    t.header({"service", "CPU req/J", "RPU", "CPU-SMT8"});
    std::vector<double> rpu_r, smt_r;
    for (const auto &name : svc::serviceNames()) {
        const auto &rr = rpu_runs.at(name);
        const auto &sr = smt_runs.at(name);
        rpu_r.push_back(rr.energyRatio());
        smt_r.push_back(sr.energyRatio());
        t.row({name, Table::num(rr.cpu.reqPerJoule(), 0),
               Table::mult(rr.energyRatio()),
               Table::mult(sr.energyRatio())});
    }
    t.row({"AVERAGE", "", Table::mult(geomean(rpu_r)),
           Table::mult(geomean(smt_r))});
    t.print();

    std::printf("paper: RPU ~5.7x, CPU-SMT8 ~1.05x requests/joule vs "
                "CPU\n");
}

/**
 * Figure 20: service latency of the RPU and the SMT-8 CPU relative to
 * the single-threaded CPU. Paper result: RPU ~1.44x on average (worst
 * ~1.7x on HDSearch-midtier), within the 2x data-center limit; SMT-8
 * ~5x.
 */
void
fig20(const RunScale &scale, CellMemo &memo)
{
    TimingOptions opt = timingOptions(scale);
    auto rpu_runs = runAllServices(memo, core::makeRpuConfig(), opt);
    auto smt_runs = runAllServices(memo, core::makeSmt8Config(), opt);

    Table t("Figure 20: service latency relative to single-threaded CPU");
    t.header({"service", "CPU (us)", "RPU", "CPU-SMT8"});
    std::vector<double> rpu_r, smt_r;
    for (const auto &name : svc::serviceNames()) {
        const auto &rr = rpu_runs.at(name);
        const auto &sr = smt_runs.at(name);
        rpu_r.push_back(rr.latencyRatio());
        smt_r.push_back(sr.latencyRatio());
        t.row({name, Table::num(rr.cpu.core.meanLatencyUs(), 2),
               Table::mult(rr.latencyRatio()),
               Table::mult(sr.latencyRatio())});
    }
    t.row({"AVERAGE", "", Table::mult(geomean(rpu_r)),
           Table::mult(geomean(smt_r))});
    t.print();

    std::printf("paper: RPU ~1.44x (worst ~1.7x), SMT8 ~5x single-thread "
                "latency; 2x is the acceptability limit\n");
}

/**
 * Figure 21: the metrics behind the RPU's modest (1.44x) service
 * latency increase despite a 2.3x slower L1 hit and 4x ALU latency:
 * ~4x less L1 traffic and ~1.33x lower average memory latency (less
 * contention + single-hop crossbar), plus sub-batch interleaving
 * raising IPC utilization.
 */
void
fig21(const RunScale &scale, CellMemo &memo)
{
    auto runs =
        runAllServices(memo, core::makeRpuConfig(), timingOptions(scale));

    Table t("Figure 21: latency-contributing metrics (RPU vs CPU)");
    t.header({"service", "L1 traffic", "avg mem latency", "CPU IPC",
              "RPU IPC (scalar)", "latency"});
    std::vector<double> traffic, memlat, lat;
    for (const auto &name : svc::serviceNames()) {
        const auto &r = runs.at(name);
        double tr = static_cast<double>(r.other.core.l1Stats.accesses) /
            static_cast<double>(r.cpu.core.l1Stats.accesses);
        double ml = r.other.core.hierStats.avgLatency() /
            r.cpu.core.hierStats.avgLatency();
        traffic.push_back(tr);
        memlat.push_back(ml);
        lat.push_back(r.latencyRatio());
        t.row({name, Table::mult(tr), Table::mult(ml),
               Table::num(r.cpu.core.ipc(), 2),
               Table::num(r.other.core.ipc(), 2),
               Table::mult(r.latencyRatio())});
    }
    t.row({"AVERAGE", Table::mult(geomean(traffic)),
           Table::mult(geomean(memlat)), "", "",
           Table::mult(geomean(lat))});
    t.print();

    std::printf("paper: ~0.25x traffic, ~0.75x (1.33x lower) average "
                "memory latency, CPU IPC 0.3-1, latency ~1.44x\n");
}

/**
 * Figure 22: system-level end-to-end 99th-percentile and average
 * latency vs offered load for the CPU system and the RPU system with
 * and without batch splitting (User scenario at uqSim's shape, one
 * server per tier: WebServer -> User -> McRouter -> Memcached /
 * Storage, 90% memcached hit rate, 1ms storage; 30000 requests per
 * load point). Paper result: the RPU sustains ~4x the throughput at
 * comparable tail latency; without batch splitting average latency
 * inflates toward the storage latency while the tail stays acceptable.
 *
 * Besides the text tables, the full sweep is emitted as
 * BENCH_fig22.json (per config: the QPS grid with mean and p99 at
 * every load point, plus the max load meeting QoS) for CI artifact
 * upload and plotting.
 */
void
fig22(const RunScale &scale, CellMemo &)
{
    std::string json_configs;
    auto sweep = [&](bool rpu, bool split, Table &t, const char *label,
                     const char *key) {
        std::vector<double> loads_kqps =
            rpu ? std::vector<double>{5, 10, 20, 30, 40, 50, 60, 70, 80,
                                      90, 100}
                : std::vector<double>{2, 4, 6, 8, 10, 12, 15, 18, 20, 25};
        // Load points are independent system simulations: fan them out
        // and keep the table rows (and max_ok scan) in load order.
        auto results = parallelMap(loads_kqps, [&](double kqps) {
            sys::ClusterConfig cfg = sys::oneReplica();
            cfg.qps = kqps * 1000;
            cfg.requests = 30000;
            cfg.seed = scale.seed;
            cfg.base.rpu = rpu;
            cfg.base.batchSplit = split;
            return sys::runCluster(cfg).sys;
        });
        double max_ok = 0;
        std::string points;
        for (size_t i = 0; i < loads_kqps.size(); ++i) {
            const auto &r = results[i];
            t.row({label, Table::num(loads_kqps[i], 0),
                   Table::num(r.meanUs(), 0),
                   Table::num(r.p99Us(), 0)});
            // QoS: tail within ~1.5x the storage-path latency.
            if (r.p99Us() < 2500)
                max_ok = loads_kqps[i];
            char pt[160];
            std::snprintf(pt, sizeof(pt),
                          "%s{\"kqps\": %g, \"mean_us\": %.2f, "
                          "\"p99_us\": %.2f}",
                          i ? ", " : "", loads_kqps[i], r.meanUs(),
                          r.p99Us());
            points += pt;
        }
        char cfg_json[256];
        std::snprintf(cfg_json, sizeof(cfg_json),
                      "%s\"%s\": {\"max_ok_kqps\": %g, \"points\": [",
                      json_configs.empty() ? "" : ", ", key, max_ok);
        json_configs += cfg_json + points + "]}";
        return max_ok;
    };

    Table t("Figure 22: end-to-end latency vs offered load "
            "(User scenario)");
    t.header({"system", "load (kQPS)", "avg (us)", "p99 (us)"});
    double cpu_max = sweep(false, true, t, "CPU", "cpu");
    double rpu_split = sweep(true, true, t, "RPU w/ split", "rpu_split");
    double rpu_nosplit =
        sweep(true, false, t, "RPU w/o split", "rpu_nosplit");
    t.print();

    Table s("Figure 22 summary: max throughput at acceptable QoS");
    s.header({"system", "max kQPS", "vs CPU"});
    s.row({"CPU", Table::num(cpu_max, 0), "1.00x"});
    s.row({"RPU w/ split", Table::num(rpu_split, 0),
           Table::mult(rpu_split / cpu_max)});
    s.row({"RPU w/o split", Table::num(rpu_nosplit, 0),
           Table::mult(rpu_nosplit / cpu_max)});
    s.print();

    std::printf("paper: RPU ~4x max throughput (60 vs 15 kQPS) at "
                "similar tail; w/o split the average latency rises to "
                "the storage latency but tail stays acceptable\n");

    std::string json = std::string("{\"bench\": \"fig22\", ") +
        "\"configs\": {" + json_configs + "}}";
    std::printf("BENCH_fig22.json: %s\n", json.c_str());
    if (FILE *f = std::fopen("BENCH_fig22.json", "w")) {
        std::fprintf(f, "%s\n", json.c_str());
        std::fclose(f);
    }
}

/**
 * Table IV: the simulated configurations. Prints the key rows of every
 * core flavour so runs are auditable against the paper.
 */
void
tab04(const RunScale &, CellMemo &)
{
    Table t("Table IV: simulated configurations");
    t.header({"metric", "CPU", "CPU-SMT8", "RPU", "GPU-like"});

    auto cpu = core::makeCpuConfig();
    auto smt = core::makeSmt8Config();
    auto rpu = core::makeRpuConfig();
    auto gpu = core::makeGpuConfig();
    auto row = [&](const char *name, auto get) {
        t.row({name, get(cpu), get(smt), get(rpu), get(gpu)});
    };

    row("cores", [](const core::CoreConfig &c) {
        return std::to_string(c.chipCores);
    });
    row("threads/core", [](const core::CoreConfig &c) {
        return std::to_string(c.smtThreads * c.batchWidth);
    });
    row("SIMT lanes", [](const core::CoreConfig &c) {
        return std::to_string(c.lanes);
    });
    row("issue width", [](const core::CoreConfig &c) {
        return std::to_string(c.issueWidth);
    });
    row("ROB entries", [](const core::CoreConfig &c) {
        return std::to_string(c.robEntries);
    });
    row("in-order", [](const core::CoreConfig &c) {
        return std::string(c.inOrder ? "yes" : "no");
    });
    row("freq (GHz)", [](const core::CoreConfig &c) {
        return Table::num(c.freqGhz, 1);
    });
    row("ALU latency", [](const core::CoreConfig &c) {
        return std::to_string(c.aluLat);
    });
    row("L1D", [](const core::CoreConfig &c) {
        return kb(c.mem.l1.sizeBytes) + " x" +
            std::to_string(c.mem.l1.banks) + "b " +
            std::to_string(c.mem.l1HitLatency) + "cyc";
    });
    row("L1 TLB entries", [](const core::CoreConfig &c) {
        return std::to_string(c.mem.tlb.entries);
    });
    row("L2", [](const core::CoreConfig &c) {
        return kb(c.mem.l2.sizeBytes) + " " +
            std::to_string(c.mem.l2HitLatency) + "cyc";
    });
    row("interconnect", [](const core::CoreConfig &c) {
        return std::string(c.mem.noc.kind == mem::NocKind::Mesh ?
                           "mesh" : "crossbar");
    });
    row("atomics", [](const core::CoreConfig &c) {
        return std::string(c.mem.atomicsAtL3 ? "at L3" : "in L1");
    });
    row("DRAM B/cyc/core", [](const core::CoreConfig &c) {
        return Table::num(c.mem.dram.bytesPerCycle *
                          c.mem.dram.channels, 1);
    });
    t.print();
}

/**
 * Table V: per-component area and peak power at 7nm for the CPU core
 * and the RPU core, plus chip totals. Paper results: the RPU core is
 * ~6.3x the CPU core's area and ~4.5x its peak power while holding 32x
 * the threads; RPU-only structures cost ~11.8% of the core; thread
 * density improves ~5.2x at the chip level.
 */
void
tab05(const RunScale &, CellMemo &)
{
    auto cpu_cfg = core::makeCpuConfig();
    auto rpu_cfg = core::makeRpuConfig();
    auto cpu = energy::estimateCore(cpu_cfg);
    auto rpu = energy::estimateCore(rpu_cfg);

    Table t("Table V: per-component area and peak power (7nm)");
    t.header({"component", "CPU mm2", "CPU %", "CPU W", "RPU mm2",
              "RPU %", "RPU W"});
    double ca = cpu.coreAreaMm2(), ra = rpu.coreAreaMm2();
    for (const auto &rc : rpu.comps) {
        const energy::ComponentAP *cc = nullptr;
        for (const auto &c : cpu.comps)
            if (c.name == rc.name)
                cc = &c;
        t.row({rc.name,
               cc ? Table::num(cc->areaMm2, 2) : "-",
               cc ? Table::pct(cc->areaMm2 / ca) : "-",
               cc ? Table::num(cc->peakWatts, 2) : "-",
               Table::num(rc.areaMm2, 2),
               Table::pct(rc.areaMm2 / ra),
               Table::num(rc.peakWatts, 2)});
    }
    t.row({"TOTAL core", Table::num(ca, 2), "100.0%",
           Table::num(cpu.corePeakWatts(), 2), Table::num(ra, 2),
           "100.0%", Table::num(rpu.corePeakWatts(), 2)});
    t.print();

    auto cpu_chip = energy::estimateChip(cpu_cfg);
    auto rpu_chip = energy::estimateChip(rpu_cfg);
    Table c("Table V (chip level)");
    c.header({"metric", "CPU chip", "RPU chip", "ratio"});
    c.row({"cores", std::to_string(cpu_chip.cores),
           std::to_string(rpu_chip.cores), ""});
    c.row({"threads", std::to_string(cpu_chip.cores),
           std::to_string(rpu_chip.cores * rpu_cfg.batchWidth),
           Table::mult(rpu_chip.cores * rpu_cfg.batchWidth /
                       static_cast<double>(cpu_chip.cores))});
    c.row({"area (mm2)", Table::num(cpu_chip.chipAreaMm2(), 1),
           Table::num(rpu_chip.chipAreaMm2(), 1),
           Table::mult(rpu_chip.chipAreaMm2() /
                       cpu_chip.chipAreaMm2())});
    c.row({"peak power (W)", Table::num(cpu_chip.chipPeakWatts(), 1),
           Table::num(rpu_chip.chipPeakWatts(), 1),
           Table::mult(rpu_chip.chipPeakWatts() /
                       cpu_chip.chipPeakWatts())});
    double cpu_density = cpu_chip.cores / cpu_chip.chipAreaMm2();
    double rpu_density = rpu_chip.cores * rpu_cfg.batchWidth /
        rpu_chip.chipAreaMm2();
    c.row({"threads/mm2", Table::num(cpu_density, 3),
           Table::num(rpu_density, 3),
           Table::mult(rpu_density / cpu_density)});
    c.print();

    std::printf("paper: RPU core ~6.3x area / ~4.5x power for 32x "
                "threads; RPU-only structures ~11.8%% of core; ~5.2x "
                "thread density\n");
}

/**
 * Sensitivity (Section V-A1): sub-batch interleaving. Reducing the RPU
 * from 32 full-width SIMT lanes to 8 lanes (issuing a batch over 4
 * cycles) costs only ~4% performance on average -- up to ~10% on the
 * high-IPC UniqueID -- because data-center IPC/thread is low and OoO
 * scheduling fills the gaps.
 */
void
sensSubbatch(const RunScale &scale, CellMemo &memo)
{
    TimingOptions opt = timingOptions(scale);

    Table t("Sub-batch interleaving: 8 SIMT lanes vs 32 full-width");
    t.header({"service", "cycles @32 lanes", "cycles @8 lanes",
              "slowdown"});
    auto cfg8 = core::makeRpuConfig();
    cfg8.lanes = 8;
    auto cfg32 = core::makeRpuConfig();
    cfg32.lanes = 32;
    const auto &names = svc::serviceNames();
    std::vector<Cell> cells;
    for (const auto &name : names) {
        cells.push_back({name, cfg8, opt});
        cells.push_back({name, cfg32, opt});
    }
    auto runs = memo.run(cells);

    std::vector<double> slow;
    for (size_t i = 0; i < names.size(); ++i) {
        const auto &r8 = runs[2 * i];
        const auto &r32 = runs[2 * i + 1];
        double s = static_cast<double>(r8.core.cycles) /
            static_cast<double>(r32.core.cycles);
        slow.push_back(s);
        t.row({names[i], std::to_string(r32.core.cycles),
               std::to_string(r8.core.cycles), Table::mult(s)});
    }
    t.row({"AVERAGE", "", "", Table::mult(geomean(slow))});
    t.print();

    std::printf("paper: ~4%% average loss, up to ~10%% (uniqueid), for a "
                "4x narrower (cheaper) backend\n");
}

/**
 * Sensitivity (Section V-A1): executing atomics at the shared L3
 * (required by the RPU's relaxed coherence) instead of in the private
 * L1. Paper result: no observable slowdown, because microservices
 * execute few atomics per instruction (fine-grained locks, mostly
 * uncontended).
 */
void
sensAtomicsL3(const RunScale &scale, CellMemo &memo)
{
    TimingOptions opt = timingOptions(scale);

    Table t("Atomics at L3 vs in private L1 (RPU)");
    t.header({"service", "cycles atomics@L1", "cycles atomics@L3",
              "slowdown"});
    auto l3_cfg = core::makeRpuConfig();
    auto l1_cfg = core::makeRpuConfig();
    l1_cfg.mem.atomicsAtL3 = false;
    const auto &names = svc::serviceNames();
    std::vector<Cell> cells;
    for (const auto &name : names) {
        cells.push_back({name, l1_cfg, opt});
        cells.push_back({name, l3_cfg, opt});
    }
    auto runs = memo.run(cells);

    std::vector<double> slow;
    for (size_t i = 0; i < names.size(); ++i) {
        const auto &r_l1 = runs[2 * i];
        const auto &r_l3 = runs[2 * i + 1];
        double s = static_cast<double>(r_l3.core.cycles) /
            static_cast<double>(r_l1.core.cycles);
        slow.push_back(s);
        t.row({names[i], std::to_string(r_l1.core.cycles),
               std::to_string(r_l3.core.cycles), Table::mult(s)});
    }
    t.row({"AVERAGE", "", "", Table::mult(geomean(slow))});
    t.print();

    std::printf("paper: no slowdown from moving atomics to L3 (few "
                "atomic locks per instruction)\n");
}

/**
 * Sensitivity (Section V-A1 + Fig. 16): the SIMR-aware heap allocator
 * vs the SIMR-agnostic (glibc-like) allocator on the banked L1.
 * Staggering each thread's allocation start by one bank stride makes
 * consecutive per-thread heap accesses conflict-free. Paper result:
 * ~1.8x higher L1 throughput on the divergent-heap HDSearch.
 */
void
sensAllocator(const RunScale &scale, CellMemo &memo)
{
    TimingOptions opt = timingOptions(scale);

    Table t("SIMR-aware vs glibc-like heap allocation (RPU, banked L1)");
    t.header({"service", "conflict cyc (glibc)", "conflict cyc (simr)",
              "cycles (glibc)", "cycles (simr)", "speedup"});
    // Full 32-wide batches make the bank pressure visible (the tuned
    // batch of 8 hides it behind the compute chains).
    TimingOptions agn = opt;
    agn.alloc = mem::AllocPolicy::GlibcLike;
    agn.batchOverride = 32;
    TimingOptions aware = opt;
    aware.alloc = mem::AllocPolicy::SimrAware;
    aware.batchOverride = 32;
    const std::vector<std::string> names = {"hdsearch-leaf", "search-leaf",
                                            "recommender-leaf",
                                            "hdsearch-mid"};
    std::vector<Cell> cells;
    for (const auto &name : names) {
        cells.push_back({name, core::makeRpuConfig(), agn});
        cells.push_back({name, core::makeRpuConfig(), aware});
    }
    auto runs = memo.run(cells);

    std::vector<double> speedups;
    for (size_t i = 0; i < names.size(); ++i) {
        const auto &r_agn = runs[2 * i];
        const auto &r_aw = runs[2 * i + 1];
        double s = static_cast<double>(r_agn.core.cycles) /
            static_cast<double>(r_aw.core.cycles);
        speedups.push_back(s);
        t.row({names[i],
               std::to_string(r_agn.core.hierStats.l1BankConflictCycles),
               std::to_string(r_aw.core.hierStats.l1BankConflictCycles),
               std::to_string(r_agn.core.cycles),
               std::to_string(r_aw.core.cycles), Table::mult(s)});
    }
    t.row({"AVERAGE", "", "", "", "", Table::mult(geomean(speedups))});
    t.print();

    std::printf("paper: ~1.8x higher L1 throughput on divergent-heap "
                "HDSearch with the SIMR-aware allocator\n");
}

/**
 * Sensitivity (Section V-A1): majority-voting branch prediction vs
 * following one lane. Voting trains the predictor on the common
 * control flow; minority lanes mispredict either way (their flushes
 * are inevitable). Paper result: voting improves energy (fewer wasted
 * fetches) but barely changes performance, since divergent branches
 * visit both paths regardless.
 */
void
sensMajorityVoting(const RunScale &scale, CellMemo &memo)
{
    TimingOptions opt = timingOptions(scale);

    Table t("Majority-voting BP vs single-lane BP (RPU)");
    t.header({"service", "mispredicts (vote)", "mispredicts (lane0)",
              "cycles (vote)", "cycles (lane0)", "perf delta"});
    auto vote_cfg = core::makeRpuConfig();
    auto lane_cfg = core::makeRpuConfig();
    lane_cfg.majorityVoteBp = false;
    const auto &names = svc::serviceNames();
    std::vector<Cell> cells;
    for (const auto &name : names) {
        cells.push_back({name, vote_cfg, opt});
        cells.push_back({name, lane_cfg, opt});
    }
    auto runs = memo.run(cells);

    std::vector<double> deltas;
    for (size_t i = 0; i < names.size(); ++i) {
        const auto &rv = runs[2 * i];
        const auto &rl = runs[2 * i + 1];
        double d = static_cast<double>(rl.core.cycles) /
            static_cast<double>(rv.core.cycles);
        deltas.push_back(d);
        t.row({names[i], std::to_string(rv.core.bpStats.mispredicts),
               std::to_string(rl.core.bpStats.mispredicts),
               std::to_string(rv.core.cycles),
               std::to_string(rl.core.cycles), Table::mult(d)});
    }
    t.row({"AVERAGE", "", "", "", "", Table::mult(geomean(deltas))});
    t.print();

    std::printf("paper: voting mitigates flushes from inevitable "
                "minority mispredictions; little performance impact\n");
}

/**
 * Section V-A3: running the microservices on an Ampere-like GPU model
 * with the same software optimizations as the RPU (stack coalescing,
 * batching), assuming it could execute the CPU ISA and system calls.
 * Paper result: ~28x the CPU's energy efficiency but at ~79x its
 * service latency -- unacceptable for QoS-bound services, which is the
 * motivation for the RPU's OoO SIMT middle ground.
 */
void
gpuComparison(const RunScale &scale, CellMemo &memo)
{
    TimingOptions opt = timingOptions(scale);
    auto gpu_runs = runAllServices(memo, core::makeGpuConfig(), opt);
    auto rpu_runs = runAllServices(memo, core::makeRpuConfig(), opt);

    Table t("GPU vs RPU vs CPU (energy efficiency and latency)");
    t.header({"service", "GPU req/J", "GPU latency", "RPU req/J",
              "RPU latency"});
    std::vector<double> ge, gl, re, rl;
    for (const auto &name : svc::serviceNames()) {
        const auto &g = gpu_runs.at(name);
        const auto &r = rpu_runs.at(name);
        ge.push_back(g.energyRatio());
        gl.push_back(g.latencyRatio());
        re.push_back(r.energyRatio());
        rl.push_back(r.latencyRatio());
        t.row({name, Table::mult(g.energyRatio()),
               Table::mult(g.latencyRatio()),
               Table::mult(r.energyRatio()),
               Table::mult(r.latencyRatio())});
    }
    t.row({"AVERAGE", Table::mult(geomean(ge)), Table::mult(geomean(gl)),
           Table::mult(geomean(re)), Table::mult(geomean(rl))});
    t.print();

    std::printf("paper: GPU ~28x energy efficiency at ~79x latency; "
                "RPU ~5.7x at ~1.44x -- the only point inside the 2x "
                "QoS envelope\n");
}

/**
 * Extension: automatic batch-size tuning (paper Section III-B3 says
 * providers tune offline; this study runs our tuner and checks it
 * re-derives the Fig. 15 rule -- batch 32 for most services, batch 8
 * for the data-intensive leaves -- without hand configuration).
 */
void
extTuner(const RunScale &scale, CellMemo &)
{
    Table t("Extension: offline batch-size tuner vs hand-tuned traits");
    t.header({"service", "tuner choice", "traits (hand)", "mpki@32",
              "mpki@choice", "eff@choice"});
    int agree = 0;
    for (const auto &name : svc::serviceNames()) {
        auto svc = svc::buildService(name);
        tune::TunerConfig cfg;
        cfg.seed = scale.seed;
        auto r = tune::tuneBatchSize(*svc, cfg);

        double mpki32 = 0, mpki_c = 0, eff_c = 0;
        for (const auto &p : r.points) {
            if (p.batchSize == 32)
                mpki32 = p.mpki;
            if (p.batchSize == r.chosenBatch) {
                mpki_c = p.mpki;
                eff_c = p.efficiency;
            }
        }
        agree += r.chosenBatch == svc->traits().tunedBatch ? 1 : 0;
        t.row({name, std::to_string(r.chosenBatch),
               std::to_string(svc->traits().tunedBatch),
               Table::num(mpki32, 1), Table::num(mpki_c, 1),
               Table::pct(eff_c)});
    }
    t.print();
    std::printf("tuner agrees with the hand-tuned configuration on "
                "%d/14 services\n", agree);
}

/**
 * Extension: multi-batch interleaving (paper Section III-A defers
 * "hiding longer microsecond-scale latencies by interleaving multiple
 * batches via hardware batch scheduling" to future work). This study
 * runs the RPU with 1, 2 and 4 concurrent hardware batch contexts and
 * reports per-request latency and core throughput: throughput rises as
 * idle memory-stall slots get filled, while per-batch latency degrades
 * gracefully -- the trade the paper anticipates.
 *
 * Its runs use the master seed, not a cell seed, so they are direct
 * runTiming calls rather than memo cells.
 */
void
extMultibatch(const RunScale &scale, CellMemo &)
{
    TimingOptions opt = timingOptions(scale);

    Table t("Extension: RPU multi-batch interleaving (1/2/4 contexts)");
    t.header({"service", "thr x1 (req/s)", "thr x2", "thr x4",
              "lat x1 (us)", "lat x2", "lat x4"});
    std::vector<double> gain2, gain4;
    for (const auto &name : svc::serviceNames()) {
        auto svc = svc::buildService(name);
        double thr[3], lat[3];
        int i = 0;
        for (int contexts : {1, 2, 4}) {
            auto cfg = core::makeRpuConfig();
            cfg.smtThreads = contexts;
            auto run = runTiming(*svc, cfg, opt);
            thr[i] = run.core.throughputPerCore();
            lat[i] = run.core.meanLatencyUs();
            ++i;
        }
        gain2.push_back(thr[1] / thr[0]);
        gain4.push_back(thr[2] / thr[0]);
        t.row({name, Table::num(thr[0], 0), Table::num(thr[1], 0),
               Table::num(thr[2], 0), Table::num(lat[0], 2),
               Table::num(lat[1], 2), Table::num(lat[2], 2)});
    }
    t.row({"AVERAGE gain", "", Table::mult(geomean(gain2)),
           Table::mult(geomean(gain4)), "", "", ""});
    t.print();

    std::printf("future-work direction from the paper: multi-batch "
                "scheduling fills stall cycles at a latency cost\n");
}

/**
 * Extension: GPGPU workloads on the RPU (paper Section VI-D).
 *
 * The paper argues the RPU can run SPMD/HPC kernels with CPU-grade
 * programmability at near-GPU efficiency: "GPUs will likely remain the
 * most energy efficient for GPGPU workloads, but we claim RPUs will
 * not be far behind." This study runs a saxpy-like SPMD kernel on all
 * three design points and reports requests/joule and latency relative
 * to the CPU. Like extMultibatch it runs on the master seed, directly.
 */
void
extGpgpu(const RunScale &scale, CellMemo &memo)
{
    TimingOptions opt = timingOptions(scale);

    auto svc = svc::buildService("gpgpu-saxpy");
    auto cpu = runTiming(*svc, core::makeCpuConfig(), opt);
    auto rpu = runTiming(*svc, core::makeRpuConfig(), opt);
    auto gpu = runTiming(*svc, core::makeGpuConfig(), opt);

    auto eff = memo.run(std::vector<Probe>{
        {"gpgpu-saxpy", batch::Policy::PerApiArgSize,
         simt::ReconvPolicy::MinSpPc, 32,
         static_cast<int>(scale.timingRequests), scale.seed}})[0];
    std::printf("SPMD kernel SIMT efficiency: %.1f%%\n\n",
                eff.efficiency() * 100);

    Table t("Extension: SPMD saxpy kernel across design points");
    t.header({"design point", "req/joule", "vs CPU", "latency (us)",
              "vs CPU"});
    auto row = [&](const char *name, const TimingRun &r) {
        t.row({name, Table::num(r.reqPerJoule(), 0),
               Table::mult(r.reqPerJoule() / cpu.reqPerJoule()),
               Table::num(r.core.meanLatencyUs(), 2),
               Table::mult(r.core.meanLatencyUs() /
                           cpu.core.meanLatencyUs())});
    };
    row("CPU", cpu);
    row("RPU", rpu);
    row("GPU-like", gpu);
    t.print();

    std::printf("paper VI-D: on SPMD code the RPU should close most of "
                "the CPU-GPU efficiency gap while keeping OoO latency\n");
}

} // namespace simr::bench
