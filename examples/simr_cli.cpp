/**
 * @file
 * simr_cli: run any experiment from the command line.
 *
 *   simr_cli list
 *   simr_cli analyze <service>|--all [--json] [--dataflow]
 *            [--crosscheck]
 *   simr_cli efficiency <service> [--policy naive|api|arg]
 *            [--reconv stack|minsp] [--batch N] [--requests N]
 *   simr_cli timing <service> --config cpu|smt8|rpu|gpu [--requests N]
 *            [--alloc glibc|simr] [--batch N]
 *   simr_cli tune <service>
 *   simr_cli sweep [--config cpu|smt8|rpu|gpu] [--requests N]
 *            [--threads N]
 *   simr_cli cluster [--qps N] [--rpu] [--nosplit] [--servers N]
 *            [--users N] [--requests N] [--shards N] [--threads N]
 *   simr_cli stats [service] [--json] [--config cpu|smt8|rpu|gpu]
 *            [--requests N] [--threads N]
 *   simr_cli trace <service>|social_network [--out FILE]
 *            [--config rpu|gpu] [--requests N] [--qps N]
 *            [--mode off|sampled|all]
 *   simr_cli anatomy social_network [--json] [--qps N] [--requests N]
 *            [--mode off|sampled|all] [--servers N] [--shards N]
 *   simr_cli hotspots <service>|--all [--top N] [--requests N]
 *            [--batch N]
 *
 * Commands that run experiments also accept --metrics FILE to dump the
 * run's metric registry (text exposition) to a file.
 *
 * Exit codes: 0 success, 1 usage error, 2 unknown service,
 * 3 analysis findings / profiler inconsistency, 4 I/O failure.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "analysis/analyzer.h"
#include "analysis/cache.h"
#include "analysis/crosscheck.h"
#include "common/parallel.h"
#include "common/table.h"
#include "obs/anatomy.h"
#include "obs/divergence.h"
#include "obs/journey.h"
#include "obs/spans.h"
#include "obs/trace.h"
#include "simr/cachestudy.h"
#include "simr/runner.h"
#include "simr/tuner.h"
#include "sys/cluster.h"

using namespace simr;

namespace
{

/** Fetch "--name value" from argv; returns fallback when absent. */
std::string
flag(int argc, char **argv, const char *name, const std::string &fallback)
{
    for (int i = 0; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], name) == 0)
            return argv[i + 1];
    return fallback;
}

bool
has(int argc, char **argv, const char *name)
{
    for (int i = 0; i < argc; ++i)
        if (std::strcmp(argv[i], name) == 0)
            return true;
    return false;
}

int
usage()
{
    std::fprintf(stderr,
        "usage:\n"
        "  simr_cli list\n"
        "  simr_cli analyze <service>|--all [--json] [--dataflow]\n"
        "           [--crosscheck]\n"
        "  simr_cli efficiency <service> [--policy naive|api|arg]\n"
        "           [--reconv stack|minsp] [--batch N] [--requests N]\n"
        "  simr_cli timing <service> --config cpu|smt8|rpu|gpu\n"
        "           [--requests N] [--alloc glibc|simr] [--batch N]\n"
        "  simr_cli tune <service>\n"
        "  simr_cli sweep [--config cpu|smt8|rpu|gpu] [--requests N]\n"
        "           [--threads N]\n"
        "  simr_cli cluster [--qps N] [--rpu] [--nosplit]\n"
        "           [--servers N] [--users N] [--requests N]\n"
        "           [--shards N] [--threads N]   (one server per tier\n"
        "           and one client stream, 10 kQPS and 30000 requests\n"
        "           by default; --servers N replicates the tiers, 100\n"
        "           kQPS and 100000 requests by default)\n"
        "  simr_cli stats [service] [--json]\n"
        "           [--config cpu|smt8|rpu|gpu] [--requests N]\n"
        "           [--threads N]\n"
        "  simr_cli trace <service>|social_network [--out FILE]\n"
        "           [--config rpu|gpu] [--requests N] [--qps N]\n"
        "           [--mode off|sampled|all]   (social_network's\n"
        "           journey capture, sampled by default)\n"
        "  simr_cli anatomy social_network [--json] [--qps N]\n"
        "           [--requests N] [--mode off|sampled|all]\n"
        "           [--servers N] [--shards N]   (one server per\n"
        "           tier unless --servers is given; --shards alone\n"
        "           partitions that shape)\n"
        "  simr_cli hotspots <service>|--all [--top N] [--requests N]\n"
        "           [--batch N]\n"
        "(experiment commands also take --metrics FILE)\n");
    return 1;
}

/** Resolve a --config name; empty CoreConfig::name signals bad input. */
core::CoreConfig
configByName(const std::string &cfg_name)
{
    if (cfg_name == "cpu")
        return core::makeCpuConfig();
    if (cfg_name == "smt8")
        return core::makeSmt8Config();
    if (cfg_name == "rpu")
        return core::makeRpuConfig();
    if (cfg_name == "gpu")
        return core::makeGpuConfig();
    core::CoreConfig bad;
    bad.name = "";
    return bad;
}

/**
 * Honour --metrics FILE: dump the scoped registry's text exposition.
 * Returns false on I/O failure (reported to stderr).
 */
bool
dumpMetricsIfAsked(int argc, char **argv)
{
    std::string path = flag(argc, argv, "--metrics", "");
    if (path.empty())
        return true;
    std::ofstream f(path);
    if (!f) {
        std::fprintf(stderr, "cannot write metrics file '%s'\n",
                     path.c_str());
        return false;
    }
    f << obs::Scope::registry()->textPage();
    return static_cast<bool>(f);
}

int
cmdList()
{
    Table t("available services");
    t.header({"name", "group", "APIs", "max arg", "tuned batch"});
    for (const auto &n : svc::serviceNames()) {
        auto s = svc::buildService(n);
        t.row({n, s->traits().group,
               std::to_string(s->traits().numApis),
               std::to_string(s->traits().maxArgLen),
               std::to_string(s->traits().tunedBatch)});
    }
    t.print();
    std::printf("plus the extension workload: gpgpu-saxpy\n");
    return 0;
}

/**
 * Replay `svc` through a stack-IPDOM lockstep engine wrapped in the
 * analyzer's CheckedStream and report whether every observed
 * reconvergence landed on the statically predicted PC.
 */
bool
runCrossCheck(const svc::Service &svc, const analysis::Report &report,
              int requests)
{
    auto reqs = genRequests(svc, requests, 42);
    batch::BatchingServer server(batch::Policy::PerApiArgSize,
                                 trace::kMaxBatch);
    auto batches = server.formBatches(reqs);
    simt::LockstepEngine engine(
        svc.program(), simt::ReconvPolicy::StackIpdom, trace::kMaxBatch,
        makeBatchProvider(svc, std::move(batches)));
    analysis::CheckedStream checked(engine, report);
    trace::DynOp op;
    while (checked.next(op)) {
        // Drain; the decorator verifies as ops stream through.
    }
    const auto &cs = checked.stats();
    std::printf("  crosscheck: %llu ops, %llu divergences, "
                "%llu merges verified, %llu unobserved\n",
                static_cast<unsigned long long>(cs.ops),
                static_cast<unsigned long long>(cs.divergences),
                static_cast<unsigned long long>(cs.mergesChecked),
                static_cast<unsigned long long>(cs.unobserved));
    for (const auto &f : cs.failures)
        std::fprintf(stderr, "  crosscheck FAIL: %s\n", f.c_str());
    return cs.ok();
}

/** Format a PC the way the divergence reports do. */
std::string
hexPc(isa::Pc pc)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(pc));
    return buf;
}

/**
 * Render one program's static dataflow verdicts: the per-branch
 * uniformity table and per-memory-op coalescibility table. Only used
 * for single-service `analyze --dataflow`; --all sticks to the
 * cross-service summary.
 */
void
printDataflowDetail(const isa::Program &prog, const analysis::Report &r)
{
    auto fname = [&](int f) {
        return f >= 0 ? prog.func(f).name : std::string("?");
    };
    Table bt("branch uniformity: " + r.program);
    bt.header({"pc", "function", "uniformity", "id-dep", "frame-dep"});
    for (const auto &b : r.dataflow.branches)
        bt.row({hexPc(b.pc), fname(b.func),
                analysis::uniformityName(b.uniformity),
                b.mayId ? "may" : "no", b.mayFrame ? "may" : "no"});
    bt.print();
    Table mt("memory coalescibility: " + r.program);
    mt.header({"pc", "function", "op", "class", "id-dep", "frame-dep"});
    for (const auto &m : r.dataflow.mems)
        mt.row({hexPc(m.pc), fname(m.func), isa::opName(m.op),
                analysis::memClassName(m.cls),
                m.mayId ? "may" : "no", m.mayFrame ? "may" : "no"});
    mt.print();
}

int
cmdAnalyze(const std::string &target, int argc, char **argv)
{
    bool json = has(argc, argv, "--json");
    bool dataflow = has(argc, argv, "--dataflow");
    bool crosscheck = has(argc, argv, "--crosscheck");

    std::vector<std::string> names;
    if (target == "--all") {
        names = svc::serviceNames();
    } else {
        names.push_back(target);
    }

    Table dft("static dataflow: taint tier, uniformity, coalescibility");
    dft.header({"service", "tier", "branches", "uniform", "per-batch",
                "may-div", "mems", "coalesced", "affine", "scattered"});

    int total_errors = 0;
    int total_warnings = 0;
    bool cross_ok = true;
    for (const auto &n : names) {
        auto svc = svc::buildService(n);
        if (!svc)
            return 2;
        auto report = analysis::analyze(svc->program());
        if (dataflow && report.dataflow.ran) {
            const auto &df = report.dataflow;
            using analysis::MemClass;
            using analysis::Uniformity;
            dft.row({n, std::to_string(df.tierBound),
                     std::to_string(df.branches.size()),
                     std::to_string(
                         df.countUniformity(Uniformity::UniformAlways)),
                     std::to_string(df.countUniformity(
                         Uniformity::UniformPerBatch)),
                     std::to_string(
                         df.countUniformity(Uniformity::MayDiverge)),
                     std::to_string(df.mems.size()),
                     std::to_string(df.countMemClass(MemClass::Uniform)),
                     std::to_string(
                         df.countMemClass(MemClass::AffineStrided)),
                     std::to_string(
                         df.countMemClass(MemClass::Scattered))});
        }
        if (json) {
            std::printf("%s", report.json().c_str());
        } else {
            std::printf("%s: %d function(s), %d block(s), %zu "
                        "instruction(s), %zu branch(es) verified, "
                        "%d error(s), %d warning(s)\n",
                        report.program.c_str(), report.numFunctions,
                        report.numBlocks, report.numInsts,
                        report.branches.size(), report.errors(),
                        report.warnings());
            for (const auto &d : report.diags)
                std::printf("  %s\n", d.str().c_str());
        }
        total_errors += report.errors();
        total_warnings += report.warnings();
        if (dataflow && !json && names.size() == 1 &&
            report.dataflow.ran)
            printDataflowDetail(svc->program(), report);
        if (crosscheck && report.ok())
            cross_ok = runCrossCheck(*svc, report, 2400) && cross_ok;
    }
    if (dataflow && !json)
        dft.print();
    if (!json) {
        std::printf("analyzed %zu program(s): %d error(s), "
                    "%d warning(s)%s\n", names.size(), total_errors,
                    total_warnings,
                    crosscheck ? (cross_ok ? ", crosscheck clean"
                                           : ", CROSSCHECK FAILED") : "");
    }
    return total_errors > 0 || !cross_ok ? 3 : 0;
}

int
cmdEfficiency(const std::string &name, int argc, char **argv)
{
    auto svc = svc::buildService(name);
    if (!svc)
        return 2;

    obs::Registry reg;
    obs::Scope scope(&reg);

    std::string pol = flag(argc, argv, "--policy", "arg");
    batch::Policy policy = pol == "naive" ? batch::Policy::Naive :
        pol == "api" ? batch::Policy::PerApi :
        batch::Policy::PerApiArgSize;
    std::string rc = flag(argc, argv, "--reconv", "minsp");
    auto reconv = rc == "stack" ? simt::ReconvPolicy::StackIpdom
                                : simt::ReconvPolicy::MinSpPc;
    int width = std::stoi(flag(argc, argv, "--batch", "32"));
    int n = std::stoi(flag(argc, argv, "--requests", "2400"));

    auto r = measureEfficiency(*svc, policy, reconv, width, n, 42);
    Table t("SIMT efficiency: " + name);
    t.header({"metric", "value"});
    t.row({"policy", batch::policyName(policy)});
    t.row({"reconvergence", rc == "stack" ? "stack-IPDOM" : "MinSP-PC"});
    t.row({"batch width", std::to_string(width)});
    t.row({"requests", std::to_string(n)});
    t.row({"SIMT efficiency", Table::pct(r.efficiency())});
    t.row({"batches", std::to_string(r.stats.batches)});
    t.row({"divergence events", std::to_string(r.stats.divergeEvents)});
    t.row({"path switches", std::to_string(r.stats.pathSwitches)});
    t.print();
    return dumpMetricsIfAsked(argc, argv) ? 0 : 4;
}

int
cmdTiming(const std::string &name, int argc, char **argv)
{
    auto svc = svc::buildService(name);
    if (!svc)
        return 2;

    obs::Registry reg;
    obs::Scope scope(&reg);

    core::CoreConfig cfg =
        configByName(flag(argc, argv, "--config", "rpu"));
    if (cfg.name.empty())
        return usage();

    TimingOptions opt;
    opt.requests = std::stoi(flag(argc, argv, "--requests", "512"));
    opt.alloc = flag(argc, argv, "--alloc", "simr") == "glibc" ?
        mem::AllocPolicy::GlibcLike : mem::AllocPolicy::SimrAware;
    opt.batchOverride = std::stoi(flag(argc, argv, "--batch", "0"));

    auto run = runTiming(*svc, cfg, opt);
    Table t("timing: " + name + " on " + cfg.name);
    t.header({"metric", "value"});
    t.row({"requests", std::to_string(run.core.requests)});
    t.row({"cycles", std::to_string(run.core.cycles)});
    t.row({"IPC (scalar)", Table::num(run.core.ipc(), 2)});
    t.row({"mean latency (us)",
           Table::num(run.core.meanLatencyUs(), 3)});
    t.row({"p99 latency (us)",
           Table::num(run.core.reqLatency.percentile(0.99) /
                      (run.core.freqGhz * 1e3), 3)});
    t.row({"L1 accesses", std::to_string(run.core.l1Stats.accesses)});
    t.row({"L1 miss rate", Table::pct(run.core.l1Stats.missRate())});
    t.row({"BP accuracy", Table::pct(run.core.bpStats.accuracy())});
    t.row({"requests/joule", Table::num(run.reqPerJoule(), 0)});
    t.row({"frontend energy share",
           Table::pct(run.energy.frontendShare())});
    t.print();
    return dumpMetricsIfAsked(argc, argv) ? 0 : 4;
}

int
cmdTune(const std::string &name)
{
    auto svc = svc::buildService(name);
    if (!svc)
        return 2;
    auto r = tune::tuneBatchSize(*svc);
    Table t("batch tuning: " + name);
    t.header({"batch", "MPKI", "SIMT eff", "acceptable"});
    for (const auto &p : r.points)
        t.row({std::to_string(p.batchSize), Table::num(p.mpki, 1),
               Table::pct(p.efficiency), p.acceptable ? "yes" : "no"});
    t.print();
    std::printf("chosen batch size: %d\n", r.chosenBatch);
    return 0;
}

int
cmdSweep(int argc, char **argv)
{
    obs::Registry reg;
    obs::Scope scope(&reg);

    core::CoreConfig cfg =
        configByName(flag(argc, argv, "--config", "rpu"));
    if (cfg.name.empty())
        return usage();

    TimingOptions opt;
    opt.requests = std::stoi(flag(argc, argv, "--requests", "512"));
    int threads = std::stoi(flag(argc, argv, "--threads", "0"));

    std::vector<Cell> cells;
    for (const auto &n : svc::serviceNames())
        cells.push_back({n, cfg, opt});
    auto runs = runCells(cells, threads);

    Table t("sweep: all services on " + cfg.name + " (" +
            std::to_string(threads > 0 ? threads : defaultThreads()) +
            " harness threads)");
    t.header({"service", "cycles", "IPC", "mean lat (us)",
              "L1 miss", "req/J"});
    for (size_t i = 0; i < cells.size(); ++i) {
        const auto &run = runs[i];
        t.row({cells[i].service, std::to_string(run.core.cycles),
               Table::num(run.core.ipc(), 2),
               Table::num(run.core.meanLatencyUs(), 3),
               Table::pct(run.core.l1Stats.missRate()),
               Table::num(run.reqPerJoule(), 0)});
    }
    t.print();
    return dumpMetricsIfAsked(argc, argv) ? 0 : 4;
}

/**
 * The topology of a `cluster` or `anatomy` run: uqSim's shape (one
 * server per tier, one client stream) unless --servers N asks for the
 * default 13-server topology scaled to ~N nodes, preserving its
 * 4:4:2:2:1 tier ratio (every tier keeps >= 1) and its 20000 users.
 * --shards overrides the shape's shard count.
 */
sys::ClusterConfig
clusterShape(int argc, char **argv)
{
    sys::ClusterConfig cc;
    if (has(argc, argv, "--servers")) {
        double f = std::stoi(flag(argc, argv, "--servers", "")) / 13.0;
        auto scaled = [f](int per13) {
            return std::max(1, static_cast<int>(std::lround(per13 * f)));
        };
        cc.webServers = scaled(4);
        cc.userServers = scaled(4);
        cc.mcrouterServers = scaled(2);
        cc.memcServers = scaled(2);
        cc.storageServers = scaled(1);
    } else {
        cc = sys::oneReplica();
    }
    if (has(argc, argv, "--shards"))
        cc.shards = std::stoi(flag(argc, argv, "--shards", ""));
    return cc;
}

int
cmdCluster(int argc, char **argv)
{
    obs::Registry reg;
    obs::Scope scope(&reg);

    // Each shape has its own default load: 10 kQPS and 30000 requests
    // at one replica, ClusterConfig's 100 kQPS and 100000 with
    // --servers.
    const bool replicated = has(argc, argv, "--servers");
    sys::ClusterConfig cc = clusterShape(argc, argv);
    cc.base.rpu = has(argc, argv, "--rpu");
    cc.base.batchSplit = !has(argc, argv, "--nosplit");
    cc.qps = std::stod(
        flag(argc, argv, "--qps", replicated ? "100000" : "10000"));
    cc.requests = std::stoull(
        flag(argc, argv, "--requests", replicated ? "100000" : "30000"));
    if (has(argc, argv, "--users"))
        cc.users = std::stoull(flag(argc, argv, "--users", ""));
    if (has(argc, argv, "--threads"))
        cc.threads = std::stoi(flag(argc, argv, "--threads", ""));
    auto r = sys::runCluster(cc);

    Table t("cluster run (PDES engine)");
    t.header({"metric", "value"});
    t.row({"system", cc.base.rpu
                         ? (cc.base.batchSplit ? "RPU w/ split"
                                               : "RPU w/o split")
                         : "CPU"});
    t.row({"servers", std::to_string(r.servers)});
    t.row({"users", std::to_string(cc.users)});
    t.row({"requests", std::to_string(cc.requests)});
    t.row({"batches", std::to_string(r.batches)});
    t.row({"memc misses", std::to_string(r.memcMisses)});
    t.row({"offered QPS", Table::num(r.sys.offeredQps, 0)});
    t.row({"achieved QPS", Table::num(r.sys.achievedQps, 0)});
    t.row({"mean latency (us)", Table::num(r.sys.meanUs(), 0)});
    t.row({"p99 latency (us)", Table::num(r.sys.p99Us(), 0)});
    t.row({"shards x workers",
           std::to_string(r.pdes.shards) + " x " +
               std::to_string(r.pdes.workers)});
    t.row({"lookahead windows", std::to_string(r.pdes.windows)});
    t.row({"mailbox sends", std::to_string(r.pdes.mailboxSends)});
    Table b("per-tier breakdown");
    b.header({"tier", "mean wait (us)", "mean service (us)"});
    for (const auto &tier : r.sys.tiers)
        b.row({tier.name, Table::num(tier.waitUs.mean(), 2),
               Table::num(tier.serviceUs.mean(), 2)});
    t.print();
    b.print();
    return dumpMetricsIfAsked(argc, argv) ? 0 : 4;
}

/**
 * stats: run an experiment and print the full metric registry. With a
 * service, one timing run; without, the whole service sweep through
 * runCells (per-cell registries merged deterministically).
 */
int
cmdStats(const std::string &service, int argc, char **argv)
{
    obs::Registry reg;
    obs::Scope scope(&reg);

    core::CoreConfig cfg =
        configByName(flag(argc, argv, "--config", "rpu"));
    if (cfg.name.empty())
        return usage();
    TimingOptions opt;
    opt.requests = std::stoi(flag(argc, argv, "--requests", "256"));

    if (service.empty()) {
        int threads = std::stoi(flag(argc, argv, "--threads", "0"));
        std::vector<Cell> cells;
        for (const auto &n : svc::serviceNames())
            cells.push_back({n, cfg, opt});
        runCells(cells, threads);
    } else {
        auto svc = svc::buildService(service);
        if (!svc)
            return 2;
        runTiming(*svc, cfg, opt);
    }

    // Trace-cache totals depend on cross-thread scheduling, so runCells
    // never records them into its deterministic per-cell registries;
    // snapshot them here, once, right before exposition. Same for the
    // analysis cache.
    recordTraceCacheStats();
    recordAnalysisStats();

    if (has(argc, argv, "--json"))
        std::printf("%s", reg.jsonPage().c_str());
    else
        std::printf("%s", reg.textPage().c_str());
    return dumpMetricsIfAsked(argc, argv) ? 0 : 4;
}

/**
 * Chip-level trace: run `svc` through one lockstep engine with a span
 * recorder and divergence profiler attached, batching spans included
 * (pid kChipPid). Prints the top hotspots afterwards.
 */
void
traceChipLevel(const svc::Service &svc, const std::string &name,
               obs::Tracer *tr, int width, int requests, int top_n,
               obs::BatchAnatomyRecorder *bar = nullptr)
{
    constexpr int kChipPid = 1;
    tr->processName(0, "batching server");
    tr->processName(kChipPid, "RPU core (lockstep)");
    tr->threadName(0, 0, "batch formation");
    tr->threadName(kChipPid, 1, "engine 0: " + name);

    obs::DivergenceProfiler prof(svc.program());
    prof.setStaticHints(
        analysis::gateAndProve(svc.program())->report.dataflow);
    obs::SpanRecorder spans(tr, kChipPid, 1);
    obs::MultiObserver tee({&prof, &spans});
    if (bar)
        tee.add(bar);

    auto r = measureEfficiency(svc, batch::Policy::PerApiArgSize,
                               simt::ReconvPolicy::MinSpPc, width,
                               requests, 42, &tee);
    std::printf("%s: %llu batches, SIMT efficiency %.1f%%\n",
                name.c_str(),
                static_cast<unsigned long long>(r.stats.batches),
                100.0 * r.efficiency());
    prof.report(top_n).print();
}

/**
 * trace: emit a Chrome trace-event / Perfetto timeline.
 *
 * `social_network` is the end-to-end Fig. 22 view: the User scenario
 * at one server per tier (per-server queueing in simulated
 * microseconds) plus a chip-level lockstep trace of the `user`
 * logic-tier service, with journeys captured in --mode. Any other
 * service name gives the chip-level view alone.
 */
int
cmdTrace(const std::string &target, int argc, char **argv)
{
    obs::Registry reg;
    obs::Tracer tracer;
    obs::Scope scope(&reg, &tracer);

    std::string out = flag(argc, argv, "--out", "run.json");
    int requests = std::stoi(flag(argc, argv, "--requests", "256"));
    int top_n = std::stoi(flag(argc, argv, "--top", "5"));
    obs::JourneyMode mode =
        obs::journeyModeFromName(flag(argc, argv, "--mode", "sampled"));

    if (target == "social_network") {
        // Chip level: the logic tier the scenario batches for, with the
        // per-batch anatomy rows kept for the cross-layer flow arrows.
        auto svc = svc::buildService("user");
        if (!svc)
            return 2;
        obs::BatchAnatomyRecorder chip;
        traceChipLevel(*svc, "user", &tracer, svc->traits().tunedBatch,
                       requests, top_n, &chip);

        // Cluster level: the User scenario on the RPU system at one
        // server per tier, with journey capture for the sampled tail.
        sys::ClusterConfig cfg = sys::oneReplica();
        cfg.qps = std::stod(flag(argc, argv, "--qps", "10000"));
        cfg.requests = static_cast<uint64_t>(requests) * 8;
        cfg.base.rpu = true;
        obs::JourneyRecorder jrec(mode, 64);
        sys::SysResult r;
        {
            obs::Scope jscope(&reg, &tracer, &jrec);
            r = sys::runCluster(cfg).sys;
        }
        std::printf("cluster: %.0f offered qps, %.0f achieved, "
                    "p99 %.0f us\n", r.offeredQps, r.achievedQps,
                    r.p99Us());

        // Flow arrows: connect each sampled journey's user-tier visit
        // (cluster timeline, pid 2 / user tier track) to the chip-level
        // issue window of a representative lockstep batch (pid 1). The
        // chip run batches the same service, so cluster batch ids map
        // onto its batch rows round-robin.
        const auto &rows = chip.rows();
        if (!rows.empty()) {
            size_t emitted = 0;
            for (const auto &j : jrec.snapshot()) {
                if (emitted >= 32)
                    break;
                const obs::JourneyEvent *user_start = nullptr;
                for (const auto &e : j.events)
                    if (e.kind == obs::JStage::TierStart && e.tier == 1)
                        user_start = &e;
                if (!user_start)
                    continue;
                const auto &row =
                    rows[static_cast<size_t>(j.batchId) % rows.size()];
                uint64_t id = 0x1000000 + j.reqId;
                tracer.flowStart("batch link", "link", id,
                                 obs::journeyUs(user_start->tick), 2, 3);
                tracer.flowEnd("batch link", "link", id,
                               static_cast<double>(row.startOp), 1, 1);
                ++emitted;
            }
        }
    } else {
        auto svc = svc::buildService(target);
        if (!svc)
            return 2;
        core::CoreConfig cfg =
            configByName(flag(argc, argv, "--config", "rpu"));
        if (cfg.name.empty())
            return usage();
        int width = std::min(cfg.batchWidth,
                             svc->traits().tunedBatch);
        traceChipLevel(*svc, target, &tracer, width, requests, top_n);
    }

    if (!tracer.writeFile(out)) {
        std::fprintf(stderr, "cannot write trace file '%s'\n",
                     out.c_str());
        return 4;
    }
    std::printf("wrote %zu trace events to %s\n", tracer.size(),
                out.c_str());
    std::printf("open in https://ui.perfetto.dev (or "
                "chrome://tracing)\n");
    return dumpMetricsIfAsked(argc, argv) ? 0 : 4;
}

/**
 * anatomy: the tail-latency drill-down of the social_network scenario.
 * Runs the User scenario on the CPU and RPU systems with journey
 * capture, decomposes every sampled request's latency into buckets
 * (exactly: the buckets sum to the end-to-end latency), and prints the
 * p99-vs-median anatomy per config. The RPU config's user-tier service
 * time is further split into divergence/memory shares measured by a
 * chip-level lockstep run of the `user` service.
 */
int
cmdAnatomy(const std::string &target, int argc, char **argv)
{
    if (target != "social_network") {
        std::fprintf(stderr,
                     "anatomy knows only the social_network scenario\n");
        return 1;
    }

    bool json = has(argc, argv, "--json");
    double qps = std::stod(flag(argc, argv, "--qps", "10000"));
    int requests = std::stoi(flag(argc, argv, "--requests", "20000"));
    obs::JourneyMode mode =
        obs::journeyModeFromName(flag(argc, argv, "--mode", "sampled"));

    obs::Registry reg;
    obs::Scope scope(&reg);

    // Chip-level attribution for the batched logic tier (tier 1: user).
    auto svc = svc::buildService("user");
    if (!svc)
        return 2;
    obs::BatchAnatomyRecorder chip;
    measureEfficiency(*svc, batch::Policy::PerApiArgSize,
                      simt::ReconvPolicy::MinSpPc,
                      svc->traits().tunedBatch, 512, 42, &chip);
    obs::ChipLink link = chip.link(1);

    std::string page = "{\"scenario\":\"social_network\",\"mode\":\"" +
        std::string(obs::journeyModeName(mode)) + "\",\"configs\":{";
    struct SysRun { const char *name; bool rpu; };
    const SysRun runs[] = {{"cpu", false}, {"rpu", true}};
    for (size_t i = 0; i < 2; ++i) {
        obs::JourneyRecorder rec(mode, 512);
        sys::ClusterConfig cc = clusterShape(argc, argv);
        cc.base.rpu = runs[i].rpu;
        cc.qps = qps;
        cc.requests = static_cast<uint64_t>(requests);
        sys::SysResult r;
        {
            obs::Scope inner(&reg, nullptr, &rec);
            r = sys::runCluster(cc).sys;
        }
        auto report = obs::buildAnatomy(
            rec.snapshot(), runs[i].rpu ? &link : nullptr);
        obs::recordJourneyMetrics(&reg, rec, report);
        if (json) {
            page += std::string("\"") + runs[i].name + "\":" +
                report.json() + (i == 0 ? "," : "");
        } else {
            std::printf("%s system: mean %.0f us, p99 %.0f us "
                        "(%.0f offered qps)\n", runs[i].name,
                        r.meanUs(), r.p99Us(), r.offeredQps);
            std::printf("%s", report.table(runs[i].name).c_str());
            if (runs[i].rpu)
                std::printf("  chip link (user tier): divergence "
                            "%.1f%%, memory %.1f%% of service\n",
                            100.0 * link.divergenceFrac,
                            100.0 * link.memoryFrac);
        }
    }
    if (json)
        std::printf("%s", (page + "}}\n").c_str());
    return dumpMetricsIfAsked(argc, argv) ? 0 : 4;
}

/**
 * hotspots: per-PC divergence attribution report, checked against the
 * engine's aggregate SimtStats (the sums must match exactly).
 */
int
cmdHotspots(const std::string &target, int argc, char **argv)
{
    obs::Registry reg;
    obs::Scope scope(&reg);

    int top_n = std::stoi(flag(argc, argv, "--top", "10"));
    int requests = std::stoi(flag(argc, argv, "--requests", "2400"));
    int width = std::stoi(flag(argc, argv, "--batch", "32"));

    std::vector<std::string> names;
    if (target == "--all")
        names = svc::serviceNames();
    else
        names.push_back(target);

    bool consistent = true;
    for (const auto &n : names) {
        auto svc = svc::buildService(n);
        if (!svc)
            return 2;
        obs::DivergenceProfiler prof(svc->program());
        prof.setStaticHints(
            analysis::gateAndProve(svc->program())->report.dataflow);
        auto r = measureEfficiency(*svc, batch::Policy::PerApiArgSize,
                                   simt::ReconvPolicy::MinSpPc, width,
                                   requests, 42, &prof);
        prof.report(top_n).print();
        std::printf("%s: %llu/%llu divergence events at "
                    "statically may-diverge branches, %llu at "
                    "proven-uniform branches\n", n.c_str(),
                    static_cast<unsigned long long>(
                        prof.predictedDivergeEvents()),
                    static_cast<unsigned long long>(
                        prof.totalDivergeEvents()),
                    static_cast<unsigned long long>(
                        prof.alwaysUniformViolations()));
        bool ok = prof.totalMaskedSlots() == r.stats.maskedSlots &&
            prof.totalDivergeEvents() == r.stats.divergeEvents &&
            prof.totalReconvMerges() == r.stats.reconvMerges;
        std::printf("%s: attribution %s (masked %llu/%llu, "
                    "diverge %llu/%llu, merge %llu/%llu)\n",
                    n.c_str(), ok ? "consistent" : "INCONSISTENT",
                    static_cast<unsigned long long>(
                        prof.totalMaskedSlots()),
                    static_cast<unsigned long long>(
                        r.stats.maskedSlots),
                    static_cast<unsigned long long>(
                        prof.totalDivergeEvents()),
                    static_cast<unsigned long long>(
                        r.stats.divergeEvents),
                    static_cast<unsigned long long>(
                        prof.totalReconvMerges()),
                    static_cast<unsigned long long>(
                        r.stats.reconvMerges));
        consistent = consistent && ok;
    }
    if (!dumpMetricsIfAsked(argc, argv))
        return 4;
    return consistent ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    if (cmd == "list")
        return cmdList();
    if (cmd == "sweep")
        return cmdSweep(argc, argv);
    if (cmd == "cluster")
        return cmdCluster(argc, argv);
    if (cmd == "stats") {
        // The service argument is optional: "stats --json" sweeps all.
        std::string service;
        if (argc >= 3 && argv[2][0] != '-')
            service = argv[2];
        int rc = cmdStats(service, argc, argv);
        if (rc == 2)
            std::fprintf(stderr,
                         "unknown service '%s' (simr_cli list)\n",
                         service.c_str());
        return rc;
    }
    if (argc < 3)
        return usage();
    std::string service = argv[2];
    int rc = 1;
    if (cmd == "analyze")
        rc = cmdAnalyze(service, argc, argv);
    else if (cmd == "efficiency")
        rc = cmdEfficiency(service, argc, argv);
    else if (cmd == "timing")
        rc = cmdTiming(service, argc, argv);
    else if (cmd == "tune")
        rc = cmdTune(service);
    else if (cmd == "trace")
        rc = cmdTrace(service, argc, argv);
    else if (cmd == "anatomy")
        rc = cmdAnatomy(service, argc, argv);
    else if (cmd == "hotspots")
        rc = cmdHotspots(service, argc, argv);
    else
        return usage();
    if (rc == 2)
        std::fprintf(stderr, "unknown service '%s' (simr_cli list)\n",
                     service.c_str());
    return rc;
}
