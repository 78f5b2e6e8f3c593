/**
 * @file
 * simr_perfbench: one workload of the performance benchmark, run once
 * in this process on one worker thread.
 *
 *   simr_perfbench --workload NAME --seed N [--spans FILE]
 *
 * Workloads (see README.md for why each was chosen):
 *   reproduce_cold  every distinct chip-level cell of the paper, once,
 *                   from a cold process
 *   design_warm     the Sec. V-A1 core-side design variants replayed
 *                   from the caches a cold base pass filled
 *   cluster_1024    the three Fig. 22 systems at 1024 servers
 *
 * Prints one JSON object: host times of the set-up and measured phases,
 * peak RSS, simulated requests, operations attempted and failed, and the
 * digests of every simulated statistic and of the cache reuse. With
 * --spans the run is traced: it records spans around every layer call,
 * adds per-layer metrics to the JSON and writes the spans to FILE.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/cache.h"
#include "ops.h"
#include "simr/streamcache.h"
#include "trace/compile.h"

using namespace simr;
using namespace perfbench;

namespace
{

// Scale. reproduce_cold runs the paper's cells at 1/32 of the paper's
// request counts (2400 per efficiency cell, 640 per cache study, and the
// repo's default 512 per timing cell), which keeps the paper's mix of
// work in a cold process of about a second; design_warm runs 1/4 of the
// default per cell. Short processes let a run take many of them.
constexpr int kEffRequests = 75;         ///< per SIMT-efficiency cell
constexpr int kStudyRequests = 20;       ///< per cache study
constexpr int kColdTimingRequests = 16;  ///< per reproduce_cold cell
constexpr int kWarmTimingRequests = 128; ///< per design_warm cell
/** Set-up rounds per process; the process reports their median. */
constexpr int kSetupRounds = 9;

struct Host
{
    double wall = 0;
    double cpu = 0;

    static Host
    now()
    {
        Host h;
        h.wall = std::chrono::duration<double>(
                     Clock::now().time_since_epoch())
                     .count();
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        h.cpu = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                       ru.ru_stime.tv_usec);
        return h;
    }
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

using Services = std::vector<std::unique_ptr<svc::Service>>;

/**
 * The chip workloads' set-up: build the 14 services and run the
 * analysis gate and proof on each. Repeated kSetupRounds times (the
 * first round through the process cache the cells later hit, the rest
 * uncached); returns the median round time.
 */
double
setupServices(Bench &b, Services *out)
{
    std::vector<double> rounds;
    for (int r = 0; r < kSetupRounds; ++r) {
        const Host t0 = Host::now();
        Scoped round(b.log, "set-up round", "bench");
        Services svcs;
        for (const std::string &name : svc::serviceNames()) {
            {
                Scoped s(b.log, "buildService", "services", "build");
                svcs.push_back(svc::buildService(name));
                s.count = 1;
            }
            Scoped s(b.log, r == 0 ? "gateAndProve" : "analyzeAndProve",
                     "analysis");
            auto ca = r == 0 ? analysis::gateAndProve(svcs.back()->program())
                             : analysis::analyzeAndProve(
                                   svcs.back()->program());
            const bool ok = ca->proof != nullptr;
            ++b.cur->ops;
            b.cur->opsFailed += ok ? 0 : 1;
            ++b.cur->programs;
            s.count = 1;
        }
        round.count = svcs.size();
        rounds.push_back(Host::now().wall - t0.wall);
        if (r == 0)
            *out = std::move(svcs);
    }
    return median(rounds);
}

TimingOptions
timingOptions(int requests, uint64_t seed)
{
    TimingOptions opt;
    opt.requests = requests;
    opt.seed = seed;
    return opt;
}

/** Phase timings a workload reports. */
struct Phases
{
    /** Median set-up round; set-up operations are timed on their own. */
    double setupRoundsS = 0;
    Host start;   ///< measured phase
    Host end;
};

void
reproduceCold(Bench &b, uint64_t seed, Phases *ph)
{
    Services svcs;
    ph->setupRoundsS = setupServices(b, &svcs);

    b.enter(Phase::Measure);
    ph->start = Host::now();

    // Figs. 4 and 11: naive, per-API and per-API+arg-size batching, the
    // last under both reconvergence schemes (Fig. 4 is the naive column).
    struct EffPoint
    {
        batch::Policy policy;
        simt::ReconvPolicy reconv;
    };
    const EffPoint grid[] = {
        {batch::Policy::Naive, simt::ReconvPolicy::MinSpPc},
        {batch::Policy::PerApi, simt::ReconvPolicy::MinSpPc},
        {batch::Policy::PerApiArgSize, simt::ReconvPolicy::StackIpdom},
        {batch::Policy::PerApiArgSize, simt::ReconvPolicy::MinSpPc},
    };
    for (const auto &s : svcs)
        for (const EffPoint &p : grid)
            efficiencyCell(b, *s, p.policy, p.reconv, 32, kEffRequests, seed);

    // Figs. 14 and 15: the CPU at 256 KB (Fig. 14) and 64 KB (Fig. 15);
    // the RPU at 256 KB at the tuned batch (Fig. 14) and batches
    // 32/16/8/4 (Fig. 15), each distinct study once.
    for (const auto &s : svcs) {
        CacheStudyOptions opt;
        opt.requests = kStudyRequests;
        opt.seed = seed;
        for (uint64_t kb : {256, 64}) {
            CacheStudyOptions c = opt;
            c.l1KB = kb;
            cacheStudy(b, *s, 0, c);
        }
        std::vector<int> sizes = {s->traits().tunedBatch};
        for (int bs : {32, 16, 8, 4})
            if (std::find(sizes.begin(), sizes.end(), bs) == sizes.end())
                sizes.push_back(bs);
        for (int bs : sizes)
            cacheStudy(b, *s, bs, opt);
    }

    // Figs. 10/19/20/21 and the GPU comparison: every service on the
    // CPU, SMT-8, RPU and GPU design points.
    const TimingOptions opt = timingOptions(kColdTimingRequests, seed);
    for (const core::CoreConfig &cfg :
         {core::makeCpuConfig(), core::makeSmt8Config(),
          core::makeRpuConfig(), core::makeGpuConfig()})
        for (const std::string &name : svc::serviceNames())
            timingCell(b, {name, cfg, opt});

    ph->end = Host::now();
}

void
designWarm(Bench &b, uint64_t seed, Phases *ph)
{
    Services svcs;
    ph->setupRoundsS = setupServices(b, &svcs);

    // The cold base pass fills the trace and stream caches; it is
    // set-up, and its results are what the replayed base point must
    // reproduce bit for bit.
    const TimingOptions opt = timingOptions(kWarmTimingRequests, seed);
    const core::CoreConfig base = core::makeRpuConfig();
    std::vector<TimingRun> cold;
    for (const std::string &name : svc::serviceNames())
        cold.push_back(timingCell(b, {name, base, opt}));

    b.enter(Phase::Measure);
    ph->start = Host::now();

    // Sec. V-A1 core-side variants: full-width 32-lane SIMT instead of
    // 8-lane sub-batch interleaving, atomics in the private L1 instead
    // of the L3, and lane-0 branch prediction instead of majority vote.
    // None of them changes the front-end stream key.
    core::CoreConfig lanes32 = base;
    lanes32.lanes = 32;
    core::CoreConfig atomicsL1 = base;
    atomicsL1.mem.atomicsAtL3 = false;
    core::CoreConfig lane0Bp = base;
    lane0Bp.majorityVoteBp = false;
    for (const core::CoreConfig &cfg : {lanes32, atomicsL1, lane0Bp})
        for (const std::string &name : svc::serviceNames())
            timingCell(b, {name, cfg, opt});

    const auto &names = svc::serviceNames();
    for (size_t i = 0; i < names.size(); ++i) {
        const TimingRun warm = timingCell(b, {names[i], base, opt});
        if (!sameRun(warm, cold[i]))
            ++b.cur->opsFailed;
    }

    ph->end = Host::now();
}

/** The 1024-server Fig. 22 cluster: web, user, mcrouter, memc, storage. */
sys::ClusterConfig
cluster1024(uint64_t seed)
{
    sys::ClusterConfig c;
    c.webServers = 64;
    c.userServers = 512;
    c.mcrouterServers = 160;
    c.memcServers = 256;
    c.storageServers = 32;
    c.seed = seed;
    // Four shards (the PDES kernel's windows and mailboxes) on one
    // worker thread.
    c.shards = 4;
    c.threads = 1;
    return c;
}

void
cluster(Bench &b, uint64_t seed, Phases *ph)
{
    // No set-up phase: the process's start-up is all that precedes the
    // measured load points.
    b.enter(Phase::Measure);
    ph->start = Host::now();

    // The three Fig. 22 systems at one offered load: 3M QPS keeps each
    // p99 inside the 2.5 ms QoS bound (about 1.7, 1.9 and 2.0 ms).
    // Each client's Poisson stream ends early, so achieved load trails
    // offered; at 100 requests per client it reaches about 0.7 of it.
    struct Point
    {
        const char *name;
        bool rpu;
        bool split;
    };
    const Point points[] = {
        {"cpu", false, false},
        {"rpu_split", true, true},
        {"rpu_nosplit", true, false},
    };
    for (const Point &p : points) {
        sys::ClusterConfig c = cluster1024(seed);
        c.base.rpu = p.rpu;
        c.base.batchSplit = p.split;
        c.users = 5000;
        c.requests = 500000;
        c.qps = 3.0e6;
        clusterPoint(b, p.name, c);
    }

    ph->end = Host::now();
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    std::string spans;
};

bool
parse(int argc, char **argv, Args *a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload")
            a->workload = v;
        else if (k == "--seed")
            a->seed = std::strtoull(v, nullptr, 10);
        else if (k == "--spans")
            a->spans = v;
        else
            return false;
    }
    return argc % 2 == 1 && !a->workload.empty();
}

/** JSON number with every digit a double carries. */
std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

/** Per-layer metrics of a traced run (see README.md for the table). */
std::vector<std::pair<std::string, double>>
layerMetrics(const Bench &b, double tracedWall)
{
    auto L = b.log.selfTimes(Phase::Measure);
    auto S = b.log.selfTimes(Phase::Setup);
    auto self = [](const std::map<std::string, double> &m, const char *k) {
        auto it = m.find(k);
        return it == m.end() ? 0.0 : it->second;
    };
    const Totals &t = b.measure;
    const double mb = 1.0 / (1024.0 * 1024.0);
    double traceMb = 0, streamMb = 0;
    if (trace::TraceCache *tc = trace::TraceCache::process())
        traceMb = static_cast<double>(tc->bytesResident()) * mb;
    if (StreamCache *sc = StreamCache::process())
        streamMb = static_cast<double>(sc->bytesResident()) * mb;

    // Coverage: the layers' self time over the traced wall time less
    // the calibrated cost of the timing shim's clock reads.
    double covered = 0;
    for (auto *m : {&L, &S})
        for (const auto &[k, s] : *m)
            if (k.find('/') == std::string::npos && k != "bench")
                covered += s;
    const double clockS = self(L, "bench/clock");
    const double clockAll = clockS + self(S, "bench/clock");

    const double coreS = self(L, "core");
    const double sysS = self(L, "sys");
    return {
        {"core.self_s", coreS},
        {"core.cpu.self_s", self(L, "core/cpu")},
        {"core.smt8.self_s", self(L, "core/cpu-smt8")},
        {"core.rpu.self_s", self(L, "core/rpu")},
        {"core.gpu.self_s", self(L, "core/gpu")},
        {"core.ns_per_op",
         ratio(coreS * 1e9, static_cast<double>(t.coreBatchOps))},
        {"core.ticked_cycles", static_cast<double>(t.coreTickedCycles)},
        {"core.sim_cycles", static_cast<double>(t.coreCycles)},
        {"core.batch_ops", static_cast<double>(t.coreBatchOps)},
        {"trace.self_s", self(L, "trace")},
        {"trace.live_ops", static_cast<double>(t.liveOps)},
        {"simt.batch_ops", static_cast<double>(t.simtBatchOps)},
        {"simt.efficiency",
         ratio(static_cast<double>(t.simtScalarOps), t.simtSlots)},
        {"trace.captured_ops", static_cast<double>(t.reuse.capturedOps)},
        {"trace.cache_mb", traceMb},
        {"simr.stream_mb", streamMb},
        {"trace.compile_s",
         static_cast<double>(trace::compileCounters().compileUs) * 1e-6},
        {"trace.replayed_ops", static_cast<double>(t.reuse.replayedOps)},
        {"trace.request_hit_ratio",
         ratio(static_cast<double>(t.reuse.hits),
               static_cast<double>(t.reuse.hits + t.reuse.misses))},
        {"simr.stream_hit_ratio",
         ratio(static_cast<double>(t.streamHits),
               static_cast<double>(t.streamLookups))},
        {"simr.self_s", self(L, "simr")},
        {"mem.study_s", self(L, "mem")},
        {"mem.l1_accesses", static_cast<double>(t.l1Accesses)},
        {"mem.l1_misses", static_cast<double>(t.l1Misses)},
        {"mem.mshr_merges", static_cast<double>(t.mshrMerges)},
        {"mem.tlb_misses", static_cast<double>(t.tlbMisses)},
        {"services.build_s", self(L, "services/build")},
        {"services.gen_s", self(L, "services/gen")},
        {"services.requests", static_cast<double>(t.genRequests)},
        {"analysis.gate_s", self(L, "analysis") + self(S, "analysis")},
        {"analysis.programs",
         static_cast<double>(b.setup.programs + t.programs)},
        {"batching.form_s", self(L, "batching")},
        {"batching.batches", static_cast<double>(t.batches)},
        {"batching.fill", ratio(static_cast<double>(t.batchedRequests),
                                static_cast<double>(t.batchSlots))},
        {"energy.self_s", self(L, "energy")},
        {"sys.cpu.self_s", self(L, "sys/cpu")},
        {"sys.rpu_split.self_s", self(L, "sys/rpu_split")},
        {"sys.rpu_nosplit.self_s", self(L, "sys/rpu_nosplit")},
        {"sys.events", static_cast<double>(t.sysEvents)},
        {"sys.ns_per_event",
         ratio(sysS * 1e9, static_cast<double>(t.sysEvents))},
        {"sys.windows", static_cast<double>(t.sysWindows)},
        {"sys.mailbox_sends", static_cast<double>(t.sysMailboxSends)},
        {"sys.mailbox_spills", static_cast<double>(t.sysMailboxSpills)},
        {"sys.batches", static_cast<double>(t.sysBatches)},
        {"sys.memc_misses", static_cast<double>(t.sysMemcMisses)},
        {"setup.trace.self_s", self(S, "trace")},
        {"setup.core.self_s", self(S, "core")},
        {"bench.self_s", self(L, "bench") + self(S, "bench")},
        {"bench.clock_s", clockS},
        {"bench.coverage", ratio(covered, tracedWall - clockAll)},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parse(argc, argv, &args)) {
        std::fprintf(stderr, "usage: simr_perfbench --workload "
                             "reproduce_cold|design_warm|cluster_1024 "
                             "--seed N [--spans FILE]\n");
        return 2;
    }
    const std::map<std::string,
                   std::function<void(Bench &, uint64_t, Phases *)>>
        workloads = {{"reproduce_cold", reproduceCold},
                     {"design_warm", designWarm},
                     {"cluster_1024", cluster}};
    auto it = workloads.find(args.workload);
    if (it == workloads.end()) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }

    // Start of main, on the clock run.py reads when it launches this
    // process (CLOCK_MONOTONIC): the difference is the start-up.
    const double mainS = Host::now().wall;
    Bench b(!args.spans.empty());
    Phases ph;
    const double t0 = b.log.now();
    it->second(b, args.seed, &ph);
    const double runWall = b.log.now() - t0;

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double wall = ph.end.wall - ph.start.wall;
    const uint64_t ops = b.setup.ops + b.measure.ops;
    const uint64_t failed = b.setup.opsFailed + b.measure.opsFailed;
    double setupOps = 0;
    for (double w : b.setupTimes.wall)
        setupOps += w;
    auto list = [](const std::vector<double> &v) {
        std::string s = "[";
        for (size_t i = 0; i < v.size(); ++i)
            s += (i ? ", " : "") + num(v[i]);
        return s + "]";
    };

    std::string out = "{\"workload\": \"" + args.workload +
        "\", \"seed\": " + std::to_string(args.seed) +
        ", \"traced\": " + (b.log.enabled() ? "true" : "false") +
        ", \"wall_s\": " + num(wall) +
        ", \"cpu_s\": " + num(ph.end.cpu - ph.start.cpu) +
        ", \"setup_s\": " + num(ph.setupRoundsS + setupOps) +
        ", \"run_s\": " + num(runWall) +
        ", \"main_s\": " + num(mainS) +
        ", \"peak_rss_mb\": " +
        num(static_cast<double>(ru.ru_maxrss) / 1024.0) +
        ", \"sim_requests\": " + std::to_string(b.measure.simRequests) +
        ", \"ops\": " + std::to_string(ops) +
        ", \"ops_failed\": " + std::to_string(failed) +
        ", \"digest\": \"" + b.digest.hex() +
        "\", \"reuse_digest\": \"" + b.reuseDigest.hex() +
        "\", \"setup_rounds_s\": " + num(ph.setupRoundsS) +
        ", \"setup_ops_s\": " + list(b.setupTimes.wall) +
        ", \"ops_s\": " + list(b.measureTimes.wall) +
        ", \"ops_cpu_s\": " + list(b.measureTimes.cpu);
    if (b.log.enabled()) {
        out += ", \"layers\": {";
        bool first = true;
        for (const auto &[k, v] : layerMetrics(b, runWall)) {
            out += (first ? "\"" : ", \"") + k + "\": " + num(v);
            first = false;
        }
        out += "}";
        if (!b.log.write(args.spans)) {
            std::fprintf(stderr, "cannot write %s\n", args.spans.c_str());
            return 1;
        }
    }
    out += "}";
    std::printf("%s\n", out.c_str());
    return failed == 0 ? 0 : 1;
}
