/**
 * @file
 * Cluster-engine scaling bench + the sys_pdes_gate determinism check.
 *
 * --verify (ctest sys_pdes_gate): the sharded PDES cluster engine must
 * be bit-identical to the sequential reference -- achieved QPS, the
 * end-to-end latency histogram, every per-tier statistic, the scenario
 * counters and the sampled journey set -- across shard counts {1, 4,
 * 16} x worker threads {1, 4}, over RPU-split / RPU-unsplit / CPU
 * cells plus a bursty cell with a deliberately tiny mailbox (so the
 * overflow-spill backpressure path is exercised under the same
 * bit-identity contract). Nonzero exit on any divergence.
 *
 * Default mode: wall-clock scaling on a datacenter-scale cell
 * (>= 1000 simulated servers, >= 1M open-loop users) -- the sequential
 * engine vs the sharded engine at 16 shards x 8 workers and at the
 * hardware-matched shape, min(16, hw) shards x hw workers.
 * Emits a machine-readable summary to stdout ("BENCH_sys.json: ...")
 * and to the file BENCH_sys.json. Every sharded run is cross-checked
 * for bit-identity with the sequential one. 16 x 8 oversubscribes a
 * host with fewer than 8 hardware threads (a machine-bounded note is
 * printed then); the hardware-matched shape is the headline there.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/journey.h"
#include "obs/metrics.h"
#include "sys/cluster.h"

using namespace simr;
using namespace simr::bench;

namespace
{

bool
sameCluster(const sys::ClusterResult &a, const sys::ClusterResult &b)
{
    // PdesStats are engine diagnostics (windows, mailbox traffic) and
    // legitimately vary with sharding; everything else must not.
    return a.servers == b.servers && a.batches == b.batches &&
        a.memcMisses == b.memcMisses &&
        a.splitOrphans == b.splitOrphans && sameSysResult(a.sys, b.sys);
}

/** Full structural identity of the sampled journey sets. */
bool
sameJourneys(const std::vector<obs::Journey> &a,
             const std::vector<obs::Journey> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        const obs::Journey &x = a[i];
        const obs::Journey &y = b[i];
        if (x.reqId != y.reqId || x.batchId != y.batchId ||
            x.batchSize != y.batchSize || x.miss != y.miss ||
            x.orphan != y.orphan ||
            x.blockedOnBatch != y.blockedOnBatch ||
            x.events.size() != y.events.size())
            return false;
        for (size_t e = 0; e < x.events.size(); ++e) {
            const obs::JourneyEvent &u = x.events[e];
            const obs::JourneyEvent &v = y.events[e];
            if (u.tick != v.tick || u.aux != v.aux ||
                u.kind != v.kind || u.tier != v.tier ||
                u.foreign != v.foreign)
                return false;
        }
    }
    return true;
}

/** One engine run under a fresh observability scope. shards == 0 runs
 *  the sequential reference engine. */
sys::ClusterResult
runOne(sys::ClusterConfig cfg, int shards, int threads,
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

struct GateCell
{
    const char *name;
    sys::ClusterConfig cfg;
};

std::vector<GateCell>
gateCells(uint64_t seed)
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

    std::vector<GateCell> cells;
    {
        GateCell c{"rpu-split", base};
        c.cfg.base.rpu = true;
        c.cfg.base.batchSplit = true;
        c.cfg.qps = 150000;
        cells.push_back(c);
    }
    {
        GateCell c{"rpu-nosplit", base};
        c.cfg.base.rpu = true;
        c.cfg.base.batchSplit = false;
        c.cfg.qps = 150000;
        cells.push_back(c);
    }
    {
        GateCell c{"cpu", base};
        c.cfg.base.rpu = false;
        c.cfg.qps = 80000;
        cells.push_back(c);
    }
    {
        // Bursty arrivals + a deliberately tiny mailbox: the ring
        // overflows into the spill path, which must be invisible in
        // every reported bit.
        GateCell c{"bursty-overflow", base};
        c.cfg.base.rpu = true;
        c.cfg.base.batchSplit = true;
        c.cfg.base.memcHitRate = 0.7;
        c.cfg.qps = 150000;
        c.cfg.burstProb = 0.2;
        c.cfg.mailboxCapacity = 2;
        cells.push_back(c);
    }
    return cells;
}

/** --verify: the ctest sys_pdes_gate. */
int
verifyPdes(uint64_t seed)
{
    const std::vector<GateCell> cells = gateCells(seed);
    const int shard_counts[] = {1, 4, 16};
    const int thread_counts[] = {1, 4};

    bool ok = true;
    uint64_t overflows_seen = 0;
    for (const GateCell &cell : cells) {
        std::vector<obs::Journey> ref_j;
        sys::ClusterResult ref = runOne(cell.cfg, 0, 1, &ref_j);
        for (int s : shard_counts) {
            for (int t : thread_counts) {
                std::vector<obs::Journey> js;
                sys::ClusterResult r = runOne(cell.cfg, s, t, &js);
                overflows_seen += r.pdes.mailboxOverflows;
                if (!sameCluster(ref, r)) {
                    std::fprintf(stderr,
                                 "sys_pdes_gate: cell %s diverged at "
                                 "%d shards, %d threads\n",
                                 cell.name, s, t);
                    ok = false;
                }
                if (!sameJourneys(ref_j, js)) {
                    std::fprintf(stderr,
                                 "sys_pdes_gate: cell %s journey set "
                                 "diverged at %d shards, %d threads\n",
                                 cell.name, s, t);
                    ok = false;
                }
            }
        }
    }
    // The bursty cell's 2-slot mailboxes must actually overflow at 16
    // shards -- otherwise the gate stopped covering the spill path.
    if (overflows_seen == 0) {
        std::fprintf(stderr, "sys_pdes_gate: no mailbox overflow "
                             "exercised (backpressure path untested)\n");
        ok = false;
    }
    std::printf("sys pdes gate: %s (%zu cells, shards {1,4,16} x "
                "threads {1,4}, vs sequential reference; %llu spills "
                "exercised)\n",
                ok ? "PASS" : "FAIL", cells.size(),
                static_cast<unsigned long long>(overflows_seen));
    return ok ? 0 : 1;
}

double
wallSeconds(const std::function<void()> &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

int
runScaling(uint64_t seed)
{
    // Datacenter-scale cell: 1040 simulated servers, 1M open-loop
    // users. Overridable for quick local runs.
    // Topology tuned so the RPU path is representative: ~60k QPS per
    // web server forms near-full batches inside the 100us window, and
    // the storage tier has headroom for the ~10% miss traffic.
    sys::ClusterConfig cfg;
    cfg.base.rpu = true;
    cfg.base.batchSplit = true;
    cfg.webServers = 64;
    cfg.userServers = 512;
    cfg.mcrouterServers = 160;
    cfg.memcServers = 256;
    cfg.storageServers = 32;
    cfg.users = static_cast<uint64_t>(
        envInt("SIMR_SYS_BENCH_USERS", 1000000));
    cfg.requests = static_cast<uint64_t>(
        envInt("SIMR_SYS_BENCH_REQUESTS", 2000000));
    cfg.qps = 4e6;
    cfg.seed = seed;

    const int par_threads = 8;
    const int par_shards = 16;
    const int hw = hardwareThreads();
    const int hw_shards = std::min(par_shards, hw);

    sys::ClusterResult seq, par, hwr;
    double seq_s = wallSeconds(
        [&] { seq = runOne(cfg, 0, 1, nullptr); });
    double par_s = wallSeconds(
        [&] { par = runOne(cfg, par_shards, par_threads, nullptr); });
    double hw_s = wallSeconds(
        [&] { hwr = runOne(cfg, hw_shards, hw, nullptr); });
    const bool same_par = sameCluster(seq, par);
    const bool same_hw = sameCluster(seq, hwr);
    const bool same = same_par && same_hw;
    double speedup = par_s > 0 ? seq_s / par_s : 0;
    double hw_speedup = hw_s > 0 ? seq_s / hw_s : 0;

    Table t("Cluster engine scaling: " +
            std::to_string(seq.servers) + " servers, " +
            std::to_string(cfg.users) + " users, " +
            std::to_string(cfg.requests) + " requests");
    t.header({"engine", "wall (s)", "speedup", "identical"});
    t.row({"sequential", Table::num(seq_s, 2), Table::mult(1.0),
           "ref"});
    t.row({"pdes 16sh x 8t", Table::num(par_s, 2),
           Table::mult(speedup), same_par ? "yes" : "NO"});
    t.row({"pdes " + std::to_string(hw_shards) + "sh x " +
               std::to_string(hw) + "t (hw)",
           Table::num(hw_s, 2), Table::mult(hw_speedup),
           same_hw ? "yes" : "NO"});
    t.print();
    std::printf("cluster: %llu batches, peak queue %llu events, %llu "
                "windows, %llu mailbox sends (%llu spills), p99 %.0f "
                "us\n",
                static_cast<unsigned long long>(seq.batches),
                static_cast<unsigned long long>(seq.pdes.peakQueued),
                static_cast<unsigned long long>(par.pdes.windows),
                static_cast<unsigned long long>(par.pdes.mailboxSends),
                static_cast<unsigned long long>(
                    par.pdes.mailboxOverflows),
                seq.sys.p99Us());
    if (hw < par_threads)
        std::printf("note: only %d hardware thread(s) -- speedup is "
                    "bounded by the machine, not the engine\n", hw);

    char buf[64];
    std::string json = "{\"bench\": \"sys_scaling\", \"servers\": " +
        std::to_string(seq.servers) + ", \"users\": " +
        std::to_string(cfg.users) + ", \"requests\": " +
        std::to_string(cfg.requests) + ", \"qps\": " +
        std::to_string(static_cast<long long>(cfg.qps)) +
        ", \"hw_threads\": " + std::to_string(hw) +
        ", \"shards\": " + std::to_string(par_shards) +
        ", \"batches\": " + std::to_string(seq.batches) +
        ", \"peak_queued\": " + std::to_string(seq.pdes.peakQueued);
    std::snprintf(buf, sizeof(buf), "%.3f", seq_s);
    json += ", \"seq_seconds\": " + std::string(buf);
    std::snprintf(buf, sizeof(buf), "%.3f", par_s);
    json += ", \"par8_seconds\": " + std::string(buf);
    std::snprintf(buf, sizeof(buf), "%.2f", speedup);
    json += ", \"speedup_8t\": " + std::string(buf);
    json += ", \"hw_shards\": " + std::to_string(hw_shards) +
        ", \"hw_workers\": " + std::to_string(hw);
    std::snprintf(buf, sizeof(buf), "%.3f", hw_s);
    json += ", \"hw_seconds\": " + std::string(buf);
    std::snprintf(buf, sizeof(buf), "%.2f", hw_speedup);
    json += ", \"speedup_hw\": " + std::string(buf);
    json += ", \"deterministic\": ";
    json += same ? "true" : "false";
    json += "}";

    std::printf("BENCH_sys.json: %s\n", json.c_str());
    if (FILE *f = std::fopen("BENCH_sys.json", "w")) {
        std::fprintf(f, "%s\n", json.c_str());
        std::fclose(f);
    }
    return same ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t seed = RunScale::fromEnv().seed;
    if (argc > 1 && std::strcmp(argv[1], "--verify") == 0)
        return verifyPdes(seed);
    return runScaling(seed);
}
