/**
 * @file
 * Cluster-engine scaling bench: wall-clock on a datacenter-scale cell
 * (>= 1000 simulated servers, >= 1M open-loop users) -- the sequential
 * engine vs the sharded engine at 16 shards x 8 workers and at the
 * hardware-matched shape, min(16, hw) shards x hw workers.
 * Emits a machine-readable summary to stdout ("BENCH_sys.json: ...")
 * and to the file BENCH_sys.json. Every sharded run is cross-checked
 * against the sequential one (sys::sameOutput), as the tier-1 test
 * sys_pdes_gate does on four smaller cells. 16 x 8 oversubscribes a
 * host with fewer than 8 hardware threads (a machine-bounded note is
 * printed then); the hardware-matched shape is the headline there.
 */

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "cells.h"
#include "common/config.h"
#include "common/table.h"

using namespace simr;
using namespace simr::bench;

namespace
{

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
        [&] { seq = runEngine(cfg, 0, 1, nullptr); });
    double par_s = wallSeconds(
        [&] { par = runEngine(cfg, par_shards, par_threads, nullptr); });
    double hw_s = wallSeconds(
        [&] { hwr = runEngine(cfg, hw_shards, hw, nullptr); });
    const bool same_par = sys::sameOutput(seq, par);
    const bool same_hw = sys::sameOutput(seq, hwr);
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
main()
{
    return runScaling(RunScale::fromEnv().seed);
}
