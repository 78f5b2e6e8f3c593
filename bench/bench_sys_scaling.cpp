/**
 * @file
 * Cluster-engine scaling bench: wall-clock on a datacenter-scale cell
 * (>= 1000 simulated servers, >= 1M open-loop users) -- the sequential
 * engine vs the sharded engine at 16 shards x 8 workers and at the
 * hardware-matched shape, min(16, hw) shards x hw workers. Each shape
 * runs in kRounds rounds that alternate the three shapes, so host
 * drift hits all three alike; each shape reports its median and its
 * min-max range, and the speedups are ratios of medians.
 * Emits a machine-readable summary to stdout ("BENCH_sys.json: ...")
 * and to the file BENCH_sys.json. Every sharded run is cross-checked
 * against the sequential one (sys::sameOutput), as the tier-1 test
 * sys_pdes_gate does on four smaller cells. 16 x 8 oversubscribes a
 * host with fewer than 8 hardware threads (a machine-bounded note is
 * printed then); the hardware-matched shape is the headline there.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
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

/** Rounds per engine shape: one time per shape cannot resolve a
 *  10-20% change on a shared host, five give a median and a range. */
constexpr int kRounds = 5;
static_assert(kRounds % 2 == 1, "the median is the middle round");

double
wallSeconds(const std::function<void()> &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/** One engine shape's timings over the rounds. */
struct Timings
{
    std::vector<double> s;

    double
    median() const
    {
        std::vector<double> v = s;
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    }

    double min() const { return *std::min_element(s.begin(), s.end()); }
    double max() const { return *std::max_element(s.begin(), s.end()); }

    /** "median (min-max)" for the table. */
    std::string
    cell() const
    {
        return Table::num(median(), 2) + " (" + Table::num(min(), 2) +
            "-" + Table::num(max(), 2) + ")";
    }

    /** "<key>_seconds": median, "<key>_range": [min, max]. */
    std::string
    json(const std::string &key) const
    {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      ", \"%s_seconds\": %.3f, \"%s_range\": [%.3f, %.3f]",
                      key.c_str(), median(), key.c_str(), min(), max());
        return buf;
    }
};

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

    // Every round runs the three shapes in turn; every sharded run is
    // checked against the first sequential one.
    sys::ClusterResult seq, par;
    Timings seq_t, par_t, hw_t;
    bool same_par = true, same_hw = true;
    for (int r = 0; r < kRounds; ++r) {
        sys::ClusterResult out;
        seq_t.s.push_back(wallSeconds(
            [&] { out = runEngine(cfg, 0, 1, nullptr); }));
        if (r == 0)
            seq = std::move(out);
        par_t.s.push_back(wallSeconds([&] {
            out = runEngine(cfg, par_shards, par_threads, nullptr);
        }));
        same_par = same_par && sys::sameOutput(seq, out);
        if (r == 0)
            par = std::move(out);
        hw_t.s.push_back(wallSeconds(
            [&] { out = runEngine(cfg, hw_shards, hw, nullptr); }));
        same_hw = same_hw && sys::sameOutput(seq, out);
    }
    const bool same = same_par && same_hw;
    const double seq_s = seq_t.median();
    double speedup = seq_s / par_t.median();
    double hw_speedup = seq_s / hw_t.median();

    Table t("Cluster engine scaling: " +
            std::to_string(seq.servers) + " servers, " +
            std::to_string(cfg.users) + " users, " +
            std::to_string(cfg.requests) + " requests, " +
            std::to_string(kRounds) + " rounds");
    t.header({"engine", "wall (s): median (min-max)", "speedup",
              "identical"});
    t.row({"sequential", seq_t.cell(), Table::mult(1.0), "ref"});
    t.row({"pdes 16sh x 8t", par_t.cell(), Table::mult(speedup),
           same_par ? "yes" : "NO"});
    t.row({"pdes " + std::to_string(hw_shards) + "sh x " +
               std::to_string(hw) + "t (hw)",
           hw_t.cell(), Table::mult(hw_speedup), same_hw ? "yes" : "NO"});
    t.print();
    std::printf("cluster: %llu batches, peak queue %llu events, %llu "
                "windows, %llu mailbox sends, p99 %.0f us\n",
                static_cast<unsigned long long>(seq.batches),
                static_cast<unsigned long long>(seq.pdes.peakQueued),
                static_cast<unsigned long long>(par.pdes.windows),
                static_cast<unsigned long long>(par.pdes.mailboxSends),
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
        ", \"peak_queued\": " + std::to_string(seq.pdes.peakQueued) +
        ", \"rounds\": " + std::to_string(kRounds);
    json += seq_t.json("seq") + par_t.json("par8");
    std::snprintf(buf, sizeof(buf), "%.2f", speedup);
    json += ", \"speedup_8t\": " + std::string(buf);
    json += ", \"hw_shards\": " + std::to_string(hw_shards) +
        ", \"hw_workers\": " + std::to_string(hw);
    json += hw_t.json("hw");
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
