/**
 * @file
 * Core simulation-speed bench and event-driven determinism gate.
 *
 * Runs the full 14-service sweep under every design point (CPU, SMT-8,
 * RPU, GPU-like) and the three Sec. V-A1 RPU variants (32 full-width
 * lanes, atomics in the L1, lane-0 branch prediction) twice -- once
 * with the per-cycle reference loop, once with the event-driven
 * cycle-skipping loop -- and
 *
 *  1. gates that every reported statistic of every cell is bit-identical
 *     between the two modes (cycles, IPC inputs, the full latency
 *     histogram, every counter, and all cache/TLB/BP/MCU stats;
 *     CoreResult::skippedCycles / skipJumps are diagnostics of the loop
 *     itself and deliberately excluded), and
 *  2. measures simulation speed (simulated kilo-instructions per wall
 *     second) per config and the event-driven speedup.
 *
 * Emits a machine-readable summary to stdout (one line prefixed
 * "BENCH_core.json: ") and to the file BENCH_core.json. Exits nonzero
 * if any cell diverges.
 *
 * `--verify` runs the gate alone at a reduced request count (the tier-1
 * ctest entry `core_event_driven_gate`): no timing, no JSON, just the
 * 14 x 7 x 2 equivalence check.
 */

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"

using namespace simr;
using namespace simr::bench;

namespace
{

struct ConfigRow
{
    std::string name;
    double refSecs = 0;
    double eventSecs = 0;
    double kopsRef = 0;     ///< simulated kilo-insts / wall second
    double kopsEvent = 0;
    double skippedFrac = 0; ///< skipped cycles / total cycles (event mode)
    bool identical = true;
    std::vector<std::string> diverged;
};

/**
 * Sweep all services under `cfg` in one mode `reps` times; returns the
 * (deterministic, rep-independent) runs and the minimum wall time. The
 * min over repetitions is the standard noise filter for wall-clock
 * microbenchmarks: scheduling hiccups only ever add time.
 */
std::vector<TimingRun>
sweep(core::CoreConfig cfg, bool event_driven, const TimingOptions &opt,
      int reps, double *secs)
{
    cfg.eventDriven = event_driven;
    std::vector<Cell> cells;
    for (const auto &name : svc::serviceNames())
        cells.push_back({name, cfg, opt});
    std::vector<TimingRun> runs;
    *secs = 0;
    for (int r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        runs = runCells(cells);
        auto t1 = std::chrono::steady_clock::now();
        double s = std::chrono::duration<double>(t1 - t0).count();
        if (r == 0 || s < *secs)
            *secs = s;
    }
    return runs;
}

ConfigRow
compareConfig(const core::CoreConfig &cfg, const TimingOptions &opt,
              int reps)
{
    ConfigRow row;
    row.name = cfg.name;

    auto ref = sweep(cfg, false, opt, reps, &row.refSecs);
    auto event = sweep(cfg, true, opt, reps, &row.eventSecs);

    uint64_t insts = 0, cycles = 0, skipped = 0, jumps = 0;
    const auto &names = svc::serviceNames();
    for (size_t i = 0; i < ref.size(); ++i) {
        if (!sameCoreResult(ref[i].core, event[i].core)) {
            row.identical = false;
            row.diverged.push_back(names[i]);
        }
        if (ref[i].core.skippedCycles != 0) {
            // The reference loop must never skip: that would mean the
            // gate compared event-driven against itself.
            row.identical = false;
            row.diverged.push_back(names[i] + "(ref-skipped)");
        }
        insts += event[i].core.scalarInsts;
        cycles += event[i].core.cycles;
        skipped += event[i].core.skippedCycles;
        jumps += event[i].core.skipJumps;
    }
    (void)jumps;
    row.kopsRef = static_cast<double>(insts) / row.refSecs / 1e3;
    row.kopsEvent = static_cast<double>(insts) / row.eventSecs / 1e3;
    row.skippedFrac = cycles ? static_cast<double>(skipped) /
        static_cast<double>(cycles) : 0.0;
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    bool verify_only = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--verify") == 0)
            verify_only = true;

    RunScale scale = RunScale::fromEnv();
    TimingOptions opt;
    opt.requests = static_cast<int>(scale.timingRequests);
    if (verify_only && opt.requests > 128)
        opt.requests = 128;
    opt.seed = scale.seed;

    // The four design points, then the Sec. V-A1 core-side RPU
    // variants (full-width lanes, atomics in the L1, lane-0 branch
    // prediction), whose paths the stock configs never take.
    core::CoreConfig lanes32 = core::makeRpuConfig();
    lanes32.name = "rpu-lanes32";
    lanes32.lanes = 32;
    core::CoreConfig atomics_l1 = core::makeRpuConfig();
    atomics_l1.name = "rpu-atomics-l1";
    atomics_l1.mem.atomicsAtL3 = false;
    core::CoreConfig lane0_bp = core::makeRpuConfig();
    lane0_bp.name = "rpu-lane0-bp";
    lane0_bp.majorityVoteBp = false;
    std::vector<core::CoreConfig> cfgs = {
        core::makeCpuConfig(), core::makeSmt8Config(),
        core::makeRpuConfig(), core::makeGpuConfig(),
        lanes32, atomics_l1, lane0_bp,
    };

    std::vector<ConfigRow> rows;
    bool all_identical = true;
    int reps = verify_only ? 1 : 3;
    for (const auto &cfg : cfgs) {
        rows.push_back(compareConfig(cfg, opt, reps));
        all_identical = all_identical && rows.back().identical;
    }

    if (verify_only) {
        for (const auto &r : rows) {
            std::printf("%-14s %s", r.name.c_str(),
                        r.identical ? "identical" : "DIVERGED:");
            for (const auto &s : r.diverged)
                std::printf(" %s", s.c_str());
            std::printf("\n");
        }
        std::printf("core_event_driven_gate: %s (14 services x %zu "
                    "configs, %d requests)\n",
                    all_identical ? "PASS" : "FAIL", cfgs.size(),
                    opt.requests);
        return all_identical ? 0 : 1;
    }

    Table t("Core simulation speed: 14-service sweep, per-cycle vs "
            "event-driven (" + std::to_string(opt.requests) +
            " requests/service)");
    t.header({"config", "ref (s)", "event (s)", "speedup", "ksim-inst/s",
              "skipped", "identical"});
    for (const auto &r : rows) {
        t.row({r.name, Table::num(r.refSecs, 2), Table::num(r.eventSecs, 2),
               Table::mult(r.refSecs / r.eventSecs),
               Table::num(r.kopsEvent, 0),
               Table::pct(r.skippedFrac), r.identical ? "yes" : "NO"});
    }
    t.print();

    std::string json = "{\"bench\": \"core_speed\", \"services\": 14, "
        "\"requests\": " + std::to_string(opt.requests) + ", \"configs\": [";
    for (size_t i = 0; i < rows.size(); ++i) {
        const auto &r = rows[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "{\"name\": \"%s\", \"ref_seconds\": %.3f, "
                      "\"event_seconds\": %.3f, \"speedup\": %.2f, "
                      "\"ksim_insts_per_sec\": %.0f, "
                      "\"skipped_cycle_frac\": %.4f, \"identical\": %s}",
                      r.name.c_str(), r.refSecs, r.eventSecs,
                      r.refSecs / r.eventSecs, r.kopsEvent, r.skippedFrac,
                      r.identical ? "true" : "false");
        json += (i ? ", " : "") + std::string(buf);
    }
    json += "], \"all_identical\": ";
    json += all_identical ? "true" : "false";
    json += "}";

    std::printf("BENCH_core.json: %s\n", json.c_str());
    if (FILE *f = std::fopen("BENCH_core.json", "w")) {
        std::fprintf(f, "%s\n", json.c_str());
        std::fclose(f);
    }
    return all_identical ? 0 : 1;
}
