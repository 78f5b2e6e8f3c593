/**
 * @file
 * Core simulation-speed bench.
 *
 * Runs the full 14-service sweep under the seven design points of
 * cells.h (CPU, SMT-8, RPU, GPU-like and the three Sec. V-A1 RPU
 * variants) twice -- once with the per-cycle reference loop, once with
 * the event-driven cycle-skipping loop -- and
 *
 *  1. measures simulation speed (simulated kilo-instructions per wall
 *     second) per config and the event-driven speedup, and
 *  2. cross-checks that every cell's model output is the same in both
 *     modes (core::sameOutput) and that the reference loop never
 *     skipped; the tier-1 test core_event_driven_gate makes the same
 *     check at 128 requests.
 *
 * Emits a machine-readable summary to stdout (one line prefixed
 * "BENCH_core.json: ") and to the file BENCH_core.json. Exits nonzero
 * if any cell diverges.
 */

#include <chrono>
#include <string>
#include <vector>

#include "cells.h"
#include "common/config.h"
#include "common/table.h"

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
compareConfig(const DesignPoint &point, const TimingOptions &opt,
              int reps)
{
    ConfigRow row;
    row.name = point.label;

    auto ref = sweep(point.cfg, false, opt, reps, &row.refSecs);
    auto event = sweep(point.cfg, true, opt, reps, &row.eventSecs);

    uint64_t insts = 0, cycles = 0, skipped = 0;
    for (size_t i = 0; i < ref.size(); ++i) {
        // The reference loop must never skip: that would mean the
        // check compared event-driven against itself.
        if (!core::sameOutput(ref[i].core, event[i].core) ||
            ref[i].core.skippedCycles != 0)
            row.identical = false;
        insts += event[i].core.scalarInsts;
        cycles += event[i].core.cycles;
        skipped += event[i].core.skippedCycles;
    }
    row.kopsRef = static_cast<double>(insts) / row.refSecs / 1e3;
    row.kopsEvent = static_cast<double>(insts) / row.eventSecs / 1e3;
    row.skippedFrac = cycles ? static_cast<double>(skipped) /
        static_cast<double>(cycles) : 0.0;
    return row;
}

} // namespace

int
main()
{
    RunScale scale = RunScale::fromEnv();
    TimingOptions opt;
    opt.requests = static_cast<int>(scale.timingRequests);
    opt.seed = scale.seed;

    std::vector<ConfigRow> rows;
    bool all_identical = true;
    for (const DesignPoint &point : designPoints()) {
        rows.push_back(compareConfig(point, opt, 3));
        all_identical = all_identical && rows.back().identical;
    }

    Table t("Core simulation speed: 14-service sweep, per-cycle vs "
            "event-driven (" + std::to_string(opt.requests) +
            " requests/service)");
    t.header({"config", "ref (s)", "event (s)", "speedup",
              "ref ksim-inst/s", "event ksim-inst/s", "skipped",
              "identical"});
    for (const auto &r : rows) {
        t.row({r.name, Table::num(r.refSecs, 2), Table::num(r.eventSecs, 2),
               Table::mult(r.refSecs / r.eventSecs),
               Table::num(r.kopsRef, 0), Table::num(r.kopsEvent, 0),
               Table::pct(r.skippedFrac), r.identical ? "yes" : "NO"});
    }
    t.print();

    std::string json = "{\"bench\": \"core_speed\", \"services\": 14, "
        "\"requests\": " + std::to_string(opt.requests) + ", \"configs\": [";
    for (size_t i = 0; i < rows.size(); ++i) {
        const auto &r = rows[i];
        char buf[320];
        std::snprintf(buf, sizeof(buf),
                      "{\"name\": \"%s\", \"ref_seconds\": %.3f, "
                      "\"event_seconds\": %.3f, \"speedup\": %.2f, "
                      "\"kops_ref\": %.0f, "
                      "\"ksim_insts_per_sec\": %.0f, "
                      "\"skipped_cycle_frac\": %.4f, \"identical\": %s}",
                      r.name.c_str(), r.refSecs, r.eventSecs,
                      r.refSecs / r.eventSecs, r.kopsRef, r.kopsEvent,
                      r.skippedFrac, r.identical ? "true" : "false");
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
