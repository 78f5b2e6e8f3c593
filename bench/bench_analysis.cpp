/**
 * @file
 * Static-analyzer benchmarks: google-benchmark microbenchmarks keep
 * the analyzer (which gates every simulation) and the dataflow
 * fixpoint honest. The soundness of the dataflow verdicts is the
 * tier-1 test dataflow_soundness_gate.
 */

#include <benchmark/benchmark.h>

#include "analysis/analyzer.h"
#include "analysis/cache.h"
#include "analysis/cfg.h"
#include "analysis/crosscheck.h"
#include "analysis/dataflow.h"
#include "analysis/dom.h"
#include "simr/runner.h"

using namespace simr;

namespace
{

/** Full analyze() over one service program per iteration. */
void
BM_Analyze(benchmark::State &state, const char *name)
{
    auto svc = svc::buildService(name);
    uint64_t insts = 0;
    for (auto _ : state) {
        auto report = analysis::analyze(svc->program());
        benchmark::DoNotOptimize(report);
        insts += report.numInsts;
    }
    state.SetItemsProcessed(static_cast<int64_t>(insts));
}
BENCHMARK_CAPTURE(BM_Analyze, memc, "memc");
BENCHMARK_CAPTURE(BM_Analyze, post, "post");
BENCHMARK_CAPTURE(BM_Analyze, usertag, "usertag");

/** CFG + both dominator trees alone (the algorithmic core). */
void
BM_CfgAndDominators(benchmark::State &state)
{
    auto svc = svc::buildService("post");
    for (auto _ : state) {
        analysis::Cfg cfg(svc->program());
        for (int f = 0; f < cfg.numFuncs(); ++f) {
            auto dom = analysis::DomTree::dominators(cfg, cfg.func(f));
            auto pdom = analysis::DomTree::postDominators(cfg, cfg.func(f));
            benchmark::DoNotOptimize(dom);
            benchmark::DoNotOptimize(pdom);
        }
    }
}
BENCHMARK(BM_CfgAndDominators);

/** The dataflow fixpoint alone (both uniformity modes + extraction). */
void
BM_Dataflow(benchmark::State &state, const char *name)
{
    auto svc = svc::buildService(name);
    analysis::Cfg cfg(svc->program());
    for (auto _ : state) {
        analysis::DataflowInfo df;
        analysis::runDataflow(svc->program(), cfg, &df);
        benchmark::DoNotOptimize(df);
    }
}
BENCHMARK_CAPTURE(BM_Dataflow, memc, "memc");
BENCHMARK_CAPTURE(BM_Dataflow, post, "post");

/** The cached gate: what every runner entry point actually pays. */
void
BM_GateAndProve(benchmark::State &state)
{
    auto svc = svc::buildService("post");
    for (auto _ : state) {
        auto ca = analysis::gateAndProve(svc->program());
        benchmark::DoNotOptimize(ca);
    }
}
BENCHMARK(BM_GateAndProve);

/** Lockstep replay with the cross-check decorator attached. */
void
BM_CheckedReplay(benchmark::State &state)
{
    auto svc = svc::buildService("memc");
    auto report = analysis::analyze(svc->program());
    uint64_t ops = 0;
    for (auto _ : state) {
        auto reqs = genRequests(*svc, 128, 1);
        batch::BatchingServer server(batch::Policy::PerApiArgSize, 32);
        simt::LockstepEngine engine(
            svc->program(), simt::ReconvPolicy::StackIpdom, 32,
            makeBatchProvider(*svc, server.formBatches(reqs)));
        analysis::CheckedStream checked(engine, report);
        trace::DynOp op;
        while (checked.next(op))
            ++ops;
    }
    state.SetItemsProcessed(static_cast<int64_t>(ops));
}
BENCHMARK(BM_CheckedReplay);

} // namespace

BENCHMARK_MAIN();
