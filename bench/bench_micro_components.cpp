/**
 * @file
 * google-benchmark microbenchmarks over the simulator's hot paths: the
 * per-thread interpreter, the two lockstep reconvergence engines, the
 * cache model and the MCU. These guard the simulation throughput that
 * makes the full reproduction suite runnable on a laptop.
 */

#include <benchmark/benchmark.h>

#include "mem/cache.h"
#include "mem/coalescer.h"
#include "simr/cachestudy.h"
#include "simr/runner.h"

using namespace simr;

namespace
{

void
BM_Interpreter(benchmark::State &state)
{
    auto svc = svc::buildService("memc");
    auto reqs = genRequests(*svc, 64, 1);
    mem::HeapAllocator alloc(mem::AllocPolicy::GlibcLike);
    trace::ThreadState thread(svc->program());
    uint64_t insts = 0;
    for (auto _ : state) {
        for (const auto &r : reqs) {
            thread.reset(svc::makeThreadInit(*svc, r, 0, 0, alloc));
            trace::StepResult sr;
            while (!thread.done())
                thread.step(sr);
            insts += thread.dynCount();
        }
    }
    state.SetItemsProcessed(static_cast<int64_t>(insts));
}
BENCHMARK(BM_Interpreter);

/**
 * The lockstep cells: post (divergent under naive batching), 256
 * requests 32 wide. Arg 0 picks stack-IPDOM (0) or MinSP-PC (1), arg 1
 * per-API+arg (0) or naive (1) batching.
 */
struct LockstepCell
{
    std::unique_ptr<svc::Service> service = svc::buildService("post");
    simt::ReconvPolicy reconv;
    std::vector<batch::Batch> batches;

    explicit LockstepCell(const benchmark::State &state)
        : reconv(state.range(0) == 0 ? simt::ReconvPolicy::StackIpdom
                                     : simt::ReconvPolicy::MinSpPc)
    {
        batch::BatchingServer server(state.range(1) == 0
                                         ? batch::Policy::PerApiArgSize
                                         : batch::Policy::Naive,
                                     32);
        batches = server.formBatches(genRequests(*service, 256, 1));
    }

    simt::LockstepEngine::BatchProvider
    provider() const
    {
        return makeBatchProvider(*service, batches);
    }
};

void
BM_Lockstep(benchmark::State &state)
{
    const LockstepCell cell(state);
    uint64_t ops = 0;
    for (auto _ : state) {
        simt::LockstepEngine engine(cell.service->program(), cell.reconv, 32,
                                    cell.provider());
        trace::DynOp op;
        while (engine.next(op))
            ++ops;
    }
    state.SetItemsProcessed(static_cast<int64_t>(ops));
}
BENCHMARK(BM_Lockstep)->Args({0, 0})->Args({1, 0})->Args({1, 1});

/**
 * BM_Lockstep's interpretation alone: the same lanes step through the
 * active masks a first engine pass issued, with no scheduler choosing
 * them. BM_Lockstep minus this, per batch op, is the scheduler's cost.
 */
void
BM_LockstepLanesOnly(benchmark::State &state)
{
    const LockstepCell cell(state);
    std::vector<std::vector<trace::ThreadInit>> inits;
    auto inner = cell.provider();
    simt::LockstepEngine engine(
        cell.service->program(), cell.reconv, 32,
        [&](std::vector<trace::ThreadInit> &out) {
            const int n = inner(out);
            if (n > 0)
                inits.push_back(out);
            return n;
        });
    std::vector<trace::Mask> masks;
    std::vector<bool> starts;
    trace::DynOp op;
    while (engine.next(op)) {
        masks.push_back(op.mask);
        starts.push_back(op.batchStart);
    }

    const trace::ProgramIndex pi(cell.service->program());
    std::vector<std::unique_ptr<trace::LaneExec>> lanes;
    for (int i = 0; i < 32; ++i)
        lanes.push_back(std::make_unique<trace::LaneExec>(pi, nullptr));
    uint64_t ops = 0;
    for (auto _ : state) {
        size_t batch = 0;
        trace::StepResult r;
        for (size_t i = 0; i < masks.size(); ++i) {
            if (starts[i]) {
                const auto &b = inits[batch++];
                for (size_t l = 0; l < b.size(); ++l)
                    lanes[l]->reset(b[l]);
            }
            for (trace::Mask m = masks[i]; m; m &= m - 1)
                lanes[static_cast<size_t>(__builtin_ctz(m))]->step(r);
        }
        benchmark::DoNotOptimize(r);
        ops += masks.size();
    }
    state.SetItemsProcessed(static_cast<int64_t>(ops));
}
BENCHMARK(BM_LockstepLanesOnly)->Args({0, 0})->Args({1, 0})->Args({1, 1});

void
BM_CacheAccess(benchmark::State &state)
{
    mem::CacheConfig cfg;
    cfg.sizeBytes = 256 * 1024;
    cfg.assoc = 8;
    cfg.banks = 8;
    mem::Cache cache(cfg);
    uint64_t x = 12345, n = 0;
    for (auto _ : state) {
        x = mix64(x);
        benchmark::DoNotOptimize(cache.access(x % (1 << 22), (x & 4) != 0));
        ++n;
    }
    state.SetItemsProcessed(static_cast<int64_t>(n));
}
BENCHMARK(BM_CacheAccess);

void
BM_McuCoalesce(benchmark::State &state)
{
    mem::AddressMap map(true, 32);
    mem::Mcu mcu(map);
    isa::StaticInst si;
    si.op = isa::Op::Load;
    trace::DynOp op;
    op.si = &si;
    op.mask = 0xffffffff;
    op.accessSize = 8;
    op.addrCount = 32;
    for (int i = 0; i < 32; ++i) {
        op.lane[i] = static_cast<uint8_t>(i);
        op.addr[i] = mem::AddressSpace::stackTop(static_cast<uint64_t>(i))
            - 64;
    }
    std::vector<mem::MemAccess> out;
    uint64_t n = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mcu.coalesce(op, out));
        ++n;
    }
    state.SetItemsProcessed(static_cast<int64_t>(n));
}
BENCHMARK(BM_McuCoalesce);

void
BM_TimingCore(benchmark::State &state)
{
    auto svc = svc::buildService("urlshort");
    TimingOptions opt;
    opt.requests = 64;
    uint64_t cycles = 0;
    for (auto _ : state) {
        auto run = runTiming(*svc, core::makeRpuConfig(), opt);
        cycles += run.core.cycles;
    }
    state.SetItemsProcessed(static_cast<int64_t>(cycles));
}
BENCHMARK(BM_TimingCore);

} // namespace

BENCHMARK_MAIN();
