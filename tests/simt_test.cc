/**
 * @file
 * Tests for the lockstep SIMT engines: the Fig. 7 divergence example,
 * reconvergence correctness for both policies, efficiency accounting,
 * the MinSP-PC spin-escape rule, and the strongest property we have --
 * lockstep execution must retire exactly the same per-thread
 * instruction stream as solo execution, for every service and both
 * reconvergence schemes.
 */

#include <gtest/gtest.h>

#include "isa/builder.h"
#include "services/basic_service.h"
#include "services/service.h"
#include "simr/runner.h"
#include "simt/lockstep.h"

#include "lane_projection.h"

using namespace simr;
using namespace simr::isa;
using simt::LockstepEngine;
using simt::ReconvPolicy;
using trace::DynOp;
using trace::ThreadInit;

namespace
{

/** Engine over one batch of explicit thread contexts. */
LockstepEngine::BatchProvider
oneBatch(std::vector<ThreadInit> inits)
{
    auto state = std::make_shared<std::vector<ThreadInit>>(
        std::move(inits));
    auto used = std::make_shared<bool>(false);
    return [state, used](std::vector<ThreadInit> &out) -> int {
        if (*used)
            return 0;
        *used = true;
        out = *state;
        return static_cast<int>(out.size());
    };
}

/** The Fig. 7 shape: if (x > 0) BBB else BBC; BBD. */
Program
fig7Program()
{
    ProgramBuilder b("fig7");
    b.beginFunction("main");
    b.nop();  // BBA
    b.ifImm(R_KEY, Cmp::Lt, 2,
            [&] { b.nop(); b.nop(); });  // BBB for keys 0,1
    b.nop();  // BBD
    b.ret();
    b.endFunction();
    return b.finish();
}

uint64_t
drain(LockstepEngine &e, std::vector<DynOp> *ops = nullptr)
{
    DynOp op;
    uint64_t n = 0;
    while (e.next(op)) {
        ++n;
        if (ops)
            ops->push_back(op);
    }
    return n;
}

} // namespace

TEST(Lockstep, UniformBatchFullMask)
{
    Program p = fig7Program();
    std::vector<ThreadInit> inits(4);
    for (int i = 0; i < 4; ++i) {
        inits[static_cast<size_t>(i)].key = 0;  // all take the branch
        inits[static_cast<size_t>(i)].tid = i;
    }
    LockstepEngine e(p, ReconvPolicy::MinSpPc, 4, oneBatch(inits));
    std::vector<DynOp> ops;
    drain(e, &ops);
    for (const auto &op : ops)
        EXPECT_EQ(op.mask, 0xfu) << "uniform batch must stay converged";
    EXPECT_DOUBLE_EQ(e.stats().efficiency(), 1.0);
}

class LockstepPolicyTest
    : public ::testing::TestWithParam<ReconvPolicy>
{
};

TEST_P(LockstepPolicyTest, Fig7DivergenceAndReconvergence)
{
    Program p = fig7Program();
    // Keys 0,1 take the if-arm; keys 2,3 skip it (divergent 2+2).
    std::vector<ThreadInit> inits(4);
    for (int i = 0; i < 4; ++i) {
        inits[static_cast<size_t>(i)].key = i;
        inits[static_cast<size_t>(i)].tid = i;
        inits[static_cast<size_t>(i)].reqId = i;
    }
    LockstepEngine e(p, GetParam(), 4, oneBatch(inits));
    std::vector<DynOp> ops;
    drain(e, &ops);

    // The branch diverged exactly once.
    EXPECT_EQ(e.stats().divergeEvents, 1u);

    // The two nops of the if-arm execute with a half mask.
    int partial = 0;
    for (const auto &op : ops)
        if (op.mask != 0xfu)
            ++partial;
    EXPECT_GE(partial, 2);

    // The final nop + ret execute reconverged with the full mask.
    ASSERT_GE(ops.size(), 2u);
    EXPECT_EQ(ops.back().mask, 0xfu) << "must reconverge before ret";
    EXPECT_EQ(ops.back().endMask, 0xfu);

    // Every thread retires its own stream. Not-taken path: nop, movImm,
    // branch, nop, ret = 5 ops; taken adds 2 nops + the arm's jump.
    EXPECT_EQ(e.stats().scalarOps, 4u * 5u + 2u * 3u);
    EXPECT_EQ(e.requestsCompleted(), 4u);
}

INSTANTIATE_TEST_SUITE_P(BothPolicies, LockstepPolicyTest,
                         ::testing::Values(ReconvPolicy::StackIpdom,
                                           ReconvPolicy::MinSpPc));

TEST(Lockstep, EfficiencyHalvedByDisjointPaths)
{
    // Two APIs with identical long bodies: a 50/50 mixed batch can at
    // best achieve ~50% efficiency.
    ProgramBuilder b("t");
    b.beginFunction("main");
    b.apiSwitch({
        [&] { for (int i = 0; i < 40; ++i) b.nop(); },
        [&] { for (int i = 0; i < 40; ++i) b.nop(); },
    });
    b.ret();
    b.endFunction();
    Program p = b.finish();

    std::vector<ThreadInit> inits(8);
    for (int i = 0; i < 8; ++i) {
        inits[static_cast<size_t>(i)].api = i % 2;
        inits[static_cast<size_t>(i)].tid = i;
        inits[static_cast<size_t>(i)].reqId = i;
    }
    LockstepEngine e(p, ReconvPolicy::MinSpPc, 8, oneBatch(inits));
    drain(e);
    EXPECT_LT(e.stats().efficiency(), 0.62);
    EXPECT_GT(e.stats().efficiency(), 0.40);
}

TEST(Lockstep, DivergentLoopTripsReconverge)
{
    // Threads loop argLen times; all must finish and efficiency must
    // reflect the masked tail iterations.
    ProgramBuilder b("t");
    b.beginFunction("main");
    b.forLoop(R_T0, R_ARGLEN, [&] { b.nop(); b.nop(); });
    b.movImm(R_T1, 7);
    b.ret();
    b.endFunction();
    Program p = b.finish();

    std::vector<ThreadInit> inits(4);
    for (int i = 0; i < 4; ++i) {
        inits[static_cast<size_t>(i)].argLen = 1 + 3 * i;  // 1,4,7,10
        inits[static_cast<size_t>(i)].tid = i;
        inits[static_cast<size_t>(i)].reqId = i;
    }
    LockstepEngine e(p, ReconvPolicy::MinSpPc, 4, oneBatch(inits));
    std::vector<DynOp> ops;
    drain(e, &ops);
    EXPECT_EQ(e.requestsCompleted(), 4u);
    EXPECT_EQ(ops.back().mask, 0xfu) << "post-loop code reconverges";
    EXPECT_LT(e.stats().efficiency(), 1.0);
}

TEST(Lockstep, PartialBatchWidthAccounting)
{
    Program p = fig7Program();
    std::vector<ThreadInit> inits(3);  // batch of 3 in a width-8 engine
    for (int i = 0; i < 3; ++i) {
        inits[static_cast<size_t>(i)].key = 5;
        inits[static_cast<size_t>(i)].tid = i;
    }
    LockstepEngine e(p, ReconvPolicy::MinSpPc, 8, oneBatch(inits));
    drain(e);
    // 3 of 8 lanes active on every op.
    EXPECT_NEAR(e.stats().efficiency(), 3.0 / 8.0, 1e-9);
}

TEST(Lockstep, SoloEquivalenceToyProgram)
{
    Program p = fig7Program();

    // Solo execution per thread.
    uint64_t solo_total = 0;
    for (int i = 0; i < 4; ++i) {
        trace::ThreadState t(p);
        ThreadInit init;
        init.key = i;
        init.reqId = i;
        t.reset(init);
        trace::StepResult r;
        while (!t.done())
            t.step(r);
        solo_total += t.dynCount();
    }

    for (auto policy : {ReconvPolicy::StackIpdom, ReconvPolicy::MinSpPc}) {
        std::vector<ThreadInit> inits(4);
        for (int i = 0; i < 4; ++i) {
            inits[static_cast<size_t>(i)].key = i;
            inits[static_cast<size_t>(i)].tid = i;
            inits[static_cast<size_t>(i)].reqId = i;
        }
        LockstepEngine e(p, policy, 4, oneBatch(inits));
        drain(e);
        EXPECT_EQ(e.stats().scalarOps, solo_total)
            << "lockstep must retire exactly the solo streams";
    }
}

/**
 * The heavyweight equivalence property, parameterized over every
 * microservice and both reconvergence policies: each lane's projection
 * of the lockstep stream (instruction, PC, taken bit, address, call
 * depth per op) is exactly its request's solo run, and every request
 * completes.
 */
class ServiceEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, ReconvPolicy>>
{
};

TEST_P(ServiceEquivalenceTest, LockstepMatchesSolo)
{
    const auto &[name, policy] = GetParam();
    auto svc = svc::buildService(name);
    ASSERT_NE(svc, nullptr);
    const int n = 96;

    auto reqs = genRequests(*svc, n, 7);
    mem::HeapAllocator alloc(mem::AllocPolicy::SimrAware);

    // Form the batches first so the solo runs use exactly the same
    // request-to-lane assignment as makeBatchProvider (addresses
    // depend on the lane slot, and some services branch on loaded,
    // address-derived values).
    batch::BatchingServer server(batch::Policy::PerApiArgSize, 32);
    auto batches = server.formBatches(reqs);

    LockstepEngine e(svc->program(), policy, 32,
                     makeBatchProvider(*svc, batches));
    uint64_t solo_total = 0;
    size_t checked = 0;
    projection::projectLanes(
        e, 32, [&](size_t bi, const std::vector<projection::LaneSteps> &got) {
            ASSERT_LT(bi, batches.size());
            const auto &b = batches[bi];
            for (size_t lane = 0; lane < got.size(); ++lane) {
                if (lane >= b.requests.size()) {
                    EXPECT_TRUE(got[lane].empty()) << "idle lane " << lane;
                    continue;
                }
                auto want = projection::soloSteps(
                    svc->program(),
                    svc::makeThreadInit(*svc, b.requests[lane],
                                        static_cast<int>(lane), lane,
                                        alloc));
                solo_total += want.size();
                EXPECT_TRUE(projection::sameSteps(got[lane], want))
                    << "batch " << bi << " lane " << lane;
            }
            ++checked;
        });

    EXPECT_EQ(checked, batches.size());
    EXPECT_EQ(e.requestsCompleted(), static_cast<uint64_t>(n));
    EXPECT_EQ(e.stats().scalarOps, solo_total)
        << "lockstep must retire exactly the solo per-thread streams";
}

INSTANTIATE_TEST_SUITE_P(
    AllServices, ServiceEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(svc::serviceNames()),
                       ::testing::Values(ReconvPolicy::StackIpdom,
                                         ReconvPolicy::MinSpPc)),
    [](const auto &info) {
        std::string n = std::get<0>(info.param);
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n + (std::get<1>(info.param) == ReconvPolicy::StackIpdom ?
                    "_stack" : "_minsp");
    });

TEST(Lockstep, BatchBoundaryAndBatchStart)
{
    Program p = fig7Program();
    auto svc_like = [&](int batches_wanted) {
        auto count = std::make_shared<int>(0);
        int total = batches_wanted;
        return [count, total](std::vector<ThreadInit> &out) -> int {
            if (*count >= total)
                return 0;
            ++*count;
            out.assign(2, ThreadInit());
            out[0].tid = 0;
            out[1].tid = 1;
            out[0].reqId = *count * 2;
            out[1].reqId = *count * 2 + 1;
            return 2;
        };
    };
    LockstepEngine e(p, ReconvPolicy::MinSpPc, 2, svc_like(3));
    DynOp op;
    int starts = 0;
    while (e.next(op))
        starts += op.batchStart ? 1 : 0;
    EXPECT_EQ(starts, 3);
    EXPECT_EQ(e.stats().batches, 3u);
    EXPECT_EQ(e.requestsCompleted(), 6u);
}

TEST(Lockstep, MajorityOutcomeInTakenMask)
{
    ProgramBuilder b("t");
    b.beginFunction("main");
    b.ifImm(R_KEY, Cmp::Lt, 3, [&] { b.nop(); });
    b.ret();
    b.endFunction();
    Program p = b.finish();

    std::vector<ThreadInit> inits(4);
    for (int i = 0; i < 4; ++i) {
        inits[static_cast<size_t>(i)].key = i;  // 3 take, 1 doesn't
        inits[static_cast<size_t>(i)].tid = i;
    }
    LockstepEngine e(p, ReconvPolicy::MinSpPc, 4, oneBatch(inits));
    DynOp op;
    bool saw_branch = false;
    while (e.next(op)) {
        if (op.isBranch() && op.takenMask != 0 &&
            op.takenMask != op.mask) {
            saw_branch = true;
            EXPECT_EQ(trace::popcount(op.takenMask), 3);
        }
    }
    EXPECT_TRUE(saw_branch);
}

namespace
{

/**
 * Lane 0 (api 0) spins on an atomic retry loop; lanes 1-3 (api 1) have
 * a short body laid out above the loop, so MinSP-PC parks them until
 * the spinner leaves it -- unless the spin-escape rule boosts them.
 */
Program
spinProgram()
{
    ProgramBuilder b("spin");
    b.beginFunction("main");
    b.apiSwitch({
        [&] {
            b.forLoopImm(R_T0, R_T1, 200,
                         [&] { b.atomic(R_T2, R_SHARED, 0); });
        },
        [&] { b.nop(8); },
    });
    b.ret();
    b.endFunction();
    return b.finish();
}

/** Records every op and every spin escape the engine reports. */
struct SpinRecorder : simt::LockstepObserver
{
    struct Escape
    {
        int lane;
        Pc pc;
        uint64_t opIdx;
    };
    std::vector<Escape> escapes;
    std::vector<DynOp> ops;   ///< ops[i] was issued as op i + 1

    void
    onOp(const DynOp &op, int, uint64_t) override
    {
        ops.push_back(op);
    }

    void
    onSpinEscape(int lane, Pc pc, uint64_t opIdx) override
    {
        escapes.push_back({lane, pc, opIdx});
    }
};

/** Run spinProgram() as one 4-wide MinSP-PC batch under `spin`. */
simt::SimtStats
runSpin(const Program &p, simt::SpinEscapeConfig spin, SpinRecorder *rec)
{
    std::vector<ThreadInit> inits(4);
    for (int i = 0; i < 4; ++i) {
        inits[static_cast<size_t>(i)].api = i == 0 ? 0 : 1;
        inits[static_cast<size_t>(i)].tid = i;
        inits[static_cast<size_t>(i)].reqId = i;
    }
    LockstepEngine e(p, ReconvPolicy::MinSpPc, 4, oneBatch(inits), spin);
    e.setObserver(rec);
    drain(e);
    EXPECT_EQ(e.requestsCompleted(), 4u);
    return e.stats();
}

} // namespace

TEST(Lockstep, SpinEscapeBoostsAParkedLane)
{
    const Program p = spinProgram();
    const simt::SpinEscapeConfig spin;
    SpinRecorder rec;
    const simt::SimtStats s = runSpin(p, spin, &rec);

    ASSERT_GE(s.spinEscapes, 1u);
    ASSERT_EQ(rec.escapes.size(), s.spinEscapes);
    const SpinRecorder::Escape &esc = rec.escapes.front();
    EXPECT_EQ(esc.lane, 1) << "the lowest parked lane is boosted";
    EXPECT_GE(esc.opIdx, spin.stagnationSteps);

    // The boost runs the lane from the PC it was reported parked at,
    // and keeps it running until it retires inside the boost window.
    ASSERT_LT(esc.opIdx, rec.ops.size());
    EXPECT_EQ(rec.ops[esc.opIdx].pc, esc.pc);
    size_t i = esc.opIdx;
    for (; i < rec.ops.size(); ++i) {
        EXPECT_TRUE(rec.ops[i].mask & (1u << esc.lane))
            << "boosted lane idle at op " << i + 1;
        if (rec.ops[i].endMask & (1u << esc.lane))
            break;
    }
    ASSERT_LT(i, rec.ops.size()) << "boosted lane never retired";
    EXPECT_LT(i - esc.opIdx, spin.boostSteps);
    EXPECT_EQ(rec.ops[i].mask & 1u, 0u)
        << "the spinner stays parked while the boosted path runs";
}

TEST(Lockstep, SpinEscapeDisabled)
{
    simt::SpinEscapeConfig spin;
    spin.enabled = false;
    SpinRecorder rec;
    EXPECT_EQ(runSpin(spinProgram(), spin, &rec).spinEscapes, 0u);
    EXPECT_TRUE(rec.escapes.empty());
}

TEST(Lockstep, SpinEscapeWithoutBoostCountsEveryQualifyingLane)
{
    // boostSteps = 0: no lane is prioritized, but every lane over the
    // stagnation bound resets and counts in the same step.
    simt::SpinEscapeConfig spin;
    spin.boostSteps = 0;
    SpinRecorder rec;
    const simt::SimtStats s = runSpin(spinProgram(), spin, &rec);

    ASSERT_GE(rec.escapes.size(), 3u);
    EXPECT_EQ(rec.escapes.size(), s.spinEscapes);
    EXPECT_EQ(rec.escapes.size() % 3, 0u)
        << "the three parked lanes always qualify together";
    for (int k = 0; k < 3; ++k) {
        EXPECT_EQ(rec.escapes[static_cast<size_t>(k)].lane, k + 1);
        EXPECT_EQ(rec.escapes[static_cast<size_t>(k)].opIdx,
                  rec.escapes[0].opIdx);
    }
    ASSERT_LT(rec.escapes[0].opIdx, rec.ops.size());
    EXPECT_EQ(rec.ops[rec.escapes[0].opIdx].mask, 1u)
        << "without a boost the spinner keeps running";
}

TEST(SimtStats, AccumulateAdoptsWidthOnlyWhenEmpty)
{
    // An empty (default) accumulator adopts the width of the first
    // stats merged in, so efficiency() over a sweep of 8-wide engines
    // does not silently divide by the 32-wide default.
    simt::SimtStats eight;
    eight.width = 8;
    eight.batches = 3;
    eight.batchOps = 100;
    eight.scalarOps = 640;

    simt::SimtStats acc;
    acc += eight;
    EXPECT_EQ(acc.width, 8);
    EXPECT_EQ(acc.batches, 3u);
    EXPECT_EQ(acc.batchOps, 100u);

    // A populated accumulator keeps its own width even when merging
    // stats of a different (or default) width.
    simt::SimtStats other;
    other.width = 32;
    other.batches = 1;
    other.batchOps = 10;
    acc += other;
    EXPECT_EQ(acc.width, 8);
    EXPECT_EQ(acc.batches, 4u);
    EXPECT_EQ(acc.batchOps, 110u);
}

TEST(SimtStats, AccumulateEmptyCases)
{
    // empty += empty: still "empty", width stays usable (the default).
    simt::SimtStats a, b;
    a += b;
    EXPECT_EQ(a.width, 32);
    EXPECT_EQ(a.batches, 0u);
    EXPECT_DOUBLE_EQ(a.efficiency(), 1.0);

    // populated += empty: nothing changes, width kept.
    simt::SimtStats pop;
    pop.width = 8;
    pop.batches = 2;
    pop.batchOps = 16;
    pop.scalarOps = 128;
    simt::SimtStats empty;
    pop += empty;
    EXPECT_EQ(pop.width, 8);
    EXPECT_EQ(pop.batches, 2u);
    EXPECT_DOUBLE_EQ(pop.efficiency(), 1.0);
}
