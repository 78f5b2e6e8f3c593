/**
 * @file
 * Per-lane projections of lockstep streams, for the tests that check
 * lockstep execution against solo execution: each lane's share of the
 * batch ops (instruction, PC, taken bit, address, call depth) must be
 * exactly what the same request reports when a ThreadState runs it
 * alone.
 */

#ifndef SIMR_TESTS_LANE_PROJECTION_H
#define SIMR_TESTS_LANE_PROJECTION_H

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "trace/dynop.h"
#include "trace/interp.h"

namespace simr::projection
{

/** One instruction as one request thread executed it. */
struct LaneStep
{
    const isa::StaticInst *si = nullptr;
    isa::Pc pc = 0;
    bool taken = false;
    uint64_t addr = 0;
    uint8_t callDepth = 0;

    bool operator==(const LaneStep &) const = default;
};

using LaneSteps = std::vector<LaneStep>;

/** Run `init` alone through `prog`, one LaneStep per instruction. */
inline LaneSteps
soloSteps(const isa::Program &prog, const trace::ThreadInit &init)
{
    trace::ThreadState t(prog);
    t.reset(init);
    trace::StepResult r;
    LaneSteps out;
    while (!t.done()) {
        t.step(r);
        out.push_back({r.si, r.pc, r.taken, r.addr, r.callDepth});
    }
    return out;
}

/**
 * Drain `s` (batches of up to `width` lanes) and hand each finished
 * batch's per-lane projections to `onBatch`, with the batch's index.
 * A memory op must list its lanes' addresses in ascending lane order,
 * one per active lane.
 */
inline void
projectLanes(trace::DynStream &s, int width,
             const std::function<void(size_t,
                                      const std::vector<LaneSteps> &)>
                 &onBatch)
{
    std::vector<LaneSteps> lanes;
    size_t batch = 0;
    bool open = false;
    trace::DynOp op;
    while (s.next(op)) {
        if (op.batchStart) {
            if (open)
                onBatch(batch++, lanes);
            lanes.assign(static_cast<size_t>(width), {});
            open = true;
        }
        ASSERT_TRUE(open) << "stream did not start with a batch";
        uint8_t a = 0;
        for (trace::Mask m = op.mask; m != 0; m &= m - 1) {
            const int l = __builtin_ctz(m);
            LaneStep st{op.si, op.pc, ((op.takenMask >> l) & 1) != 0, 0,
                        op.callDepth};
            if (op.isMem()) {
                ASSERT_LT(a, op.addrCount) << "pc 0x" << std::hex << op.pc;
                ASSERT_EQ(op.lane[a], l) << "pc 0x" << std::hex << op.pc;
                st.addr = op.addr[a++];
            }
            lanes[static_cast<size_t>(l)].push_back(st);
        }
        ASSERT_EQ(op.addrCount, a) << "pc 0x" << std::hex << op.pc;
    }
    if (open)
        onBatch(batch, lanes);
}

/** Whether two lane streams are equal, naming the first difference. */
inline ::testing::AssertionResult
sameSteps(const LaneSteps &got, const LaneSteps &want)
{
    const size_t n = std::min(got.size(), want.size());
    for (size_t i = 0; i < n; ++i) {
        const LaneStep &g = got[i];
        const LaneStep &w = want[i];
        if (g == w)
            continue;
        return ::testing::AssertionFailure()
            << "op " << i << ": pc 0x" << std::hex << g.pc << " vs 0x"
            << w.pc << ", addr 0x" << g.addr << " vs 0x" << w.addr
            << std::dec << ", taken " << g.taken << " vs " << w.taken
            << ", depth " << int{g.callDepth} << " vs "
            << int{w.callDepth};
    }
    if (got.size() != want.size()) {
        return ::testing::AssertionFailure()
            << got.size() << " ops vs " << want.size();
    }
    return ::testing::AssertionSuccess();
}

} // namespace simr::projection

#endif // SIMR_TESTS_LANE_PROJECTION_H
