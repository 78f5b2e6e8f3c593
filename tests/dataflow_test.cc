/**
 * @file
 * Tests for the static dataflow framework: the generic worklist solver
 * (forward and backward), the three client analyses on adversarial
 * builder programs (identity-dependent branch, frame-escaping pointer,
 * scattered gather, control-dependent loop bound), the StaticProof
 * packaging, the fingerprint-keyed analysis cache, the capture fast
 * path's bit-identity, and the deterministic (func, pc)-sorted JSON
 * rendering the CLI golden output relies on.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/cache.h"
#include "analysis/cfg.h"
#include "analysis/dataflow.h"
#include "isa/builder.h"
#include "mem/allocator.h"
#include "services/service.h"
#include "simr/runner.h"
#include "trace/capture.h"
#include "trace/interp.h"

namespace simr
{
namespace
{

using analysis::DataflowInfo;
using analysis::Direction;
using analysis::FlowGraph;
using analysis::MemClass;
using analysis::Report;
using analysis::Uniformity;
using isa::AluKind;
using isa::Cmp;
using isa::Op;

// ---------------------------------------------------------------------------
// Generic solver: a tiny path-accumulation lattice over a diamond.
// States are bitmasks; bit 0 is the boundary token and bit (n + 1)
// records that node n's transfer ran on some path reaching the state.
// ---------------------------------------------------------------------------

struct MaskLattice
{
    using State = uint32_t;
    State bottom() const { return 0; }
    State boundary(int) const { return 1; }
    bool join(State &into, const State &from)
    {
        State n = into | from;
        if (n == into)
            return false;
        into = n;
        return true;
    }
    State transfer(int node, const State &in)
    {
        return in | (1u << (node + 1));
    }
};

FlowGraph
diamondGraph()
{
    // 0 -> {1, 2} -> 3
    FlowGraph g;
    g.numNodes = 4;
    g.succs = {{1, 2}, {3}, {3}, {}};
    g.preds = {{}, {0}, {0}, {1, 2}};
    return g;
}

TEST(DataflowSolver, ForwardJoinsOverPredecessors)
{
    FlowGraph g = diamondGraph();
    g.entries = {0};
    MaskLattice lat;
    auto in = analysis::solveDataflow(g, lat, Direction::Forward);
    EXPECT_EQ(in[0], 0b0001u);                // boundary only
    EXPECT_EQ(in[1], 0b0011u);                // through node 0
    EXPECT_EQ(in[2], 0b0011u);
    EXPECT_EQ(in[3], 0b1111u);                // both arms joined
}

TEST(DataflowSolver, BackwardJoinsOverSuccessors)
{
    // The same diamond solved backward from the exit: the "meet-in"
    // state of a node is now what holds on exit, flowing to preds.
    FlowGraph g = diamondGraph();
    g.entries = {3};
    MaskLattice lat;
    auto in = analysis::solveDataflow(g, lat, Direction::Backward);
    EXPECT_EQ(in[3], 0b00001u);
    EXPECT_EQ(in[1], 0b10001u);               // through node 3
    EXPECT_EQ(in[2], 0b10001u);
    EXPECT_EQ(in[0], 0b11101u);               // both arms joined
}

TEST(DataflowSolver, UnreachableNodeStaysBottom)
{
    FlowGraph g;
    g.numNodes = 3;
    g.succs = {{1}, {}, {1}};                 // 2 reaches 1, nothing reaches 2
    g.preds = {{}, {0, 2}, {}};
    g.entries = {0};
    MaskLattice lat;
    auto in = analysis::solveDataflow(g, lat, Direction::Forward);
    EXPECT_EQ(in[2], 0u);
    EXPECT_EQ(in[1], 0b011u);                 // only node 0 contributed
}

// ---------------------------------------------------------------------------
// Client analyses on adversarial builder programs.
// ---------------------------------------------------------------------------

Report
analyzeBuilt(isa::ProgramBuilder &b)
{
    isa::Program p = b.finish();
    Report r = analysis::analyze(p);
    EXPECT_TRUE(r.ok()) << r.json();
    EXPECT_TRUE(r.dataflow.ran);
    return r;
}

TEST(DataflowClients, IdentityDependentBranchIsTierThreeMayDiverge)
{
    isa::ProgramBuilder b("adv-id-branch");
    b.beginFunction("main");
    b.ifImm(isa::R_REQID, Cmp::Eq, 0, [&] { b.nop(); });
    b.ret();
    b.endFunction();
    Report r = analyzeBuilt(b);

    const DataflowInfo &df = r.dataflow;
    EXPECT_EQ(df.tierBound, 3);
    EXPECT_TRUE(df.mayIdDep);
    EXPECT_FALSE(df.allUniformPerBatch);
    ASSERT_EQ(df.branches.size(), 1u);
    EXPECT_EQ(df.branches[0].uniformity, Uniformity::MayDiverge);
    EXPECT_TRUE(df.branches[0].mayId);
}

TEST(DataflowClients, FrameEscapingPointerIsTierTwoScattered)
{
    // Hashing the stack pointer destroys the linear-coefficient
    // tracking: the address depends nonlinearly on frame placement, so
    // no relocation kind exists and the access is scattered.
    isa::ProgramBuilder b("adv-frame-escape");
    b.beginFunction("main");
    b.hash(isa::R_T0, isa::R_SP);
    b.load(isa::R_T1, isa::R_T0);
    b.ret();
    b.endFunction();
    Report r = analyzeBuilt(b);

    const DataflowInfo &df = r.dataflow;
    EXPECT_EQ(df.tierBound, 2);
    EXPECT_FALSE(df.mayIdDep);
    EXPECT_TRUE(df.mayFrameDep);
    ASSERT_EQ(df.mems.size(), 1u);
    EXPECT_EQ(df.mems[0].cls, MemClass::Scattered);
    EXPECT_EQ(df.mems[0].addrKind, -1);       // no exact kind exists
    EXPECT_TRUE(df.mems[0].mayFrame);
}

TEST(DataflowClients, ScatteredGatherStaysTierOne)
{
    // A key-indexed gather off the private heap: per-lane addressing
    // (scattered within a batch) but still exactly heap-relative on
    // every path, so the taint tier bound stays 1 and the capture fast
    // path remains admissible.
    isa::ProgramBuilder b("adv-gather");
    b.beginFunction("main");
    b.alu(AluKind::AndImm, isa::R_T0, isa::R_KEY, isa::R_ZERO, 0xff8);
    b.alu(AluKind::Add, isa::R_T1, isa::R_HEAP, isa::R_T0);
    b.load(isa::R_T2, isa::R_T1);
    b.ret();
    b.endFunction();
    Report r = analyzeBuilt(b);

    const DataflowInfo &df = r.dataflow;
    EXPECT_EQ(df.tierBound, 1);
    EXPECT_FALSE(df.mayIdDep);
    EXPECT_FALSE(df.mayFrameDep);
    ASSERT_EQ(df.mems.size(), 1u);
    EXPECT_EQ(df.mems[0].cls, MemClass::Scattered);
    EXPECT_EQ(df.mems[0].addrKind, 2);        // trace::AddrKind::HeapRel
    EXPECT_FALSE(df.mems[0].mayId);
    EXPECT_FALSE(df.mems[0].mayFrame);
}

TEST(DataflowClients, UniformSharedLoadAndImmLoopAreUniform)
{
    // The clean case: an absolute shared-segment load and a loop with
    // an immediate bound are uniform under any batch mix.
    isa::ProgramBuilder b("adv-clean");
    b.beginFunction("main");
    b.movImm(isa::R_T0, 0x20000000);
    b.forLoopImm(isa::R_T1, isa::R_T2, 4, [&] {
        b.load(isa::R_T3, isa::R_T0);
    });
    b.ret();
    b.endFunction();
    Report r = analyzeBuilt(b);

    const DataflowInfo &df = r.dataflow;
    EXPECT_EQ(df.tierBound, 1);
    EXPECT_TRUE(df.allUniformPerBatch);
    ASSERT_EQ(df.branches.size(), 1u);
    EXPECT_EQ(df.branches[0].uniformity, Uniformity::UniformAlways);
    ASSERT_EQ(df.mems.size(), 1u);
    EXPECT_EQ(df.mems[0].cls, MemClass::Uniform);
    EXPECT_EQ(df.mems[0].addrKind, 0);        // trace::AddrKind::Invariant
}

TEST(DataflowClients, ArgLenBranchIsUniformPerBatchOnly)
{
    isa::ProgramBuilder b("adv-arglen");
    b.beginFunction("main");
    b.ifImm(isa::R_ARGLEN, Cmp::Lt, 8, [&] { b.nop(); });
    b.ret();
    b.endFunction();
    Report r = analyzeBuilt(b);

    const DataflowInfo &df = r.dataflow;
    EXPECT_EQ(df.tierBound, 1);               // argLen is not identity/frame
    EXPECT_TRUE(df.allUniformPerBatch);
    ASSERT_EQ(df.branches.size(), 1u);
    EXPECT_EQ(df.branches[0].uniformity, Uniformity::UniformPerBatch);
}

TEST(DataflowClients, LoadedValueFromVaryingAddressIsLaneVarying)
{
    // Regression for the loaded-value soundness hole: the interpreter
    // has no mutable memory (a load returns mix64(addr ^ dataSeed)), so
    // a lane-varying *address* makes the loaded *value* lane-varying
    // even though the address is exactly absolute. A branch on that
    // value must be may-diverge — while the taint tier stays 1.
    isa::ProgramBuilder b("adv-loaded-value");
    b.beginFunction("main");
    b.alu(AluKind::AndImm, isa::R_T0, isa::R_KEY, isa::R_ZERO, 0xff8);
    b.alu(AluKind::Add, isa::R_T1, isa::R_SHARED, isa::R_T0);
    b.load(isa::R_T2, isa::R_T1);
    b.ifImm(isa::R_T2, Cmp::Lt, 5, [&] { b.nop(); });
    b.ret();
    b.endFunction();
    Report r = analyzeBuilt(b);

    const DataflowInfo &df = r.dataflow;
    EXPECT_EQ(df.tierBound, 1);
    ASSERT_EQ(df.branches.size(), 1u);
    EXPECT_EQ(df.branches[0].uniformity, Uniformity::MayDiverge);
    EXPECT_FALSE(df.branches[0].mayId);
    EXPECT_FALSE(df.branches[0].mayFrame);
}

TEST(DataflowClients, ControlDependentLoopBoundMayDiverge)
{
    // Regression for the control-dependence soundness hole: both arms
    // of a key-dependent if write a *constant* loop bound, but which
    // arm ran varies per lane, so the loop-header branch must still be
    // may-diverge after reconvergence.
    isa::ProgramBuilder b("adv-ctl-dep");
    b.beginFunction("main");
    b.hash(isa::R_T0, isa::R_KEY);
    b.alu(AluKind::ModImm, isa::R_T1, isa::R_T0, isa::R_ZERO, 16);
    b.ifElseImm(isa::R_T1, Cmp::Lt, 8,
                [&] { b.movImm(isa::R_T2, 2); },
                [&] { b.movImm(isa::R_T2, 1); });
    b.forLoop(isa::R_T3, isa::R_T2, [&] { b.nop(); });
    b.ret();
    b.endFunction();
    Report r = analyzeBuilt(b);

    const DataflowInfo &df = r.dataflow;
    EXPECT_EQ(df.tierBound, 1);               // key is neither id nor frame
    EXPECT_FALSE(df.allUniformPerBatch);
    ASSERT_EQ(df.branches.size(), 2u);
    for (const auto &bf : df.branches)
        EXPECT_EQ(bf.uniformity, Uniformity::MayDiverge)
            << "branch at pc 0x" << std::hex << bf.pc;
}

// ---------------------------------------------------------------------------
// StaticProof packaging and per-service invariants.
// ---------------------------------------------------------------------------

TEST(DataflowProof, TablesMirrorDataflowInfoForAllServices)
{
    for (const auto &name : svc::serviceNames()) {
        auto svc = svc::buildService(name);
        auto ca = analysis::analyzeAndProve(svc->program());
        ASSERT_TRUE(ca->report.ok()) << name;
        ASSERT_NE(ca->proof, nullptr) << name;
        const DataflowInfo &df = ca->report.dataflow;
        const trace::StaticProof &proof = *ca->proof;

        EXPECT_EQ(proof.taintTierBound, df.tierBound) << name;
        EXPECT_EQ(proof.fingerprint,
                  trace::ProgramIndex(svc->program()).fingerprint())
            << name;
        EXPECT_EQ(proof.memKind.size(),
                  svc->program().staticInstCount()) << name;
        for (const auto &m : df.mems)
            EXPECT_EQ(proof.memKind[m.flat],
                      m.addrKind >= 0 ? static_cast<uint8_t>(m.addrKind)
                                      : uint8_t{0})
                << name;
        for (const auto &bf : df.branches)
            EXPECT_EQ(proof.branchHint[bf.flat],
                      static_cast<uint8_t>(bf.uniformity)) << name;
        // Tier-1 programs must have an exact kind for every memory op
        // (that's what lets capture read kinds from the table).
        if (proof.tier1()) {
            for (const auto &m : df.mems)
                EXPECT_GE(m.addrKind, 0) << name;
        }
    }
}

TEST(DataflowProof, McrouterIsStaticallyTierOne)
{
    auto svc = svc::buildService("mcrouter");
    auto ca = analysis::analyzeAndProve(svc->program());
    ASSERT_NE(ca->proof, nullptr);
    EXPECT_TRUE(ca->proof->tier1());
    EXPECT_FALSE(ca->report.dataflow.mayIdDep);
    EXPECT_FALSE(ca->report.dataflow.mayFrameDep);
}

// ---------------------------------------------------------------------------
// Capture fast path: proof-driven capture is bit-identical to the
// dynamic taint walk.
// ---------------------------------------------------------------------------

TEST(DataflowCapture, StaticFastPathCaptureBitIdentical)
{
    auto svc = svc::buildService("mcrouter");
    auto ca = analysis::analyzeAndProve(svc->program());
    ASSERT_TRUE(ca->proof != nullptr && ca->proof->tier1());

    trace::ProgramIndex pi(svc->program());
    mem::HeapAllocator alloc(mem::AllocPolicy::SimrAware);
    auto reqs = genRequests(*svc, 8, 23);

    trace::CaptureBuilder dyn(pi);
    trace::CaptureBuilder fast(pi);
    fast.setStaticProof(ca->proof);

    for (size_t i = 0; i < reqs.size(); ++i) {
        auto init = svc::makeThreadInit(*svc, reqs[i], 0, i, alloc);
        trace::ThreadState ts(svc->program());
        dyn.reset(init);
        fast.reset(init);
        EXPECT_FALSE(dyn.staticFastPath());
        EXPECT_TRUE(fast.staticFastPath());
        ts.reset(init);
        trace::StepResult r;
        while (!ts.done()) {
            ts.step(r);
            dyn.onStep(r);
            fast.onStep(r);
        }
        auto a = dyn.finish();
        auto b = fast.finish();
        EXPECT_EQ(a->opCount(), b->opCount());
        EXPECT_EQ(a->identityDependent(), b->identityDependent());
        EXPECT_EQ(a->frameDependent(), b->frameDependent());
        EXPECT_EQ(a->staticIdx(), b->staticIdx());
        EXPECT_EQ(a->flags(), b->flags());
        EXPECT_EQ(a->memAddr(), b->memAddr());
        EXPECT_EQ(a->dep1(), b->dep1());
        EXPECT_EQ(a->dep2(), b->dep2());
        EXPECT_EQ(a->callDepth(), b->callDepth());
    }
}

// ---------------------------------------------------------------------------
// Analysis cache: fingerprint-keyed sharing.
// ---------------------------------------------------------------------------

TEST(DataflowCache, GateAndProveSharesByFingerprint)
{
    analysis::AnalysisCache *cache = analysis::AnalysisCache::process();
    auto svc = svc::buildService("memc");
    auto a1 = analysis::gateAndProve(svc->program());
    uint64_t hits0 = cache->hits();
    auto a2 = analysis::gateAndProve(svc->program());
    EXPECT_EQ(a1.get(), a2.get());            // shared, not re-analyzed
    EXPECT_GT(cache->hits(), hits0);

    // A different program is a different entry (fingerprint key).
    auto other = svc::buildService("post");
    auto a3 = analysis::gateAndProve(other->program());
    EXPECT_NE(a3.get(), a1.get());
    EXPECT_NE(a3->fingerprint, a1->fingerprint);

    // An identical rebuild of the same service hits the same entry.
    auto rebuilt = svc::buildService("memc");
    auto a4 = analysis::gateAndProve(rebuilt->program());
    EXPECT_EQ(a4.get(), a1.get());
}

// ---------------------------------------------------------------------------
// Deterministic rendering: sorted verdicts and reproducible JSON (the
// CLI's `analyze --dataflow --json` golden contract).
// ---------------------------------------------------------------------------

TEST(DataflowGolden, VerdictsSortedByFuncThenPc)
{
    for (const auto &name : svc::serviceNames()) {
        auto svc = svc::buildService(name);
        Report r = analysis::analyze(svc->program());
        const DataflowInfo &df = r.dataflow;
        for (size_t i = 1; i < df.branches.size(); ++i) {
            const auto &a = df.branches[i - 1];
            const auto &b = df.branches[i];
            EXPECT_TRUE(a.func < b.func ||
                        (a.func == b.func && a.pc < b.pc)) << name;
        }
        for (size_t i = 1; i < df.mems.size(); ++i) {
            const auto &a = df.mems[i - 1];
            const auto &b = df.mems[i];
            EXPECT_TRUE(a.func < b.func ||
                        (a.func == b.func && a.pc < b.pc)) << name;
        }
    }
}

TEST(DataflowGolden, JsonIsReproducibleAndStructured)
{
    auto svc = svc::buildService("mcrouter");
    Report r1 = analysis::analyze(svc->program());
    Report r2 = analysis::analyze(svc->program());
    std::string j1 = r1.json();
    EXPECT_EQ(j1, r2.json());                 // bit-reproducible

    // The dataflow object and its summary fields (the golden keys the
    // CLI's --dataflow --json consumers rely on).
    EXPECT_NE(j1.find("\"dataflow\": {"), std::string::npos);
    EXPECT_NE(j1.find("\"ran\": true"), std::string::npos);
    EXPECT_NE(j1.find("\"tier_bound\": 1"), std::string::npos);
    EXPECT_NE(j1.find("\"may_id_dep\": false"), std::string::npos);
    EXPECT_NE(j1.find("\"uniformity\": "), std::string::npos);
    EXPECT_NE(j1.find("\"mems\": ["), std::string::npos);

    // Balanced braces/brackets: the rendering must stay parseable.
    int brace = 0, bracket = 0;
    bool instr = false;
    for (size_t i = 0; i < j1.size(); ++i) {
        char c = j1[i];
        if (instr) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                instr = false;
            continue;
        }
        if (c == '"')
            instr = true;
        else if (c == '{')
            ++brace;
        else if (c == '}')
            --brace;
        else if (c == '[')
            ++bracket;
        else if (c == ']')
            --bracket;
        EXPECT_GE(brace, 0);
        EXPECT_GE(bracket, 0);
    }
    EXPECT_EQ(brace, 0);
    EXPECT_EQ(bracket, 0);
}

} // namespace
} // namespace simr
