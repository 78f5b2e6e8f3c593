/**
 * @file
 * Tests for the static µISA analyzer and its dynamic cross-check:
 * all registered services analyze clean, adversarial programs are
 * rejected with the expected diagnostic codes, the lockstep engine's
 * observed reconvergence points match the computed IPDOMs, and injected
 * annotation corruption is caught statically, dynamically, and by the
 * runner's pre-simulation gate.
 */

#include <gtest/gtest.h>

#include <memory>

#include "analysis/analyzer.h"
#include "analysis/cfg.h"
#include "analysis/crosscheck.h"
#include "analysis/dom.h"
#include "isa/builder.h"
#include "mem/address_space.h"
#include "services/basic_service.h"
#include "services/service.h"
#include "simr/cachestudy.h"
#include "simr/runner.h"
#include "simt/lockstep.h"

namespace simr
{
namespace
{

using analysis::Code;
using analysis::Report;
using analysis::Severity;
using isa::Cmp;
using isa::Op;
using mem::AddressSpace;

bool
hasCode(const Report &r, Code c, Severity sev)
{
    for (const auto &d : r.diags)
        if (d.code == c && d.sev == sev)
            return true;
    return false;
}

// ---------------------------------------------------------------------------
// Registered services: the production programs must analyze clean.
// ---------------------------------------------------------------------------

TEST(Analysis, AllRegisteredServicesAnalyzeClean)
{
    for (const auto &name : svc::serviceNames()) {
        auto svc = svc::buildService(name);
        ASSERT_NE(svc, nullptr) << name;
        Report r = analysis::analyze(svc->program());
        EXPECT_EQ(r.errors(), 0) << name << ":\n" << r.json();
        EXPECT_EQ(r.warnings(), 0) << name << ":\n" << r.json();
        // Every conditional branch's annotation matched its computed
        // immediate post-dominator (a mismatch would be an Error, but
        // check the verification records directly too).
        EXPECT_FALSE(r.branches.empty()) << name;
        for (const auto &b : r.branches)
            EXPECT_EQ(b.annotReconv, b.computedIpdom) << name;
    }
}

TEST(Analysis, ReportRendersJson)
{
    auto svc = svc::buildService("memc");
    Report r = analysis::analyze(svc->program());
    std::string j = r.json();
    EXPECT_NE(j.find("\"program\": \"memc\""), std::string::npos);
    EXPECT_NE(j.find("\"errors\": 0"), std::string::npos);
    EXPECT_NE(j.find("\"branches\": ["), std::string::npos);
}

// ---------------------------------------------------------------------------
// Adversarial programs: each lint fires with its documented code.
// ---------------------------------------------------------------------------

TEST(Analysis, FlagsUnreachableBlock)
{
    isa::Program p("bad-unreachable", AddressSpace::kCodeBase);
    int b0 = p.addBlock();
    int b1 = p.addBlock();
    isa::StaticInst ret;
    ret.op = Op::Ret;
    p.block(b0).insts.push_back(ret);
    isa::StaticInst jmp;
    jmp.op = Op::Jump;
    jmp.targetBlock = b1;  // self-loop, reachable from no entry
    p.block(b1).insts.push_back(jmp);
    p.addFunction("main", b0);
    p.layout();

    Report r = analysis::analyze(p);
    EXPECT_TRUE(hasCode(r, Code::UnreachableBlock, Severity::Error))
        << r.json();
}

TEST(Analysis, FlagsWrongReconvergenceAnnotation)
{
    // Diamond with the join at b3, deliberately annotated b4.
    isa::Program p("bad-reconv", AddressSpace::kCodeBase);
    int b0 = p.addBlock();
    int b1 = p.addBlock();
    int b2 = p.addBlock();
    int b3 = p.addBlock();
    int b4 = p.addBlock();

    isa::StaticInst br;
    br.op = Op::Branch;
    br.cmp = Cmp::Eq;
    br.targetBlock = b1;
    br.reconvBlock = b4;  // wrong: the immediate post-dominator is b3
    p.block(b0).insts.push_back(br);
    p.block(b0).fallthrough = b2;

    isa::StaticInst jmp;
    jmp.op = Op::Jump;
    jmp.targetBlock = b3;
    p.block(b1).insts.push_back(jmp);

    isa::StaticInst nop;
    nop.op = Op::Nop;
    p.block(b2).insts.push_back(nop);
    p.block(b2).fallthrough = b3;

    p.block(b3).insts.push_back(nop);
    p.block(b3).fallthrough = b4;

    isa::StaticInst ret;
    ret.op = Op::Ret;
    p.block(b4).insts.push_back(ret);

    p.addFunction("main", b0);
    p.layout();

    Report r = analysis::analyze(p);
    EXPECT_TRUE(hasCode(r, Code::ReconvMismatch, Severity::Error))
        << r.json();
    ASSERT_EQ(r.branches.size(), 1u);
    EXPECT_EQ(r.branches[0].annotReconv, b4);
    EXPECT_EQ(r.branches[0].computedIpdom, b3);
}

TEST(Analysis, FlagsCallDepthImbalance)
{
    // main jumps straight into helper's body: helper's Ret executes at
    // main's depth, i.e. unbalanced Call/Ret.
    isa::Program p("bad-calldepth", AddressSpace::kCodeBase);
    int b0 = p.addBlock();
    int b1 = p.addBlock();
    int b2 = p.addBlock();

    isa::StaticInst jmp;
    jmp.op = Op::Jump;
    jmp.targetBlock = b1;
    p.block(b0).insts.push_back(jmp);

    isa::StaticInst nop;
    nop.op = Op::Nop;
    p.block(b1).insts.push_back(nop);
    p.block(b1).fallthrough = b2;

    isa::StaticInst ret;
    ret.op = Op::Ret;
    p.block(b2).insts.push_back(ret);

    p.addFunction("main", b0);
    p.addFunction("helper", b1);
    p.layout();

    Report r = analysis::analyze(p);
    EXPECT_TRUE(hasCode(r, Code::SharedBlock, Severity::Error))
        << r.json();
}

TEST(Analysis, FlagsUnpairedLock)
{
    // An acquire-style fence with no matching release (fence followed
    // by a zero-store).
    isa::ProgramBuilder b("bad-lock", AddressSpace::kCodeBase);
    b.beginFunction("main");
    b.fence();
    b.endFunction();
    isa::Program p = b.finish();

    Report r = analysis::analyze(p);
    EXPECT_TRUE(hasCode(r, Code::LockPairing, Severity::Error))
        << r.json();
}

TEST(Analysis, FlagsStoreIntoUnmappedSegment)
{
    isa::ProgramBuilder b("bad-segment", AddressSpace::kCodeBase);
    b.beginFunction("main");
    b.store(isa::R_T0, isa::R_ZERO, 0x100);  // below every segment
    b.endFunction();
    isa::Program p = b.finish();

    Report r = analysis::analyze(p);
    EXPECT_TRUE(hasCode(r, Code::SegmentViolation, Severity::Error))
        << r.json();
}

TEST(Analysis, FlagsStackEscape)
{
    isa::ProgramBuilder b("bad-stack", AddressSpace::kCodeBase);
    b.beginFunction("main");
    // Far below this thread's 64KB stack segment.
    b.store(isa::R_T0, isa::R_SP,
            -static_cast<int64_t>(AddressSpace::kStackSize) - 4096);
    b.endFunction();
    isa::Program p = b.finish();

    Report r = analysis::analyze(p);
    EXPECT_TRUE(hasCode(r, Code::SegmentViolation, Severity::Error))
        << r.json();
}

TEST(Analysis, FlagsMissingMain)
{
    isa::ProgramBuilder b("bad-nomain", AddressSpace::kCodeBase);
    b.beginFunction("helper");
    b.nop(1);
    b.endFunction();
    isa::Program p = b.finish();

    Report r = analysis::analyze(p);
    EXPECT_TRUE(hasCode(r, Code::MissingMain, Severity::Error))
        << r.json();
}

TEST(Analysis, WarnsOnRecursion)
{
    isa::ProgramBuilder b("warn-recursion", AddressSpace::kCodeBase);
    b.beginFunction("loop_fn");
    b.callFn("loop_fn");
    b.endFunction();
    b.beginFunction("main");
    b.callFn("loop_fn");
    b.endFunction();
    isa::Program p = b.finish();

    Report r = analysis::analyze(p);
    EXPECT_TRUE(hasCode(r, Code::Recursion, Severity::Warning))
        << r.json();
}

// ---------------------------------------------------------------------------
// Program::validate() now rejects malformed programs at layout time.
// ---------------------------------------------------------------------------

TEST(AnalysisDeath, LayoutRejectsBadAccessSize)
{
    isa::Program p("bad-size", AddressSpace::kCodeBase);
    int b0 = p.addBlock();
    isa::StaticInst ld;
    ld.op = Op::Load;
    ld.src1 = isa::R_SP;
    ld.accessSize = 3;  // not a power of two
    p.block(b0).insts.push_back(ld);
    isa::StaticInst ret;
    ret.op = Op::Ret;
    p.block(b0).insts.push_back(ret);
    p.addFunction("main", b0);
    EXPECT_DEATH(p.layout(), "power of two");
}

TEST(AnalysisDeath, LayoutRejectsDanglingFallthrough)
{
    isa::Program p("bad-dangling", AddressSpace::kCodeBase);
    int b0 = p.addBlock();
    isa::StaticInst nop;
    nop.op = Op::Nop;
    p.block(b0).insts.push_back(nop);  // no terminator, no fallthrough
    p.addFunction("main", b0);
    EXPECT_DEATH(p.layout(), "no terminator and no fallthrough");
}

// ---------------------------------------------------------------------------
// Dynamic cross-check: the engine's observed reconvergence points match
// the static IPDOMs for real services.
// ---------------------------------------------------------------------------

void
runCrossCheckOn(const std::string &name)
{
    auto svc = svc::buildService(name);
    ASSERT_NE(svc, nullptr);
    Report report = analysis::analyze(svc->program());
    ASSERT_TRUE(report.ok()) << report.json();

    auto reqs = genRequests(*svc, 256, 7);
    batch::BatchingServer server(batch::Policy::PerApiArgSize,
                                 trace::kMaxBatch);
    simt::LockstepEngine engine(
        svc->program(), simt::ReconvPolicy::StackIpdom, trace::kMaxBatch,
        makeBatchProvider(*svc, server.formBatches(reqs)));
    analysis::CheckedStream checked(engine, report);
    trace::DynOp op;
    while (checked.next(op)) {
    }

    const auto &cs = checked.stats();
    EXPECT_TRUE(cs.ok()) << name << ": " <<
        (cs.failures.empty() ? "" : cs.failures.front());
    EXPECT_GT(cs.divergences, 0u) << name;
    EXPECT_GT(cs.mergesChecked, 0u) << name;
    EXPECT_GT(engine.stats().reconvMerges, 0u) << name;
}

TEST(CrossCheck, MemcachedMatchesStaticIpdoms)
{
    runCrossCheckOn("memc");
}

TEST(CrossCheck, SearchLeafMatchesStaticIpdoms)
{
    runCrossCheckOn("search-leaf");
}

TEST(CrossCheck, PostMatchesStaticIpdoms)
{
    runCrossCheckOn("post");
}

// ---------------------------------------------------------------------------
// Injected annotation corruption: caught by the static pass, by the
// dynamic cross-check, and by the runner's pre-simulation gate.
// ---------------------------------------------------------------------------

/** First block whose terminator is a conditional branch. */
int
firstBranchBlock(const isa::Program &p)
{
    for (int b = 0; b < p.numBlocks(); ++b) {
        const auto &bb = p.block(b);
        if (!bb.insts.empty() && bb.insts.back().op == Op::Branch)
            return b;
    }
    return -1;
}

TEST(Corruption, StaticPassCatchesCorruptAnnotation)
{
    auto svc = svc::buildService("memc");
    isa::Program prog = svc->program();  // mutable copy
    int bb = firstBranchBlock(prog);
    ASSERT_GE(bb, 0);
    isa::StaticInst &br = prog.block(bb).insts.back();
    br.reconvBlock = (br.reconvBlock + 1) % prog.numBlocks();

    Report r = analysis::analyze(prog);
    EXPECT_TRUE(hasCode(r, Code::ReconvMismatch, Severity::Error))
        << r.json();
}

TEST(Corruption, DynamicCrossCheckCatchesCorruptAnnotation)
{
    // Two stacked trivial diamonds. Corrupting the first branch's
    // annotation to the *second* join is still a post-dominator, so the
    // stack engine completes -- but lanes observably merge at the wrong
    // PC, which the cross-check (driven by the clean static report)
    // must flag.
    isa::ProgramBuilder b("corrupt-dyn", AddressSpace::kCodeBase);
    b.beginFunction("main");
    b.alu(isa::AluKind::AndImm, isa::R_T1, isa::R_KEY, isa::R_ZERO, 1);
    b.ifElseImm(isa::R_T1, Cmp::Eq, 0,
                [&] { b.addImm(isa::R_T2, isa::R_T2, 1); },
                [&] { b.addImm(isa::R_T2, isa::R_T2, 2); });
    b.nop(2);  // first join body
    b.ifElseImm(isa::R_ZERO, Cmp::Eq, 0,  // uniform: never diverges
                [&] { b.nop(1); },
                [&] { b.nop(1); });
    b.nop(2);  // second join body
    b.endFunction();
    isa::Program prog = b.finish();

    Report clean = analysis::analyze(prog);
    ASSERT_TRUE(clean.ok()) << clean.json();

    int b1 = firstBranchBlock(prog);
    ASSERT_GE(b1, 0);
    isa::StaticInst &br1 = prog.block(b1).insts.back();
    int join2 = -1;
    for (int bb = b1 + 1; bb < prog.numBlocks(); ++bb) {
        const auto &blk = prog.block(bb);
        if (!blk.insts.empty() && blk.insts.back().op == Op::Branch) {
            join2 = blk.insts.back().reconvBlock;
            break;
        }
    }
    ASSERT_GE(join2, 0);
    ASSERT_NE(join2, br1.reconvBlock);
    br1.reconvBlock = join2;

    // One batch of 8 threads with alternating key parity so the first
    // branch genuinely diverges.
    bool launched = false;
    simt::LockstepEngine engine(
        prog, simt::ReconvPolicy::StackIpdom, 8,
        [&launched](std::vector<trace::ThreadInit> &inits) -> int {
            if (launched)
                return 0;
            launched = true;
            inits.clear();
            for (int i = 0; i < 8; ++i) {
                trace::ThreadInit ti;
                ti.key = static_cast<uint64_t>(i);
                ti.reqId = i;
                ti.tid = i;
                ti.sharedBase = AddressSpace::kSharedHeapBase;
                ti.stackTop = AddressSpace::stackTop(
                    static_cast<uint64_t>(i));
                ti.heapBase = AddressSpace::kPrivateHeapBase +
                    static_cast<uint64_t>(i) * AddressSpace::kArenaStride;
                inits.push_back(ti);
            }
            return 8;
        });
    analysis::CheckedStream checked(engine, clean);
    trace::DynOp op;
    while (checked.next(op)) {
    }

    const auto &cs = checked.stats();
    EXPECT_GT(cs.divergences, 0u);
    ASSERT_FALSE(cs.failures.empty());
    EXPECT_NE(cs.failures.front().find("static IPDOM predicts"),
              std::string::npos) << cs.failures.front();
}

TEST(CorruptionDeath, RunnerGateRefusesCorruptProgram)
{
    auto orig = std::shared_ptr<svc::Service>(svc::buildService("memc"));
    ASSERT_NE(orig, nullptr);
    isa::Program prog = orig->program();
    int bb = firstBranchBlock(prog);
    ASSERT_GE(bb, 0);
    isa::StaticInst &br = prog.block(bb).insts.back();
    br.reconvBlock = (br.reconvBlock + 1) % prog.numBlocks();

    svc::BasicService bad(
        orig->traits(), std::move(prog),
        [orig](int64_t id, Rng &rng) { return orig->genRequest(id, rng); });

    EXPECT_EXIT(
        measureEfficiency(bad, batch::Policy::PerApiArgSize,
                          simt::ReconvPolicy::StackIpdom, 8, 16, 1),
        ::testing::ExitedWithCode(1), "refusing to simulate");
    CacheStudyOptions opt;
    opt.requests = 16;
    EXPECT_EXIT(studyRpuCache(bad, 8, opt), ::testing::ExitedWithCode(1),
                "refusing to simulate");
    EXPECT_EXIT(studyCpuCache(bad, opt), ::testing::ExitedWithCode(1),
                "refusing to simulate");
}

// ---------------------------------------------------------------------------
// CFG / dominator internals.
// ---------------------------------------------------------------------------

TEST(Analysis, CfgAssignsFunctionsAndCallGraph)
{
    auto svc = svc::buildService("memc");
    analysis::Cfg cfg(svc->program());
    ASSERT_EQ(cfg.numFuncs(), svc->program().numFunctions());
    int main_fn = svc->program().findFunction("main");
    ASSERT_GE(main_fn, 0);
    // memc's main dispatches to get_fn and set_fn.
    EXPECT_EQ(cfg.callees(main_fn).size(), 2u);
    // Every block belongs to exactly one function.
    for (int b = 0; b < svc->program().numBlocks(); ++b) {
        EXPECT_GE(cfg.funcOf(b), 0) << "block " << b;
        EXPECT_FALSE(cfg.isShared(b)) << "block " << b;
    }
}

TEST(Analysis, DominatorsOnDiamond)
{
    isa::ProgramBuilder b("diamond", AddressSpace::kCodeBase);
    b.beginFunction("main");
    b.ifElseImm(isa::R_KEY, Cmp::Eq, 0,
                [&] { b.nop(1); }, [&] { b.nop(1); });
    b.nop(1);
    b.endFunction();
    isa::Program p = b.finish();

    analysis::Cfg cfg(p);
    const auto &fc = cfg.func(0);
    auto dom = analysis::DomTree::dominators(cfg, fc);
    auto pdom = analysis::DomTree::postDominators(cfg, fc);

    Report r = analysis::analyze(p);
    ASSERT_EQ(r.branches.size(), 1u);
    int branch_blk = r.branches[0].block;
    int join = r.branches[0].computedIpdom;
    ASSERT_GE(join, 0);
    // The branch block dominates the join; the join post-dominates the
    // branch block and neither arm dominates it.
    EXPECT_TRUE(dom.dominates(branch_blk, join));
    EXPECT_EQ(pdom.idom(branch_blk), join);
    for (int s : cfg.succs(branch_blk)) {
        if (s != join) {
            EXPECT_FALSE(dom.dominates(s, join));
        }
    }
}

} // namespace
} // namespace simr
