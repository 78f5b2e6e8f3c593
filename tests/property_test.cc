/**
 * @file
 * Property-style tests: randomized sweeps over cache geometries, MCU
 * access patterns, address-map samples and statistics, and generated
 * µISA programs run through the lockstep engines and the trace cache,
 * checking invariants rather than point values. Parameterized over
 * seeds so each instantiation explores a different random
 * neighbourhood.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "analysis/cache.h"
#include "common/rng.h"
#include "common/stats.h"
#include "isa/builder.h"
#include "mem/address_space.h"
#include "mem/allocator.h"
#include "mem/cache.h"
#include "mem/coalescer.h"
#include "mem/dram.h"
#include "simr/runner.h"
#include "simt/lockstep.h"
#include "sys/station.h"
#include "trace/stream.h"

#include "lane_projection.h"

using namespace simr;
using namespace simr::mem;

class SeededTest : public ::testing::TestWithParam<uint64_t>
{
  protected:
    Rng rng_{GetParam()};
};

TEST_P(SeededTest, CacheInvariants)
{
    // Random geometry (power-of-two sets guaranteed by construction).
    uint64_t kb = 1ull << rng_.range(0, 6);            // 1..64 KB
    uint32_t assoc = 1u << rng_.range(0, 3);           // 1..8 ways
    CacheConfig cfg;
    cfg.sizeBytes = kb * 1024;
    cfg.assoc = assoc;
    Cache c(cfg);

    uint64_t hits = 0, n = 4000;
    std::set<Addr> lines_seen;
    for (uint64_t i = 0; i < n; ++i) {
        Addr a = rng_.below(1 << 22);
        bool hit = c.access(a, rng_.chance(0.3));
        hits += hit ? 1 : 0;
        lines_seen.insert(a / cfg.lineBytes);
        // An immediate re-access of the same address always hits.
        EXPECT_TRUE(c.probe(a));
    }
    const auto &s = c.stats();
    EXPECT_EQ(s.accesses, n);
    EXPECT_EQ(s.misses, n - hits);
    // Every distinct line's first touch is a compulsory miss.
    EXPECT_GE(s.misses, lines_seen.size());
    // Writebacks never exceed store-dirtied fills.
    EXPECT_LE(s.writebacks, s.misses);
}

TEST_P(SeededTest, McuNeverInflatesDivergentAccessCount)
{
    AddressMap map(true, 32);
    Mcu mcu(map);
    std::vector<MemAccess> out;
    for (int trial = 0; trial < 200; ++trial) {
        int lanes = static_cast<int>(rng_.range(1, 32));
        static isa::StaticInst si;
        si = isa::StaticInst();
        si.op = rng_.chance(0.5) ? isa::Op::Load : isa::Op::Store;
        si.accessSize = 8;
        trace::DynOp op;
        op.si = &si;
        op.accessSize = 8;
        op.addrCount = static_cast<uint8_t>(lanes);
        op.mask = lanes >= 32 ? 0xffffffffu : ((1u << lanes) - 1);
        for (int l = 0; l < lanes; ++l) {
            op.lane[l] = static_cast<uint8_t>(l);
            // Word-aligned heap addresses (no line straddling).
            op.addr[l] = AddressSpace::kPrivateHeapBase +
                (rng_.below(1 << 16)) * 8;
        }
        auto kind = mcu.coalesce(op, out);
        EXPECT_GE(out.size(), 1u);
        EXPECT_LE(out.size(), static_cast<size_t>(lanes))
            << "coalescing must never generate more accesses than "
               "lanes for aligned word accesses (kind "
            << static_cast<int>(kind) << ")";
        for (const auto &a : out)
            EXPECT_EQ(a.paddr % 32, 0u) << "line-aligned outputs";
    }
    EXPECT_GE(mcu.stats().reductionFactor(), 1.0);
}

TEST_P(SeededTest, StackMapBijectiveOnRandomSamples)
{
    AddressMap map(true, 32);
    std::map<Addr, Addr> forward;
    for (int i = 0; i < 5000; ++i) {
        uint64_t lane = rng_.below(32);
        Addr off = rng_.below(AddressSpace::kStackSize);
        Addr va = AddressSpace::stackSegmentBase(lane) + off;
        Addr pa = map.toPhysical(va);
        auto [it, fresh] = forward.emplace(va, pa);
        if (!fresh) {
            EXPECT_EQ(it->second, pa) << "mapping is a function";
        }
        // Physical image stays within the batch's stack area.
        EXPECT_GE(pa, AddressSpace::kStackBase);
        EXPECT_LT(pa, AddressSpace::kStackBase +
                          32 * AddressSpace::kStackSize);
    }
    // Injectivity across the sample.
    std::set<Addr> images;
    for (const auto &[va, pa] : forward)
        images.insert(pa);
    EXPECT_EQ(images.size(), forward.size());
}

TEST_P(SeededTest, RunningStatMatchesDirectComputation)
{
    RunningStat s;
    std::vector<double> xs;
    int n = static_cast<int>(rng_.range(2, 300));
    for (int i = 0; i < n; ++i) {
        double x = rng_.normal(10.0, 4.0);
        xs.push_back(x);
        s.add(x);
    }
    double mean = 0;
    for (double x : xs)
        mean += x / xs.size();
    double var = 0;
    for (double x : xs)
        var += (x - mean) * (x - mean) / (xs.size() - 1);
    EXPECT_NEAR(s.mean(), mean, 1e-9);
    EXPECT_NEAR(s.variance(), var, 1e-6);
}

TEST_P(SeededTest, DramDelayMonotoneInBurstSize)
{
    double prev = -1;
    for (int burst : {1, 4, 16, 64}) {
        Dram d({2, 1.0, 100, 32});
        uint32_t worst = 0;
        for (int i = 0; i < burst; ++i)
            worst = std::max(worst,
                             d.access(0, rng_.below(1 << 20) * 32));
        EXPECT_GE(static_cast<double>(worst), prev);
        prev = worst;
    }
}

TEST_P(SeededTest, BatchingConservesAndBoundsEveryPolicy)
{
    int n = static_cast<int>(rng_.range(1, 700));
    int bs = static_cast<int>(rng_.range(1, 64));
    std::vector<svc::Request> reqs;
    for (int i = 0; i < n; ++i) {
        svc::Request r;
        r.id = i;
        r.api = static_cast<int>(rng_.below(5));
        r.argLen = 1 + static_cast<int>(rng_.below(32));
        reqs.push_back(r);
    }
    for (auto pol : {batch::Policy::Naive, batch::Policy::PerApi,
                     batch::Policy::PerApiArgSize}) {
        batch::BatchingServer server(pol, bs);
        auto batches = server.formBatches(reqs);
        std::set<int64_t> ids;
        for (const auto &b : batches) {
            EXPECT_GE(b.size(), 1);
            EXPECT_LE(b.size(), bs);
            for (const auto &r : b.requests)
                EXPECT_TRUE(ids.insert(r.id).second);
        }
        EXPECT_EQ(static_cast<int>(ids.size()), n);
    }
}

TEST_P(SeededTest, LockstepEfficiencyBoundedForRandomMixes)
{
    // Random service + random policy: efficiency always in (0, 1] and
    // every request completes.
    const auto &names = svc::serviceNames();
    auto svc = svc::buildService(
        names[rng_.below(names.size())]);
    auto policy = rng_.chance(0.5) ? simt::ReconvPolicy::StackIpdom
                                   : simt::ReconvPolicy::MinSpPc;
    int width = 1 << rng_.range(0, 5);
    int n = static_cast<int>(rng_.range(width, 4 * width));
    auto eff = measureEfficiency(*svc, batch::Policy::Naive, policy,
                                 width, n, GetParam());
    EXPECT_GT(eff.efficiency(), 0.0);
    EXPECT_LE(eff.efficiency(), 1.0 + 1e-12);
    EXPECT_EQ(eff.stats.width, width);
}

TEST_P(SeededTest, BatchWindowsTileArrivalsAndEmitInOrder)
{
    // The cluster engine schedules a web server's next batch from its
    // current one, which is exact only because formed batches tile the
    // server's time-sorted arrivals and their emit times never
    // decrease. Arrivals mix bursts, ties and long gaps.
    for (int bsize : {1, 4, 32}) {
        for (double timeout : {0.0, 100.0}) {
            SCOPED_TRACE("bsize " + std::to_string(bsize) + ", timeout " +
                         std::to_string(timeout));
            const size_t n = static_cast<size_t>(rng_.range(1, 3000));
            std::vector<double> times(n);
            double now = rng_.uniform() * 1000;
            for (double &t : times) {
                if (!rng_.chance(0.1))
                    now += rng_.exponential(rng_.chance(0.5) ? 4 : 300);
                t = now;
            }
            struct Window
            {
                size_t begin, end;
                double emitTime;
            };
            std::vector<Window> wins;
            sys::forEachBatchWindow(
                n, bsize, timeout, [&](size_t i) { return times[i]; },
                [&](size_t begin, size_t end, double emit) {
                    wins.push_back({begin, end, emit});
                });
            ASSERT_FALSE(wins.empty());
            EXPECT_EQ(wins.front().begin, 0u);
            EXPECT_EQ(wins.back().end, n);
            for (size_t i = 0; i < wins.size(); ++i) {
                const Window &w = wins[i];
                ASSERT_LT(w.begin, w.end);
                EXPECT_LE(w.end - w.begin, static_cast<size_t>(bsize));
                // A batch never leaves before its last request arrives.
                EXPECT_GE(w.emitTime, times[w.end - 1]);
                if (i == 0)
                    continue;
                EXPECT_EQ(w.begin, wins[i - 1].end);
                EXPECT_LE(wins[i - 1].emitTime, w.emitTime)
                    << "batch " << i;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Generated µISA programs

namespace
{

using isa::Cmp;
using isa::ProgramBuilder;
using isa::RegId;
using trace::DynOp;
using trace::ThreadInit;

/**
 * A seeded random µISA program built through isa::ProgramBuilder. It
 * has nested if/else on request-dependent values (key bits, API,
 * argument length, lane parity, loaded data), loops with key-dependent
 * trip counts, calls from both arms of divergent branches (so one
 * lockstep group can return to different call sites), stack, heap and
 * shared loads, stores and atomics (some at key- or lane-dependent
 * addresses, some in fenced lock sections), syscalls, and empty
 * blocks: empty else arms, and joins or call continuations that fall
 * straight into a loop header.
 *
 * main calls f1 and f0, and f1 calls f0. Each function keeps its loop
 * counters and limits in registers of its own, so a callee never
 * changes a caller's trip count; every other temporary is shared.
 */
class ProgramGen
{
  public:
    explicit ProgramGen(uint64_t seed) : rng_(seed) {}

    isa::Program
    make()
    {
        ProgramBuilder b("generated");
        b_ = &b;
        function("f0", 0, 17, 6);
        function("f1", 1, 21, 8);
        function("main", 2, isa::R_T6, 12);
        b_ = nullptr;
        return b.finish();
    }

  private:
    static constexpr int kMaxLoops = 2;  ///< loop nesting per function

    /** One function of about `size` to 2 x `size` statements. */
    void
    function(const char *name, int fn, RegId loopBank, int size)
    {
        b_->beginFunction(name);
        fn_ = fn;
        loopBank_ = loopBank;
        loops_ = 0;
        budget_ = static_cast<int>(rng_.range(size, 2 * size));
        if (fn > 0)
            divergentCall(0);
        while (budget_ > 0)
            stmt(0);
        b_->endFunction();
    }

    /** A sequence of statements at nesting `depth`. */
    void
    body(int depth)
    {
        const int n = static_cast<int>(rng_.range(1, depth == 0 ? 6 : 3));
        for (int i = 0; i < n && budget_ > 0; ++i)
            stmt(depth);
    }

    void
    stmt(int depth)
    {
        --budget_;
        switch (rng_.below(depth >= 3 ? 5 : 10)) {
          case 0:
          case 1: alu(); break;
          case 2: mem(); break;
          case 3: b_->syscall(static_cast<isa::Sys>(rng_.below(4))); break;
          case 4:
            if (rng_.chance(0.5))
                lockSection();
            else
                call();
            break;
          case 5:
          case 6: branch(depth); break;
          case 7: loop(depth); break;
          case 8: divergentCall(depth); break;
          case 9: joinIntoLoop(depth); break;
        }
    }

    /** A temporary any function may overwrite. */
    RegId
    temp()
    {
        static constexpr RegId kTemps[] = {isa::R_T0, isa::R_T1, isa::R_T2,
                                           isa::R_T3, isa::R_T4, isa::R_T5,
                                           25, 26, 27};
        return kTemps[rng_.below(std::size(kTemps))];
    }

    /** A source operand: request context, frame bases or a temporary. */
    RegId
    src()
    {
        static constexpr RegId kCtx[] = {isa::R_ZERO, isa::R_API,
                                         isa::R_ARGLEN, isa::R_KEY,
                                         isa::R_REQID, isa::R_TID,
                                         isa::R_SP, isa::R_HEAP};
        return rng_.chance(0.5) ? temp()
                                : kCtx[rng_.below(std::size(kCtx))];
    }

    int64_t
    imm()
    {
        return rng_.chance(0.2) ? static_cast<int64_t>(rng_.next())
                                : rng_.range(-64, 64);
    }

    void
    alu()
    {
        const auto k = static_cast<isa::AluKind>(rng_.below(17));
        const RegId d = temp();
        switch (rng_.below(6)) {
          case 0: b_->alu(k, d, src(), src(), imm()); break;
          case 1: b_->mul(d, src(), src()); break;
          case 2: b_->div(d, src(), src()); break;
          case 3: b_->falu(k, d, src(), src(), imm()); break;
          case 4: b_->simd(k, d, src(), src(), imm()); break;
          case 5: b_->hash(d, src(), src(), imm()); break;
        }
    }

    /** A load, store or atomic on the stack, heap or shared segment. */
    void
    mem()
    {
        RegId base = isa::R_SHARED;
        int64_t off = 8 * rng_.range(0, 511);
        switch (rng_.below(4)) {
          case 0:
            base = isa::R_SP;
            off = -8 * rng_.range(1, 64);
            break;
          case 1: base = isa::R_HEAP; break;
          case 2: break;
          case 3: {
            // A key-, lane- or data-dependent offset into a segment.
            static constexpr RegId kIdx[] = {isa::R_KEY, isa::R_API,
                                             isa::R_TID, isa::R_T0};
            base = isa::R_T10;
            b_->alu(isa::AluKind::AndImm, base,
                    kIdx[rng_.below(std::size(kIdx))], isa::R_ZERO, 0x1f8);
            b_->alu(isa::AluKind::Add, base, base,
                    rng_.chance(0.5) ? isa::R_HEAP : isa::R_SHARED);
            off = 8 * rng_.range(0, 7);
            break;
          }
        }
        const auto size = static_cast<uint16_t>(1u << rng_.below(4));
        switch (rng_.below(3)) {
          case 0: b_->load(temp(), base, off, size); break;
          case 1: b_->store(src(), base, off, size); break;
          case 2: b_->atomic(temp(), base, off); break;
        }
    }

    /** atomic; acquire fence; body; release fence + zero store. */
    void
    lockSection()
    {
        const int64_t off = 8 * rng_.range(0, 63);
        b_->atomic(temp(), isa::R_SHARED, off);
        b_->fence();
        alu();  // keeps a zero store from pairing with the acquire fence
        mem();
        b_->fence();
        b_->store(isa::R_ZERO, isa::R_SHARED, off);
    }

    /** A request-dependent value in a temporary, for a branch. */
    RegId
    condition()
    {
        const RegId t = temp();
        switch (rng_.below(5)) {
          case 0:
            b_->alu(isa::AluKind::Shr, t, isa::R_KEY, isa::R_ZERO,
                    rng_.range(0, 60));
            b_->alu(isa::AluKind::AndImm, t, t, isa::R_ZERO, 3);
            break;
          case 1:
            b_->alu(isa::AluKind::AndImm, t, isa::R_TID, isa::R_ZERO,
                    rng_.range(1, 3));
            break;
          case 2:
            b_->alu(isa::AluKind::AndImm, t,
                    rng_.chance(0.5) ? isa::R_API : isa::R_ARGLEN,
                    isa::R_ZERO, 3);
            break;
          case 3:
            b_->load(t, isa::R_HEAP, 8 * rng_.range(0, 63));
            b_->alu(isa::AluKind::AndImm, t, t, isa::R_ZERO, 1);
            break;
          case 4:
            b_->alu(isa::AluKind::AndImm, t, temp(), isa::R_ZERO, 1);
            break;
        }
        return t;
    }

    void
    ifElse(const ProgramBuilder::BodyFn &then_fn,
           const ProgramBuilder::BodyFn &else_fn)
    {
        const RegId c = condition();
        b_->ifElseImm(c, static_cast<Cmp>(rng_.below(4)), rng_.range(0, 3),
                      then_fn, else_fn);
    }

    /** if/else, the else arm often empty. */
    void
    branch(int depth)
    {
        auto arm = [this, depth] { body(depth + 1); };
        if (rng_.chance(0.4))
            ifElse(arm, [] {});
        else
            ifElse(arm, arm);
    }

    /** Key-dependent trip count (0-3) into `limit`. */
    void
    tripCount(RegId limit)
    {
        b_->alu(isa::AluKind::Shr, limit, isa::R_KEY, isa::R_ZERO,
                rng_.range(0, 62));
        b_->alu(isa::AluKind::AndImm, limit, limit, isa::R_ZERO, 3);
    }

    /** for (cnt = 0; cnt < limit; ++cnt) { body } */
    void
    loop(int depth)
    {
        if (loops_ >= kMaxLoops) {
            alu();
            return;
        }
        const auto cnt = static_cast<RegId>(loopBank_ + 2 * loops_);
        const auto limit = static_cast<RegId>(cnt + 1);
        tripCount(limit);
        ++loops_;
        b_->forLoop(cnt, limit, [this, depth] { body(depth + 1); });
        --loops_;
    }

    /**
     * A branch or call whose continuation block stays empty because a
     * loop header follows it directly: the counter is set first.
     */
    void
    joinIntoLoop(int depth)
    {
        if (loops_ >= kMaxLoops) {
            branch(depth);
            return;
        }
        const auto cnt = static_cast<RegId>(loopBank_ + 2 * loops_);
        const auto limit = static_cast<RegId>(cnt + 1);
        tripCount(limit);
        b_->movImm(cnt, 0);
        ++loops_;
        if (fn_ > 0 && rng_.chance(0.3))
            call();
        else
            branch(depth);
        b_->whileLt(cnt, limit, [this, cnt, depth] {
            body(depth + 1);
            b_->addImm(cnt, cnt, 1);
        });
        --loops_;
    }

    /** The name of a function the current one may call. */
    const char *
    callee()
    {
        return fn_ == 2 && rng_.chance(0.5) ? "f1" : "f0";
    }

    void
    call()
    {
        if (fn_ == 0)
            alu();  // f0 is a leaf
        else
            b_->callFn(callee());
    }

    /** The same function called from both arms of a branch. */
    void
    divergentCall(int depth)
    {
        if (fn_ == 0) {
            branch(depth);
            return;
        }
        const char *f = callee();
        ifElse(
            [this, f] {
                if (rng_.chance(0.5))
                    alu();
                b_->callFn(f);
            },
            [this, f] {
                mem();
                b_->callFn(f);
                if (rng_.chance(0.5))
                    alu();
            });
    }

    Rng rng_;
    ProgramBuilder *b_ = nullptr;
    int fn_ = 0;
    RegId loopBank_ = 0;
    int loops_ = 0;
    int budget_ = 0;
};

/**
 * n requests in batches of `width`: request i runs on lane i % width,
 * in that lane's stack and heap arena. Keys repeat, so some requests
 * share a trace.
 */
std::vector<ThreadInit>
genInits(Rng &rng, int n, int width)
{
    const mem::HeapAllocator alloc(mem::AllocPolicy::SimrAware);
    const uint64_t keys[] = {rng.next(), rng.next(), rng.next()};
    std::vector<ThreadInit> inits(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        ThreadInit &t = inits[static_cast<size_t>(i)];
        const auto lane = static_cast<uint64_t>(i % width);
        t.api = static_cast<int64_t>(rng.below(3));
        t.argLen = rng.range(1, 4);
        t.key = rng.chance(0.3) ? keys[rng.below(3)] : rng.next();
        t.reqId = i;
        t.tid = static_cast<int64_t>(lane);
        t.sharedBase = mem::AddressSpace::kSharedHeapBase;
        t.stackTop = mem::AddressSpace::stackTop(lane);
        t.heapBase = alloc.arenaBase(lane);
        t.dataSeed = 0x5eed;
    }
    return inits;
}

/** The same requests with every batch's lanes in reverse order. */
std::vector<ThreadInit>
reversedLanes(std::vector<ThreadInit> inits, int width)
{
    std::vector<ThreadInit> out = inits;
    for (size_t begin = 0; begin < inits.size(); begin += width) {
        const size_t end = std::min(inits.size(), begin + width);
        for (size_t i = begin; i < end; ++i) {
            ThreadInit &t = out[i];
            const ThreadInit &from = inits[begin + end - 1 - i];
            t.api = from.api;
            t.argLen = from.argLen;
            t.key = from.key;
            t.reqId = from.reqId;
        }
    }
    return out;
}

/** Batches of `width` consecutive inits. */
simt::LockstepEngine::BatchProvider
batchesOf(const std::vector<ThreadInit> &inits, int width)
{
    auto next = std::make_shared<size_t>(0);
    return [inits, width, next](std::vector<ThreadInit> &out) -> int {
        const size_t begin = *next;
        const size_t end =
            std::min(inits.size(), begin + static_cast<size_t>(width));
        out.assign(inits.begin() + static_cast<long>(begin),
                   inits.begin() + static_cast<long>(end));
        *next = end;
        return static_cast<int>(end - begin);
    };
}

/** Spin escapes at almost every opportunity (MinSP-PC). */
simt::SpinEscapeConfig
eagerSpin()
{
    simt::SpinEscapeConfig s;
    s.stagnationSteps = 4;
    s.atomicThreshold = 1;
    s.boostSteps = 3;
    return s;
}

std::vector<DynOp>
drainOps(trace::DynStream &s)
{
    std::vector<DynOp> ops;
    DynOp op;
    while (s.next(op)) {
        ops.emplace_back();
        ops.back().copyFrom(op);
    }
    return ops;
}

/** Whether two DynOp streams are equal field by field. */
::testing::AssertionResult
sameOps(const std::vector<DynOp> &got, const std::vector<DynOp> &want)
{
    for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
        const DynOp &a = got[i];
        const DynOp &b = want[i];
        bool same = a.si == b.si && a.pc == b.pc && a.mask == b.mask &&
            a.takenMask == b.takenMask && a.callDepth == b.callDepth &&
            a.dep1 == b.dep1 && a.dep2 == b.dep2 &&
            a.accessSize == b.accessSize && a.addrCount == b.addrCount &&
            a.pathSwitch == b.pathSwitch && a.endMask == b.endMask &&
            a.batchStart == b.batchStart;
        for (uint8_t j = 0; same && j < a.addrCount; ++j)
            same = a.lane[j] == b.lane[j] && a.addr[j] == b.addr[j];
        if (!same) {
            return ::testing::AssertionFailure()
                << "op " << i << " at pc 0x" << std::hex << a.pc
                << " (want 0x" << b.pc << "), mask 0x" << a.mask
                << " (want 0x" << b.mask << ")";
        }
    }
    if (got.size() != want.size())
        return ::testing::AssertionFailure()
            << got.size() << " ops vs " << want.size();
    return ::testing::AssertionSuccess();
}

/**
 * Group returns whose lanes went back to different call sites: a Ret
 * below main whose lanes' next ops sit at more than one PC.
 */
int
splitReturns(const std::vector<DynOp> &ops)
{
    int splits = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].si->op != isa::Op::Ret || ops[i].callDepth == 0)
            continue;
        std::set<isa::Pc> sites;
        trace::Mask pending = ops[i].mask;
        for (size_t j = i + 1; j < ops.size() && pending != 0; ++j) {
            if (ops[j].mask & pending)
                sites.insert(ops[j].pc);
            pending &= ~ops[j].mask;
        }
        splits += sites.size() > 1 ? 1 : 0;
    }
    return splits;
}

} // namespace

TEST_P(SeededTest, GeneratedProgramsRunLaneForLaneAsSolo)
{
    // Lockstep execution at a random width, under both reconvergence
    // policies and under eager spin escapes, must give every lane
    // exactly its width-1 run.
    int splits = 0;
    for (int k = 0; k < 8; ++k) {
        const isa::Program p = ProgramGen(rng_.next()).make();
        analysis::gateAndProve(p);  // fatal on any error finding
        const int width = static_cast<int>(rng_.range(1, 32));
        const int n = static_cast<int>(rng_.range(1, 2 * width));
        const auto inits = genInits(rng_, n, width);
        std::vector<projection::LaneSteps> solo;
        for (const ThreadInit &init : inits)
            solo.push_back(projection::soloSteps(p, init));

        struct Run
        {
            simt::ReconvPolicy policy;
            simt::SpinEscapeConfig spin;
            const char *name;
        };
        for (const Run &run :
             {Run{simt::ReconvPolicy::StackIpdom, {}, "stack-IPDOM"},
              Run{simt::ReconvPolicy::MinSpPc, {}, "MinSP-PC"},
              Run{simt::ReconvPolicy::MinSpPc, eagerSpin(),
                  "MinSP-PC, eager spin escapes"}}) {
            SCOPED_TRACE(std::string(run.name) + ", program " +
                         std::to_string(k) + ", width " +
                         std::to_string(width));
            simt::LockstepEngine e(p, run.policy, width,
                                   batchesOf(inits, width), run.spin);
            projection::projectLanes(
                e, width,
                [&](size_t bi, const std::vector<projection::LaneSteps> &got) {
                    for (size_t lane = 0; lane < got.size(); ++lane) {
                        const size_t i = bi * static_cast<size_t>(width) + lane;
                        if (i >= inits.size()) {
                            EXPECT_TRUE(got[lane].empty());
                            continue;
                        }
                        EXPECT_TRUE(projection::sameSteps(got[lane], solo[i]))
                            << "batch " << bi << " lane " << lane;
                    }
                });
            EXPECT_EQ(e.requestsCompleted(), static_cast<uint64_t>(n));
        }
        simt::LockstepEngine e(p, simt::ReconvPolicy::MinSpPc, width,
                               batchesOf(inits, width), eagerSpin());
        splits += splitReturns(drainOps(e));
    }
    EXPECT_GT(splits, 0) << "no group returned to different call sites: "
                            "the generator no longer covers per-lane Ret";
}

TEST_P(SeededTest, GeneratedProgramsReplayExactlyAsLive)
{
    // Over one TraceCache, a cold capturing drain and a warm replaying
    // drain emit exactly the cache-less drain's DynOps, as does a warm
    // drain that relocates every trace to other lanes. Scalar streams
    // then replay the lanes' captures with the threads' own dependence
    // distances.
    for (int k = 0; k < 3; ++k) {
        const isa::Program p = ProgramGen(rng_.next()).make();
        const auto ca = analysis::gateAndProve(p);
        const int width = static_cast<int>(rng_.range(1, 32));
        const int n = static_cast<int>(rng_.range(1, 2 * width));
        const auto inits = genInits(rng_, n, width);
        const auto moved = reversedLanes(inits, width);
        for (auto policy :
             {simt::ReconvPolicy::StackIpdom, simt::ReconvPolicy::MinSpPc}) {
            SCOPED_TRACE(std::string(policy == simt::ReconvPolicy::MinSpPc
                                         ? "MinSP-PC" : "stack-IPDOM") +
                         ", program " + std::to_string(k) + ", width " +
                         std::to_string(width));
            auto drain = [&](const std::vector<ThreadInit> &batch,
                             trace::TraceCache *cache,
                             trace::ReuseStats *reuse) {
                simt::LockstepEngine e(p, policy, width,
                                       batchesOf(batch, width),
                                       simt::SpinEscapeConfig(), cache);
                e.setStaticProof(ca->proof);
                auto ops = drainOps(e);
                EXPECT_EQ(e.stats().hintViolations, 0u);
                if (reuse)
                    *reuse = e.reuseStats();
                return ops;
            };
            const auto live = drain(inits, nullptr, nullptr);
            trace::TraceCache cache(64 << 20);
            trace::ReuseStats cold, warm, relocated;
            EXPECT_TRUE(sameOps(drain(inits, &cache, &cold), live)) << "cold";
            EXPECT_GT(cold.capturedOps, 0u);
            EXPECT_TRUE(sameOps(drain(inits, &cache, &warm), live)) << "warm";
            EXPECT_EQ(warm.hits, static_cast<uint64_t>(n));
            EXPECT_EQ(warm.capturedOps, 0u);
            EXPECT_TRUE(sameOps(drain(moved, &cache, &relocated),
                                drain(moved, nullptr, nullptr)))
                << "relocated";

            auto scalar = [&](trace::TraceCache *c) {
                auto next = std::make_shared<size_t>(0);
                trace::ScalarStream s(
                    p,
                    [&inits, next](ThreadInit &out) {
                        if (*next >= inits.size())
                            return false;
                        out = inits[(*next)++];
                        return true;
                    },
                    c);
                auto ops = drainOps(s);
                if (c) {
                    EXPECT_EQ(s.reuseStats().hits,
                              static_cast<uint64_t>(n));
                }
                return ops;
            };
            EXPECT_TRUE(sameOps(scalar(&cache), scalar(nullptr))) << "scalar";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));
