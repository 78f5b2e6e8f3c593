/**
 * @file
 * Trace capture/replay unit tests: relocation across hardware slots,
 * taint-tier classification, cache thread-safety and eviction,
 * all-replay lockstep batches, and stream-level (whole front end)
 * round-trips.
 *
 * The tier-1 trace_replay_gate proves replay bit-identical end to end;
 * these tests pin down the mechanisms underneath it -- in particular
 * that a trace captured in slot 0's frame replays *relocated* into
 * slots 1..7 exactly as a live interpreter runs there, under both
 * allocator policies.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mem/allocator.h"
#include "services/service.h"
#include "simr/runner.h"
#include "simr/streamcache.h"
#include "simt/lockstep.h"
#include "trace/capture.h"
#include "trace/replay.h"
#include "trace/stream.h"

using namespace simr;

namespace
{

/** Live-run one request, capturing; returns the finished trace. */
std::shared_ptr<const trace::CapturedTrace>
captureRequest(const trace::ProgramIndex &pi, const trace::ThreadInit &init)
{
    trace::ThreadState live(pi.program());
    trace::CaptureBuilder builder(pi);
    live.reset(init);
    builder.reset(init);
    trace::StepResult r;
    while (!live.done()) {
        live.step(r);
        builder.onStep(r);
    }
    return builder.finish();
}

/**
 * Replay `t` relocated to `init` and compare it op by op against a
 * live interpreter run of the same init. Fatal on first divergence.
 */
void
expectReplayMatchesLive(const trace::ProgramIndex &pi,
                        std::shared_ptr<const trace::CapturedTrace> t,
                        const trace::ThreadInit &init)
{
    trace::ThreadState live(pi.program());
    live.reset(init);
    trace::ReplayCursor cursor(pi);
    cursor.start(std::move(t), init);

    trace::StepResult a, b;
    uint64_t op = 0;
    while (!live.done()) {
        ASSERT_FALSE(cursor.done()) << "replay short at op " << op;
        ASSERT_EQ(cursor.curPc(), live.curPc()) << "op " << op;
        live.step(a);
        cursor.step(b);
        ASSERT_EQ(a.si, b.si) << "op " << op;
        ASSERT_EQ(a.pc, b.pc) << "op " << op;
        ASSERT_EQ(a.taken, b.taken) << "op " << op;
        ASSERT_EQ(a.addr, b.addr) << "op " << op;
        ASSERT_EQ(a.accessSize, b.accessSize) << "op " << op;
        ASSERT_EQ(a.callDepth, b.callDepth) << "op " << op;
        ASSERT_EQ(a.dep1, b.dep1) << "op " << op;
        ASSERT_EQ(a.dep2, b.dep2) << "op " << op;
        ++op;
    }
    ASSERT_TRUE(cursor.done());
    ASSERT_EQ(cursor.dynCount(), live.dynCount());
}

/**
 * A trace captured from slot 0 must replay into slots 1..7 exactly as
 * a live interpreter runs there, for traces whose taint proof shows
 * them frame-invariant (the only ones the cache serves cross-frame).
 */
void
relocationAcrossSlots(mem::AllocPolicy policy)
{
    auto svc = svc::buildService("memc");
    ASSERT_NE(svc, nullptr);
    trace::ProgramIndex pi(svc->program());
    mem::HeapAllocator alloc(policy);
    auto reqs = genRequests(*svc, 64, 7);

    int clean = 0;
    for (const auto &req : reqs) {
        trace::ThreadInit init0 =
            svc::makeThreadInit(*svc, req, 0, 0, alloc);
        auto t = captureRequest(pi, init0);

        // Every trace, any tier: replay in the frame it was captured
        // in must reproduce the live run.
        expectReplayMatchesLive(pi, t, init0);
        ASSERT_FALSE(::testing::Test::HasFatalFailure());

        if (t->identityDependent() || t->frameDependent())
            continue;
        ++clean;
        for (int slot = 1; slot <= 7; ++slot) {
            trace::ThreadInit initK = svc::makeThreadInit(
                *svc, req, slot, static_cast<uint64_t>(slot), alloc);
            ASSERT_NE(initK.stackTop, init0.stackTop);
            expectReplayMatchesLive(pi, t, initK);
            ASSERT_FALSE(::testing::Test::HasFatalFailure());
        }
    }
    // The scan must actually exercise cross-slot relocation.
    EXPECT_GT(clean, 0);
}

bool
sameDynOp(const trace::DynOp &a, const trace::DynOp &b)
{
    if (a.si != b.si || a.pc != b.pc || a.mask != b.mask ||
        a.takenMask != b.takenMask || a.callDepth != b.callDepth ||
        a.dep1 != b.dep1 || a.dep2 != b.dep2 ||
        a.accessSize != b.accessSize || a.addrCount != b.addrCount ||
        a.pathSwitch != b.pathSwitch || a.endMask != b.endMask ||
        a.batchStart != b.batchStart)
        return false;
    for (uint8_t i = 0; i < a.addrCount; ++i)
        if (a.lane[i] != b.lane[i] || a.addr[i] != b.addr[i])
            return false;
    return true;
}

} // namespace

TEST(Relocation, Slot0ToSlots1Through7GlibcLike)
{
    relocationAcrossSlots(mem::AllocPolicy::GlibcLike);
}

TEST(Relocation, Slot0ToSlots1Through7SimrAware)
{
    relocationAcrossSlots(mem::AllocPolicy::SimrAware);
}

TEST(Classification, TierMatchesTaintAndGatesLookup)
{
    mem::HeapAllocator alloc(mem::AllocPolicy::SimrAware);
    int clean = 0, id_dep = 0;
    for (const auto &name : svc::serviceNames()) {
        auto svc = svc::buildService(name);
        ASSERT_NE(svc, nullptr);
        trace::ProgramIndex pi(svc->program());
        auto reqs = genRequests(*svc, 16, 11);
        for (const auto &req : reqs) {
            trace::ThreadInit init =
                svc::makeThreadInit(*svc, req, 0, 0, alloc);
            auto t = captureRequest(pi, init);

            trace::TraceCache cache;
            cache.insert(pi.fingerprint(), init, t);

            // Exact identity always hits, whatever the tier.
            bool dedup = true;
            EXPECT_NE(cache.lookup(pi.fingerprint(), init, &dedup),
                      nullptr);
            EXPECT_FALSE(dedup);

            // The same request content under a different identity and
            // frame: served only when the taint proof shows the trace
            // invariant (canonical tier).
            trace::ThreadInit other = init;
            other.reqId += 1000;
            other.tid += 1;
            other.stackTop += 0x10000;
            other.heapBase += 0x10000;
            auto hit = cache.lookup(pi.fingerprint(), other, &dedup);
            if (!t->identityDependent() && !t->frameDependent()) {
                ++clean;
                ASSERT_NE(hit, nullptr);
                EXPECT_TRUE(dedup);
            } else {
                ASSERT_EQ(hit, nullptr);
            }

            // Same frame, different request identity: identity-
            // dependent traces must not be shared even there.
            if (t->identityDependent()) {
                ++id_dep;
                trace::ThreadInit sameFrame = init;
                sameFrame.reqId += 1000;
                EXPECT_EQ(cache.lookup(pi.fingerprint(), sameFrame,
                                       nullptr),
                          nullptr);
            }
        }
    }
    // The suite only means something if both tiers actually occur.
    EXPECT_GT(clean, 0);
    EXPECT_GT(id_dep, 0);
}

TEST(TraceCache, ThreadSafeSharedCaptureAndEviction)
{
    auto svc = svc::buildService("urlshort");
    ASSERT_NE(svc, nullptr);
    trace::ProgramIndex pi(svc->program());
    mem::HeapAllocator alloc(mem::AllocPolicy::SimrAware);
    auto reqs = genRequests(*svc, 128, 3);

    // Tiny budget: inserts must evict rather than grow, and never
    // underflow the byte accounting.
    trace::TraceCache cache(64 << 10);
    std::atomic<uint64_t> replayed{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
        workers.emplace_back([&, w]() {
            for (size_t i = static_cast<size_t>(w); i < reqs.size();
                 i += 4) {
                trace::ThreadInit init = svc::makeThreadInit(
                    *svc, reqs[i], 0, static_cast<uint64_t>(w), alloc);
                bool dedup = false;
                if (auto t = cache.lookup(pi.fingerprint(), init,
                                          &dedup)) {
                    trace::ReplayCursor cursor(pi);
                    cursor.start(t, init);
                    trace::StepResult r;
                    while (!cursor.done())
                        cursor.step(r);
                    replayed.fetch_add(cursor.dynCount());
                } else {
                    cache.insert(pi.fingerprint(), init,
                                 captureRequest(pi, init));
                }
            }
        });
    }
    for (auto &t : workers)
        t.join();

    EXPECT_GT(cache.entries(), 0u);
    // Eviction never removes the hottest entry, so the budget may be
    // exceeded by at most one trace -- not unboundedly.
    EXPECT_LE(cache.bytesResident(),
              cache.budgetBytes() + (64 << 10) * 16);
    EXPECT_GT(cache.evictions(), 0u);
}

TEST(StreamTrace, RoundTripsScalarStream)
{
    auto svc = svc::buildService("memc");
    ASSERT_NE(svc, nullptr);
    auto reqs = genRequests(*svc, 32, 5);

    trace::ScalarStream live(
        svc->program(),
        makeScalarProvider(*svc, reqs, 0, mem::AllocPolicy::SimrAware),
        nullptr);
    trace::CapturingStream cap(svc->program(), live);

    std::vector<trace::DynOp> ops;
    trace::DynOp op;
    while (cap.next(op)) {
        ops.push_back(trace::DynOp{});
        ops.back().copyFrom(op);
    }
    auto t = cap.take();
    ASSERT_NE(t, nullptr);
    ASSERT_EQ(t->opCount(), ops.size());

    trace::ReplayStream replay(svc->program(), t);
    size_t i = 0;
    while (replay.next(op)) {
        ASSERT_LT(i, ops.size());
        ASSERT_TRUE(sameDynOp(ops[i], op)) << "op " << i;
        ++i;
    }
    EXPECT_EQ(i, ops.size());
    EXPECT_EQ(replay.requestsCompleted(), live.requestsCompleted());
    EXPECT_EQ(replay.requestsCompleted(), reqs.size());
}

TEST(StreamTrace, PartialDrainIsNeverCached)
{
    auto svc = svc::buildService("memc");
    ASSERT_NE(svc, nullptr);
    auto reqs = genRequests(*svc, 8, 5);

    trace::ScalarStream live(
        svc->program(),
        makeScalarProvider(*svc, reqs, 0, mem::AllocPolicy::SimrAware),
        nullptr);
    trace::CapturingStream cap(svc->program(), live);
    trace::DynOp op;
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(cap.next(op));
    EXPECT_EQ(cap.take(), nullptr);
}

TEST(StreamCacheTest, LruEvictionKeepsHottest)
{
    auto svc = svc::buildService("memc");
    ASSERT_NE(svc, nullptr);

    auto capture = [&](int requests, uint64_t seed) {
        auto reqs = genRequests(*svc, requests, seed);
        trace::ScalarStream live(
            svc->program(),
            makeScalarProvider(*svc, reqs, 0,
                               mem::AllocPolicy::SimrAware),
            nullptr);
        trace::CapturingStream cap(svc->program(), live);
        trace::DynOp op;
        while (cap.next(op)) {
        }
        return cap.take();
    };

    auto t = capture(8, 5);
    ASSERT_NE(t, nullptr);

    // Budget below one stream: the single entry must survive (eviction
    // never frees the hottest entry), further inserts must evict.
    StreamCache small(t->byteSize() / 2);
    small.insert("a", StreamEntry{t, nullptr, simt::SimtStats{}});
    EXPECT_EQ(small.entries(), 1u);
    small.insert("b", StreamEntry{capture(8, 6), nullptr, simt::SimtStats{}});
    EXPECT_EQ(small.entries(), 1u);
    EXPECT_GT(small.evictions(), 0u);

    // "b" is the survivor; a lookup must still replay it faithfully.
    StreamEntry ent;
    EXPECT_FALSE(small.lookup("a", &ent));
    ASSERT_TRUE(small.lookup("b", &ent));
    ASSERT_NE(ent.trace, nullptr);
    trace::ReplayStream replay(svc->program(), ent.trace);
    trace::DynOp op;
    uint64_t n = 0;
    while (replay.next(op))
        ++n;
    EXPECT_EQ(n, ent.trace->opCount());

    // Null-trace entries are rejected, not cached.
    small.insert("null", StreamEntry{nullptr, nullptr, simt::SimtStats{}});
    EXPECT_FALSE(small.lookup("null", &ent));
}

// ---------------------------------------------------------------------------
// All-replay lockstep batches: lanes replaying through their
// ReplayCursors inside the ordinary engine must emit exactly what the
// engine produces live, from the first replay hit on.

namespace
{

/** Engine over one batch of explicit thread contexts. */
simt::LockstepEngine::BatchProvider
oneBatchOf(std::vector<trace::ThreadInit> inits)
{
    auto state = std::make_shared<std::vector<trace::ThreadInit>>(
        std::move(inits));
    auto used = std::make_shared<bool>(false);
    return [state, used](std::vector<trace::ThreadInit> &out) -> int {
        if (*used)
            return 0;
        *used = true;
        out = *state;
        return static_cast<int>(out.size());
    };
}

uint64_t
drainEngine(simt::LockstepEngine &e, std::vector<trace::DynOp> *ops)
{
    trace::DynOp op;
    uint64_t n = 0;
    while (e.next(op)) {
        ++n;
        if (ops) {
            ops->push_back(trace::DynOp{});
            ops->back().copyFrom(op);
        }
    }
    return n;
}

/**
 * One batch of `inits` under both reconvergence policies: live, then
 * over a fresh TraceCache a capturing run and the first all-replay
 * run. The replay run must match live op for op, with every lane a hit
 * and `replayedOps` ops replayed in all. The live batch must diverge
 * iff `diverges`.
 */
void
expectFirstReplayMatchesLive(const isa::Program &prog,
                             const std::vector<trace::ThreadInit> &inits,
                             uint64_t replayedOps, bool diverges)
{
    const int n = static_cast<int>(inits.size());
    for (auto policy : {simt::ReconvPolicy::MinSpPc,
                        simt::ReconvPolicy::StackIpdom}) {
        SCOPED_TRACE(policy == simt::ReconvPolicy::MinSpPc ? "MinSP-PC"
                                                           : "stack-IPDOM");
        simt::LockstepEngine ref(prog, policy, n, oneBatchOf(inits));
        std::vector<trace::DynOp> want;
        drainEngine(ref, &want);
        ASSERT_FALSE(want.empty());
        EXPECT_EQ(ref.stats().divergeEvents > 0, diverges);

        trace::TraceCache cache(64 << 20);
        auto runCached = [&](std::vector<trace::DynOp> *ops) {
            simt::LockstepEngine e(prog, policy, n, oneBatchOf(inits),
                                   simt::SpinEscapeConfig(), &cache);
            drainEngine(e, ops);
            EXPECT_EQ(e.requestsCompleted(), static_cast<uint64_t>(n));
            return e.reuseStats();
        };

        // Run 1 captures every lane: nothing is cached until a lane ends.
        const trace::ReuseStats cold = runCached(nullptr);
        ASSERT_EQ(cold.hits, 0u);
        ASSERT_EQ(cold.misses, static_cast<uint64_t>(n));

        // Run 2: every lane takes its first replay hit.
        std::vector<trace::DynOp> got;
        const trace::ReuseStats warm = runCached(&got);
        EXPECT_EQ(warm.hits, static_cast<uint64_t>(n));
        EXPECT_EQ(warm.misses, 0u);
        EXPECT_EQ(warm.capturedOps, 0u);
        EXPECT_EQ(warm.replayedOps, replayedOps);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i)
            ASSERT_TRUE(sameDynOp(want[i], got[i])) << "op " << i;
    }
}

/** `req` captured in slot 0 if its trace is canonical-tier, else null. */
std::shared_ptr<const trace::CapturedTrace>
canonicalTrace(const svc::Service &svc, const trace::ProgramIndex &pi,
               const svc::Request &req, const mem::HeapAllocator &alloc)
{
    auto t = captureRequest(pi, svc::makeThreadInit(svc, req, 0, 0, alloc));
    if (t->identityDependent() || t->frameDependent())
        return nullptr;
    return t;
}

} // namespace

TEST(CompiledBatch, UniformBatchEngagesKernelBitIdentical)
{
    auto svc = svc::buildService("memc");
    ASSERT_NE(svc, nullptr);
    trace::ProgramIndex pi(svc->program());
    mem::HeapAllocator alloc(mem::AllocPolicy::SimrAware);
    auto reqs = genRequests(*svc, 32, 7);

    // One canonical-tier request in four slots: all four lanes dedup
    // onto one cache entry, and the batch never diverges.
    const svc::Request *req = nullptr;
    std::shared_ptr<const trace::CapturedTrace> t;
    for (const auto &r : reqs) {
        t = canonicalTrace(*svc, pi, r, alloc);
        if (t != nullptr) {
            req = &r;
            break;
        }
    }
    ASSERT_NE(req, nullptr);
    std::vector<trace::ThreadInit> inits;
    for (int l = 0; l < 4; ++l)
        inits.push_back(svc::makeThreadInit(*svc, *req, l,
                                            static_cast<uint64_t>(l), alloc));

    expectFirstReplayMatchesLive(svc->program(), inits, 4 * t->opCount(),
                                 false);
}

TEST(CompiledBatch, MixedShapeBatchFallsBackBitIdentical)
{
    auto svc = svc::buildService("memc");
    ASSERT_NE(svc, nullptr);
    trace::ProgramIndex pi(svc->program());
    mem::HeapAllocator alloc(mem::AllocPolicy::SimrAware);
    auto reqs = genRequests(*svc, 64, 21);

    // Two canonical-tier requests that take different paths, alternating
    // across four lanes: the replaying lanes diverge, so the engine's
    // grouping and divergence machinery runs over them.
    const svc::Request *a = nullptr, *b = nullptr;
    std::shared_ptr<const trace::CapturedTrace> ta, tb;
    for (const auto &r : reqs) {
        auto t = canonicalTrace(*svc, pi, r, alloc);
        if (t == nullptr)
            continue;
        if (a == nullptr) {
            a = &r;
            ta = t;
        } else if (t->staticIdx() != ta->staticIdx()) {
            b = &r;
            tb = t;
            break;
        }
    }
    ASSERT_NE(b, nullptr);
    std::vector<trace::ThreadInit> inits;
    for (int l = 0; l < 4; ++l)
        inits.push_back(svc::makeThreadInit(*svc, l % 2 == 0 ? *a : *b, l,
                                            static_cast<uint64_t>(l), alloc));

    expectFirstReplayMatchesLive(svc->program(), inits,
                                 2 * ta->opCount() + 2 * tb->opCount(),
                                 true);
}

TEST(StreamTrace, RoundTripsDivergentLockstepStream)
{
    auto svc = svc::buildService("memc");
    ASSERT_NE(svc, nullptr);
    mem::HeapAllocator alloc(mem::AllocPolicy::SimrAware);
    auto reqs = genRequests(*svc, 8, 9);

    std::vector<trace::ThreadInit> inits;
    for (int l = 0; l < static_cast<int>(reqs.size()); ++l)
        inits.push_back(svc::makeThreadInit(
            *svc, reqs[static_cast<size_t>(l)], l,
            static_cast<uint64_t>(l), alloc));

    // A divergent lockstep batch: partial masks, path switches and
    // multi-lane memory payloads all flow into the stream columns.
    simt::LockstepEngine engine(svc->program(),
                                simt::ReconvPolicy::MinSpPc, 8,
                                oneBatchOf(std::move(inits)));
    trace::CapturingStream cap(svc->program(), engine);
    std::vector<trace::DynOp> ops;
    trace::DynOp op;
    while (cap.next(op)) {
        ops.push_back(trace::DynOp{});
        ops.back().copyFrom(op);
    }
    auto t = cap.take();
    ASSERT_NE(t, nullptr);
    ASSERT_EQ(t->opCount(), ops.size());
    EXPECT_GT(engine.stats().divergeEvents, 0u)
        << "batch must diverge for this test to mean anything";

    trace::ReplayStream replay(svc->program(), t);
    size_t i = 0;
    while (replay.next(op)) {
        ASSERT_LT(i, ops.size());
        ASSERT_TRUE(sameDynOp(ops[i], op)) << "op " << i;
        ++i;
    }
    EXPECT_EQ(i, ops.size());
    EXPECT_EQ(replay.requestsCompleted(), engine.requestsCompleted());
}
