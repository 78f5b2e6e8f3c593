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
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "batching/policy.h"
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

namespace
{

/** Live-run `requests` memc requests on one scalar stream, captured. */
std::shared_ptr<const trace::StreamTrace>
captureScalarStream(const svc::Service &svc, int requests, uint64_t seed)
{
    auto reqs = genRequests(svc, requests, seed);
    trace::ScalarStream live(
        svc.program(),
        makeScalarProvider(svc, reqs, 0, mem::AllocPolicy::SimrAware),
        nullptr);
    trace::CapturingStream cap(svc.program(), live);
    trace::DynOp op;
    while (cap.next(op)) {
    }
    return cap.take();
}

} // namespace

TEST(StreamCacheTest, LruEvictionKeepsHottest)
{
    auto svc = svc::buildService("memc");
    ASSERT_NE(svc, nullptr);

    auto t = captureScalarStream(*svc, 8, 5);
    ASSERT_NE(t, nullptr);

    // Budget below one stream: the single entry must survive (eviction
    // never frees the hottest entry), further inserts must evict.
    StreamCache small(t->byteSize() / 2);
    small.insert("a", StreamEntry{t, nullptr, simt::SimtStats{}});
    EXPECT_EQ(small.entries(), 1u);
    small.insert("b", StreamEntry{captureScalarStream(*svc, 8, 6), nullptr,
                                  simt::SimtStats{}});
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

TEST(StreamCacheTest, EntryCarriesProducerStats)
{
    auto svc = svc::buildService("memc");
    ASSERT_NE(svc, nullptr);
    auto t = captureScalarStream(*svc, 8, 5);
    ASSERT_NE(t, nullptr);

    simt::SimtStats stats;
    stats.batches = 5;
    stats.scalarOps = 500;
    StreamCache cache;
    cache.insert("stream", StreamEntry{t, nullptr, stats});
    EXPECT_EQ(cache.entries(), 1u);

    // A lookup serves the stream with its producer's stats; an absent
    // key misses. Both count.
    StreamEntry ent;
    ASSERT_TRUE(cache.lookup("stream", &ent));
    EXPECT_EQ(ent.trace, t);
    EXPECT_EQ(ent.stats.batches, 5u);
    EXPECT_EQ(ent.stats.scalarOps, 500u);
    EXPECT_FALSE(cache.lookup("absent", &ent));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);

    cache.clear();
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_FALSE(cache.lookup("stream", &ent));
}

TEST(StreamCacheTest, BytesResidentFollowsStreams)
{
    auto svc = svc::buildService("memc");
    ASSERT_NE(svc, nullptr);
    auto t = captureScalarStream(*svc, 8, 5);
    ASSERT_NE(t, nullptr);

    // Budget below one stream: every stream insert after the first
    // evicts.
    StreamCache small(t->byteSize() / 2);
    small.insert("a", StreamEntry{t, nullptr, simt::SimtStats{}});
    EXPECT_EQ(small.bytesResident(), t->byteSize());
    small.insert("b", StreamEntry{captureScalarStream(*svc, 8, 6), nullptr,
                                  simt::SimtStats{}});
    small.insert("c", StreamEntry{captureScalarStream(*svc, 8, 7), nullptr,
                                  simt::SimtStats{}});
    EXPECT_EQ(small.evictions(), 2u);
    EXPECT_EQ(small.entries(), 1u);
}

TEST(StreamCacheTest, OpsResidentFollowsStreams)
{
    auto svc = svc::buildService("memc");
    ASSERT_NE(svc, nullptr);
    auto a = captureScalarStream(*svc, 8, 5);
    auto b = captureScalarStream(*svc, 8, 6);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);

    // Room for both streams: ops add up; a repeat adds none.
    StreamCache cache(a->byteSize() + b->byteSize());
    cache.insert("a", StreamEntry{a, nullptr, simt::SimtStats{}});
    cache.insert("a", StreamEntry{b, nullptr, simt::SimtStats{}});
    EXPECT_EQ(cache.opsResident(), a->opCount());
    cache.insert("b", StreamEntry{b, nullptr, simt::SimtStats{}});
    EXPECT_EQ(cache.opsResident(), a->opCount() + b->opCount());

    // An eviction takes its stream's ops with it; clear takes the rest.
    cache.insert("c", StreamEntry{captureScalarStream(*svc, 8, 7), nullptr,
                                  simt::SimtStats{}});
    EXPECT_EQ(cache.evictions(), 1u);
    StreamEntry ent;
    ASSERT_TRUE(cache.lookup("c", &ent));
    EXPECT_EQ(cache.opsResident(), b->opCount() + ent.trace->opCount());
    cache.clear();
    EXPECT_EQ(cache.opsResident(), 0u);
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

TEST(AllReplayBatch, UniformMatchesLive)
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

TEST(AllReplayBatch, DivergentMatchesLive)
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

// ---------------------------------------------------------------------------
// The compact stream format: what a StreamTrace stores is only what its
// ops do not imply, so every derived field must come back exactly.

namespace
{

/**
 * A stream op at `flat` with `mask`, carrying the payload StreamTrace
 * implies: a memory op gets its mask's set bits as lanes, the
 * instruction's access size and lane i's address addr(i).
 */
template <class Addr>
trace::DynOp
streamOp(const trace::ProgramIndex &pi, uint32_t flat, trace::Mask mask,
         Addr addr)
{
    trace::DynOp op;
    op.si = pi.inst(flat);
    op.pc = pi.pcOf(flat);
    op.mask = mask;
    if (op.isMem()) {
        op.accessSize = op.si->accessSize;
        for (trace::Mask m = mask; m != 0; m &= m - 1) {
            op.lane[op.addrCount] =
                static_cast<uint8_t>(__builtin_ctz(m));
            op.addr[op.addrCount] = addr(op.addrCount);
            ++op.addrCount;
        }
    }
    return op;
}

/** First flat index in `pi` whose instruction is (not) a memory op. */
uint32_t
firstFlat(const trace::ProgramIndex &pi, bool mem)
{
    for (uint32_t f = 0; f < pi.instCount(); ++f)
        if (isa::opInfo(pi.inst(f)->op).isMem == mem)
            return f;
    ADD_FAILURE() << "no " << (mem ? "memory" : "other") << " op";
    return 0;
}

/** Capture `ops` through a StreamCaptureBuilder. */
std::shared_ptr<const trace::StreamTrace>
captureOps(const trace::ProgramIndex &pi,
           const std::vector<trace::DynOp> &ops)
{
    trace::StreamCaptureBuilder builder(pi);
    builder.reset();
    for (const trace::DynOp &op : ops)
        builder.onOp(op);
    return builder.finish();
}

/** Replay `t` and require exactly `ops`, every field compared. */
void
expectReplays(const isa::Program &prog,
              std::shared_ptr<const trace::StreamTrace> t,
              const std::vector<trace::DynOp> &ops)
{
    ASSERT_NE(t, nullptr);
    ASSERT_EQ(t->opCount(), ops.size());
    trace::ReplayStream replay(prog, std::move(t));
    trace::DynOp op;
    uint64_t ended = 0;
    size_t i = 0;
    while (replay.next(op)) {
        ASSERT_LT(i, ops.size());
        ASSERT_TRUE(sameDynOp(ops[i], op)) << "op " << i;
        ended += static_cast<uint64_t>(trace::popcount(ops[i].endMask));
        ++i;
    }
    EXPECT_EQ(i, ops.size());
    EXPECT_FALSE(replay.next(op)) << "an exhausted stream stays exhausted";
    EXPECT_EQ(replay.requestsCompleted(), ended);
}

/** Drain a captured stream, keeping a copy of every op. */
std::vector<trace::DynOp>
drainCaptured(trace::CapturingStream &cap)
{
    std::vector<trace::DynOp> ops;
    trace::DynOp op;
    while (cap.next(op)) {
        ops.push_back(trace::DynOp{});
        ops.back().copyFrom(op);
    }
    return ops;
}

} // namespace

TEST(StreamTrace, RoundTripsEveryEncodingEdge)
{
    auto svc = svc::buildService("memc");
    ASSERT_NE(svc, nullptr);
    trace::ProgramIndex pi(svc->program());
    const uint32_t mem = firstFlat(pi, true);
    const uint32_t alu = firstFlat(pi, false);
    ASSERT_GT(pi.instCount(), 3u);
    auto strided = [](uint64_t base, uint64_t stride) {
        return [=](uint8_t i) { return base + i * stride; };
    };
    auto scattered = [](uint8_t i) {
        return 0x7000'0000ULL + (uint64_t{i} * i * 40503) % 4099 * 8;
    };

    std::vector<trace::DynOp> ops;
    // The first op sits at flat index 0: the index every stream starts
    // by expecting, so it must be implied, not lost.
    ops.push_back(streamOp(pi, 0, 0xff, strided(0x1000, 8)));
    ops.back().batchStart = true;
    // Sequential, repeated and backward static indices.
    ops.push_back(streamOp(pi, 1, 0xff, strided(0x2000, 8)));
    ops.push_back(streamOp(pi, 1, 0xff, strided(0x2000, 8)));
    ops.push_back(streamOp(pi, 0, 0xff, strided(0x3000, 8)));
    // Dependence distances around the one-byte escape, up to the clamp.
    for (uint16_t d : {uint16_t{254}, uint16_t{255}, uint16_t{256},
                       uint16_t{0xfffe}, uint16_t{0xffff}}) {
        ops.push_back(streamOp(pi, alu, 0xff, scattered));
        ops.back().dep1 = d;
        ops.back().dep2 = static_cast<uint16_t>(0xffff - d + 1);
    }
    ops.back().dep2 = 0xffff;
    // Call depth changes inside one batch, with and without mask
    // changes, and a path switch onto a partial mask.
    for (uint8_t depth : {1, 2, 2, 255, 0}) {
        ops.push_back(streamOp(pi, alu, 0xff, scattered));
        ops.back().callDepth = depth;
    }
    ops.push_back(streamOp(pi, mem, 0x0f, strided(0x4000, 16)));
    ops.back().pathSwitch = true;
    ops.back().callDepth = 3;
    ops.push_back(streamOp(pi, mem, 0xf0, scattered));
    ops.back().pathSwitch = true;
    // Strided and non-strided memory ops mixed: one lane, two lanes,
    // a descending stride that wraps below zero, every lane of a
    // 32-wide batch, and a progression broken by its last lane.
    ops.push_back(streamOp(pi, mem, 0x10, scattered));
    ops.push_back(streamOp(pi, mem, 0x41, scattered));
    ops.push_back(streamOp(pi, mem, 0x7, strided(16, ~uint64_t{0} - 15)));
    ops.push_back(streamOp(pi, mem, 0xffffffffu, strided(0x8000, 64)));
    ops.push_back(streamOp(pi, mem, 0xffffffffu, [](uint8_t i) {
        return 0x8000 + uint64_t{i} * 64 + (i == 31 ? 8 : 0);
    }));
    ops.push_back(streamOp(pi, mem, 0xffffffffu, scattered));
    // Branch and completion masks, and a new batch.
    ops.push_back(streamOp(pi, alu, 0xffffffffu, scattered));
    ops.back().takenMask = 0x5;
    ops.back().endMask = 0xffff0000u;
    ops.push_back(streamOp(pi, mem, 0x1, strided(0x9000, 0)));
    ops.back().batchStart = true;
    ops.back().endMask = 0x1;

    expectReplays(svc->program(), captureOps(pi, ops), ops);
}

TEST(StreamTrace, RoundTripsEmptyStream)
{
    auto svc = svc::buildService("memc");
    ASSERT_NE(svc, nullptr);
    trace::ProgramIndex pi(svc->program());
    auto t = captureOps(pi, {});
    expectReplays(svc->program(), t, {});
    EXPECT_EQ(t->byteSize(), sizeof(trace::StreamTrace));

    // A drained producer with no requests captures an empty stream.
    trace::ScalarStream live(
        svc->program(),
        makeScalarProvider(*svc, {}, 0, mem::AllocPolicy::SimrAware),
        nullptr);
    trace::CapturingStream cap(svc->program(), live);
    EXPECT_TRUE(drainCaptured(cap).empty());
    expectReplays(svc->program(), cap.take(), {});
}

TEST(StreamTrace, RoundTripsMinSpLockstepWithEveryFeature)
{
    // A 32-wide MinSP-PC batch of one service: divergent paths change
    // the mask, calls change the depth inside the batch, and its memory
    // ops mix lane-strided addresses (interleaved stacks) with
    // scattered ones (per-request keys).
    auto svc = svc::buildService("memc");
    ASSERT_NE(svc, nullptr);
    mem::HeapAllocator alloc(mem::AllocPolicy::SimrAware);
    auto reqs = genRequests(*svc, 32, 3);
    std::vector<trace::ThreadInit> inits;
    for (int l = 0; l < static_cast<int>(reqs.size()); ++l)
        inits.push_back(svc::makeThreadInit(
            *svc, reqs[static_cast<size_t>(l)], l,
            static_cast<uint64_t>(l), alloc));
    simt::LockstepEngine engine(svc->program(),
                                simt::ReconvPolicy::MinSpPc, 32,
                                oneBatchOf(std::move(inits)));
    trace::CapturingStream cap(svc->program(), engine);
    std::vector<trace::DynOp> ops = drainCaptured(cap);
    ASSERT_FALSE(ops.empty());

    int maskChanges = 0, depthChanges = 0, strided = 0, scattered = 0;
    for (size_t i = 1; i < ops.size(); ++i) {
        const trace::DynOp &op = ops[i];
        maskChanges += op.mask != ops[i - 1].mask;
        depthChanges += op.callDepth != ops[i - 1].callDepth;
        if (op.addrCount < 3)
            continue;
        bool ap = true;
        for (uint8_t k = 2; k < op.addrCount; ++k)
            ap = ap && op.addr[k] - op.addr[k - 1] == op.addr[1] - op.addr[0];
        (ap ? strided : scattered)++;
    }
    EXPECT_GT(engine.stats().divergeEvents, 0u);
    EXPECT_GT(maskChanges, 0);
    EXPECT_GT(depthChanges, 0);
    EXPECT_GT(strided, 0);
    EXPECT_GT(scattered, 0);

    expectReplays(svc->program(), cap.take(), ops);
}

TEST(StreamTrace, StaysCompactPerOp)
{
    // Measured on these captures: 6.1 B per op on the scalar stream and
    // 9.9 on the lockstep one, where plain per-op columns took 17.8 and
    // 32.8. Each bound sits about 1 B/op above its measurement, so a
    // format that stopped implying the static index, the mask or a
    // stride, or stored lanes again, fails here and not only in a run's
    // peak RSS.
    auto svc = svc::buildService("memc");
    ASSERT_NE(svc, nullptr);
    auto scalar = captureScalarStream(*svc, 32, 5);
    ASSERT_NE(scalar, nullptr);
    ASSERT_GT(scalar->opCount(), 1000u);
    EXPECT_LT(static_cast<double>(scalar->byteSize()) /
                  static_cast<double>(scalar->opCount()),
              7.0);

    // RPU-shaped: 8-wide batches formed per API, argument and size.
    batch::BatchingServer server(batch::Policy::PerApiArgSize, 8);
    simt::LockstepEngine engine(
        svc->program(), simt::ReconvPolicy::MinSpPc, 8,
        makeBatchProvider(*svc, server.formBatches(genRequests(*svc, 64, 3)),
                          mem::AllocPolicy::SimrAware));
    trace::CapturingStream cap(svc->program(), engine);
    drainCaptured(cap);
    auto lockstep = cap.take();
    ASSERT_NE(lockstep, nullptr);
    ASSERT_GT(lockstep->opCount(), 1000u);
    EXPECT_LT(static_cast<double>(lockstep->byteSize()) /
                  static_cast<double>(lockstep->opCount()),
              11.0);
}

TEST(StreamTraceDeathTest, OpWhoseLanesAreNotItsMaskBitsPanics)
{
    auto svc = svc::buildService("memc");
    ASSERT_NE(svc, nullptr);
    trace::ProgramIndex pi(svc->program());
    const uint32_t mem = firstFlat(pi, true);
    auto at = [](uint8_t i) { return 0x1000 + uint64_t{i} * 8; };

    // Lanes out of ascending order, a lane outside the mask, a lane
    // missing, and a non-memory op carrying addresses.
    trace::DynOp swapped = streamOp(pi, mem, 0x6, at);
    std::swap(swapped.lane[0], swapped.lane[1]);
    trace::DynOp outside = streamOp(pi, mem, 0x6, at);
    outside.lane[1] = 3;
    trace::DynOp missing = streamOp(pi, mem, 0x6, at);
    missing.addrCount = 1;
    trace::DynOp alu = streamOp(pi, firstFlat(pi, false), 0x1, at);
    alu.addrCount = 1;
    for (const trace::DynOp *op : {&swapped, &outside, &missing, &alu}) {
        trace::StreamCaptureBuilder builder(pi);
        builder.reset();
        EXPECT_DEATH(builder.onOp(*op), "not implied by its mask");
    }
}
