/**
 * @file
 * Trace capture/replay unit tests: relocation across hardware slots,
 * taint-tier classification, cache thread-safety and eviction, the
 * lane-major batch kernel, and stream-level (whole front end)
 * round-trips.
 *
 * The tier-1 trace_replay_gate proves replay bit-identical end to end;
 * these tests pin down the mechanisms underneath it -- in particular
 * that a trace captured in slot 0's frame replays *relocated* into
 * slots 1..7 exactly as a live interpreter runs there, under both
 * allocator policies.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "mem/allocator.h"
#include "services/service.h"
#include "simr/runner.h"
#include "simr/streamcache.h"
#include "simt/lockstep.h"
#include "trace/capture.h"
#include "trace/compile.h"
#include "trace/kernels.h"
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
// Lane-major batch kernel: a uniform all-replay batch must emit exactly
// what the lockstep engine produces live, from the first replay hit on.

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

} // namespace

TEST(CompiledBatch, UniformBatchEngagesKernelBitIdentical)
{
    auto svc = svc::buildService("memc");
    ASSERT_NE(svc, nullptr);
    trace::ProgramIndex pi(svc->program());
    mem::HeapAllocator alloc(mem::AllocPolicy::SimrAware);
    auto reqs = genRequests(*svc, 32, 7);

    // A canonical-tier request: all four lanes dedup onto one cache
    // entry, so the batch is shape-uniform by construction.
    const svc::Request *cleanReq = nullptr;
    std::shared_ptr<const trace::CapturedTrace> ct;
    for (const auto &req : reqs) {
        auto t = captureRequest(
            pi, svc::makeThreadInit(*svc, req, 0, 0, alloc));
        if (!t->identityDependent() && !t->frameDependent()) {
            cleanReq = &req;
            ct = t;
            break;
        }
    }
    ASSERT_NE(cleanReq, nullptr);

    auto inits4 = [&]() {
        std::vector<trace::ThreadInit> v;
        for (int l = 0; l < 4; ++l)
            v.push_back(svc::makeThreadInit(
                *svc, *cleanReq, l, static_cast<uint64_t>(l), alloc));
        return v;
    };

    // Reference: the same batch interpreted live, no cache.
    simt::LockstepEngine ref(svc->program(),
                             simt::ReconvPolicy::MinSpPc, 4,
                             oneBatchOf(inits4()));
    std::vector<trace::DynOp> want;
    drainEngine(ref, &want);
    ASSERT_FALSE(want.empty());

    trace::TraceCache cache(64 << 20);
    auto runCached = [&](std::vector<trace::DynOp> *ops) {
        simt::LockstepEngine e(svc->program(),
                               simt::ReconvPolicy::MinSpPc, 4,
                               oneBatchOf(inits4()),
                               simt::SpinEscapeConfig(), &cache);
        drainEngine(e, ops);
        EXPECT_EQ(e.requestsCompleted(), 4u);
        return e.reuseStats();
    };

    // Run 1 captures (4 misses on one key, first insert wins).
    runCached(nullptr);
    ASSERT_EQ(cache.hits(), 0u);

    // Run 2: every lane takes its *first* replay hit on that entry, and
    // the lane-major batch kernel takes the whole batch. compiledOps
    // grows by exactly the batch-op count -- the engagement signature
    // (per-lane cursor replay credits no kernel ops at all).
    const trace::CompileCounters before = trace::compileCounters();
    std::vector<trace::DynOp> got;
    const trace::ReuseStats reuse = runCached(&got);
    const trace::CompileCounters after = trace::compileCounters();

    EXPECT_EQ(cache.hits(), 4u);
    EXPECT_EQ(reuse.hits, 4u);
    EXPECT_EQ(reuse.replayedOps, 4 * ct->opCount());
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i)
        ASSERT_TRUE(sameDynOp(want[i], got[i])) << "kernel op " << i;
    EXPECT_EQ(after.compiledOps - before.compiledOps, ct->opCount());

    // With AVX2 live, every memory op relocated all 4 lanes vectorized.
    const uint64_t memOps = ct->memAddr().size();
    ASSERT_GT(memOps, 0u);
    if (trace::simdAvailable()) {
        EXPECT_EQ(after.simdLanes - before.simdLanes, 4 * memOps);
    }
}

TEST(CompiledBatch, MixedShapeBatchFallsBackBitIdentical)
{
    auto svc = svc::buildService("memc");
    ASSERT_NE(svc, nullptr);
    trace::ProgramIndex pi(svc->program());
    mem::HeapAllocator alloc(mem::AllocPolicy::SimrAware);
    auto reqs = genRequests(*svc, 64, 21);

    // Two requests whose traces have equal op counts but different
    // shapes: only the shape fingerprint keeps the kernel off them.
    const svc::Request *a = nullptr, *b = nullptr;
    std::map<uint64_t, std::pair<uint64_t, const svc::Request *>> byCount;
    for (const auto &req : reqs) {
        auto t = captureRequest(
            pi, svc::makeThreadInit(*svc, req, 0, 0, alloc));
        auto [it, fresh] = byCount.try_emplace(
            t->opCount(), t->shapeFingerprint(), &req);
        if (!fresh && it->second.first != t->shapeFingerprint()) {
            a = it->second.second;
            b = &req;
            break;
        }
    }
    ASSERT_NE(b, nullptr);

    auto inits4 = [&]() {
        std::vector<trace::ThreadInit> v;
        for (int l = 0; l < 4; ++l)
            v.push_back(svc::makeThreadInit(
                *svc, l % 2 == 0 ? *a : *b, l, static_cast<uint64_t>(l),
                alloc));
        return v;
    };

    for (auto policy : {simt::ReconvPolicy::MinSpPc,
                        simt::ReconvPolicy::StackIpdom}) {
        simt::LockstepEngine ref(svc->program(), policy, 4,
                                 oneBatchOf(inits4()));
        std::vector<trace::DynOp> want;
        drainEngine(ref, &want);
        ASSERT_FALSE(want.empty());

        // Three cached runs: capture, then two all-replay batches
        // mixing the two shapes, so the batch kernel declines and the
        // per-lane cursors run through the full grouping/divergence
        // machinery -- which must stay bit-identical throughout.
        trace::TraceCache cache(64 << 20);
        for (int run = 0; run < 3; ++run) {
            simt::LockstepEngine e(svc->program(), policy, 4,
                                   oneBatchOf(inits4()),
                                   simt::SpinEscapeConfig(), &cache);
            const uint64_t ops0 = trace::compileCounters().compiledOps;
            std::vector<trace::DynOp> got;
            drainEngine(e, &got);
            EXPECT_EQ(trace::compileCounters().compiledOps, ops0)
                << "run " << run << ": the kernel took a mixed batch";
            ASSERT_EQ(got.size(), want.size()) << "run " << run;
            for (size_t i = 0; i < want.size(); ++i)
                ASSERT_TRUE(sameDynOp(want[i], got[i]))
                    << "run " << run << " op " << i;
        }
    }
}

TEST(ShapeFingerprint, ConcurrentFirstUseAgreesAcrossWorkers)
{
    auto svc = svc::buildService("urlshort");
    ASSERT_NE(svc, nullptr);
    trace::ProgramIndex pi(svc->program());
    mem::HeapAllocator alloc(mem::AllocPolicy::SimrAware);
    auto reqs = genRequests(*svc, 16, 3);

    // Two independent captures of every request: `shared` is raced by
    // four workers on first use, `solo` is hashed by one thread after.
    std::vector<std::shared_ptr<const trace::CapturedTrace>> shared, solo;
    for (const auto &req : reqs) {
        auto init = svc::makeThreadInit(*svc, req, 0, 0, alloc);
        shared.push_back(captureRequest(pi, init));
        solo.push_back(captureRequest(pi, init));
    }

    const size_t n = shared.size();
    std::vector<std::vector<uint64_t>> seen(4, std::vector<uint64_t>(n));
    std::vector<std::thread> workers;
    for (size_t w = 0; w < 4; ++w) {
        workers.emplace_back([&, w]() {
            // Each worker starts at a different offset, so first uses
            // collide on every trace.
            for (size_t k = 0; k < n; ++k) {
                const size_t i = (k + w * 3) % n;
                seen[w][i] = shared[i]->shapeFingerprint();
            }
        });
    }
    for (auto &t : workers)
        t.join();

    std::set<uint64_t> distinct;
    for (size_t i = 0; i < n; ++i) {
        const uint64_t fp = solo[i]->shapeFingerprint();
        distinct.insert(fp);
        for (size_t w = 0; w < 4; ++w)
            EXPECT_EQ(seen[w][i], fp) << "worker " << w << " trace " << i;
    }
    // The hash tells distinct op sequences apart.
    EXPECT_GT(distinct.size(), 1u);

    // Shape excludes addresses: the same canonical-tier request captured
    // in another frame has other addresses but the same shape.
    for (const auto &req : reqs) {
        auto t0 = captureRequest(pi, svc::makeThreadInit(*svc, req, 0, 0,
                                                         alloc));
        if (t0->identityDependent() || t0->frameDependent())
            continue;
        auto t5 = captureRequest(pi, svc::makeThreadInit(*svc, req, 5, 5,
                                                         alloc));
        ASSERT_FALSE(t0->memAddr().empty());
        EXPECT_NE(t0->memAddr(), t5->memAddr());
        EXPECT_EQ(t0->shapeFingerprint(), t5->shapeFingerprint());
        break;
    }
}

TEST(LaneRelocation, Avx2MatchesScalar)
{
    if (!trace::simdAvailable())
        GTEST_SKIP() << "AVX2 relocation unavailable ("
                     << (trace::simdCompiledIn() ? "no AVX2 CPU"
                                                 : "-DSIMR_SIMD=OFF")
                     << "); only the scalar path runs on this host";

    // Addresses and shifts from the whole 64-bit range, so most lane
    // sums wrap mod 2^64; row 0 pins one explicit wrap per lane.
    constexpr int kRows = 8;
    Rng rng(0x5eed);
    std::vector<std::vector<uint64_t>> cols(
        trace::kMaxBatch, std::vector<uint64_t>(kRows));
    const uint64_t *ptrs[trace::kMaxBatch];
    const uint64_t *sharedPtrs[trace::kMaxBatch];
    alignas(32) uint64_t shifts[trace::kMaxBatch];
    for (int i = 0; i < trace::kMaxBatch; ++i) {
        auto &col = cols[static_cast<size_t>(i)];
        col[0] = ~uint64_t{0} - static_cast<uint64_t>(i);
        for (int r = 1; r < kRows; ++r)
            col[static_cast<size_t>(r)] = rng.next();
        shifts[i] = rng.next() | (uint64_t{1} << 63);
        ptrs[i] = col.data();
        sharedPtrs[i] = cols[0].data();
    }

    int wraps = 0;
    for (int n = 1; n <= trace::kMaxBatch; ++n) {
        for (bool shared : {false, true}) {
            const uint64_t *const *src = shared ? sharedPtrs : ptrs;
            for (uint64_t row = 0; row < kRows; ++row) {
                uint64_t want[trace::kMaxBatch], got[trace::kMaxBatch];
                std::fill(std::begin(want), std::end(want), 0xabab);
                std::fill(std::begin(got), std::end(got), 0xabab);
                trace::detail::relocScalar(want, src, row, shifts, n,
                                           shared);
                trace::detail::relocAvx2(got, src, row, shifts, n, shared);
                for (int i = 0; i < trace::kMaxBatch; ++i) {
                    ASSERT_EQ(got[i], want[i])
                        << "n " << n << " shared " << shared << " row "
                        << row << " lane " << i;
                    if (i < n) {
                        ASSERT_EQ(want[i], src[i][row] + shifts[i]);
                        wraps += want[i] < src[i][row] ? 1 : 0;
                    } else {
                        ASSERT_EQ(want[i], 0xababu) << "wrote past n";
                    }
                }
            }
        }
    }
    EXPECT_GT(wraps, 0);
}

TEST(StreamTrace, CompiledStreamMatchesDenseReplayScalar)
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

    auto k = trace::compileStream(t);
    ASSERT_NE(k, nullptr);
    ASSERT_EQ(k->opCount(), t->opCount());
    ASSERT_EQ(k->totalCompleted(), reqs.size());

    // Op-by-op: the kernel path must emit the dense columns exactly.
    trace::ReplayStream replay(svc->program(), t, k);
    size_t i = 0;
    while (replay.next(op)) {
        ASSERT_LT(i, ops.size());
        ASSERT_TRUE(sameDynOp(ops[i], op)) << "op " << i;
        ++i;
    }
    EXPECT_EQ(i, ops.size());
    EXPECT_EQ(replay.requestsCompleted(), reqs.size());

    // drainCompiled: a partially-consumed compiled stream finishes in
    // O(1) with the precomputed aggregates.
    trace::ReplayStream drain(svc->program(), t, k);
    for (int j = 0; j < 10; ++j)
        ASSERT_TRUE(drain.next(op));
    uint64_t total = 10;
    ASSERT_TRUE(drain.drainCompiled(&total));
    EXPECT_EQ(total, t->opCount());
    EXPECT_EQ(drain.requestsCompleted(), reqs.size());

    // Without a kernel the caller must fall back to the per-op drain.
    trace::ReplayStream dense(svc->program(), t);
    uint64_t unused = 0;
    EXPECT_FALSE(dense.drainCompiled(&unused));
}

TEST(StreamTrace, CompiledStreamMatchesDenseReplayDivergent)
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
    EXPECT_GT(engine.stats().divergeEvents, 0u)
        << "batch must diverge for this test to mean anything";

    auto k = trace::compileStream(t);
    ASSERT_NE(k, nullptr);
    ASSERT_EQ(k->opCount(), t->opCount());
    ASSERT_EQ(k->totalCompleted(), engine.requestsCompleted());

    trace::ReplayStream replay(svc->program(), t, k);
    size_t i = 0;
    while (replay.next(op)) {
        ASSERT_LT(i, ops.size());
        ASSERT_TRUE(sameDynOp(ops[i], op)) << "op " << i;
        ++i;
    }
    EXPECT_EQ(i, ops.size());
    EXPECT_EQ(replay.requestsCompleted(), engine.requestsCompleted());
}
