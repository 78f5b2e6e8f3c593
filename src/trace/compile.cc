#include "trace/compile.h"

#include <atomic>
#include <chrono>

#include "common/logging.h"
#include "trace/replay.h"

namespace simr::trace
{

// ---------------------------------------------------------------------------
// SIMD availability and counters

namespace
{

struct Counters
{
    std::atomic<uint64_t> compiledStreams{0};
    std::atomic<uint64_t> compileUs{0};
    std::atomic<uint64_t> compiledOps{0};
    std::atomic<uint64_t> simdLanes{0};
};

Counters gCounters;

using Clock = std::chrono::steady_clock;

uint64_t
usSince(Clock::time_point t0)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - t0)
            .count());
}

} // namespace

bool
simdCompiledIn()
{
#ifdef SIMR_SIMD_BUILD
    return true;
#else
    return false;
#endif
}

bool
simdAvailable()
{
#ifdef SIMR_SIMD_BUILD
    static const bool avail = __builtin_cpu_supports("avx2");
    return avail;
#else
    return false;
#endif
}

CompileCounters
compileCounters()
{
    CompileCounters c;
    c.compiledStreams =
        gCounters.compiledStreams.load(std::memory_order_relaxed);
    c.compileUs = gCounters.compileUs.load(std::memory_order_relaxed);
    c.compiledOps = gCounters.compiledOps.load(std::memory_order_relaxed);
    c.simdLanes = gCounters.simdLanes.load(std::memory_order_relaxed);
    return c;
}

void
addCompiledOps(uint64_t n)
{
    gCounters.compiledOps.fetch_add(n, std::memory_order_relaxed);
}

void
addSimdLanes(uint64_t n)
{
    gCounters.simdLanes.fetch_add(n, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Stream-level lowering

std::shared_ptr<const CompiledStream>
compileStream(std::shared_ptr<const StreamTrace> t)
{
    simr_assert(t != nullptr, "compiling a null stream trace");
    const auto t0 = Clock::now();

    auto out = std::make_shared<CompiledStream>();
    out->src_ = std::move(t);
    const StreamTrace &src = *out->src_;
    const uint64_t n = src.opCount();
    out->ops_ = n;

    const uint32_t *idx = src.staticIdx().data();
    const uint8_t *flg = src.flags().data();
    const Mask *mask = src.maskCol().data();
    const uint8_t *depth = src.callDepthCol().data();
    const uint16_t *dep1 = src.dep1Col().data();
    const uint16_t *dep2 = src.dep2Col().data();

    out->recs_.reserve(static_cast<size_t>(n / 2 + 4));
    out->depGates_.assign(static_cast<size_t>((n + 3) / 4), 0);

    CompiledStream::Rec *cur = nullptr;
    uint32_t prevFlat = 0;
    for (uint64_t pos = 0; pos < n; ++pos) {
        const uint32_t flat = idx[pos];
        const uint8_t flags = flg[pos];
        const Mask m = mask[pos];
        const uint8_t d = depth[pos];

        uint8_t head = 0;
        if (flags & StreamTrace::kBatchStartBit)
            head |= CompiledStream::kBatchStartBit;
        if (flags & StreamTrace::kPathSwitchBit)
            head |= CompiledStream::kPathSwitchBit;

        const bool contiguous = cur != nullptr && head == 0 &&
            (cur->kind & CompiledStream::kTailMask) == 0 &&
            flat == prevFlat + 1 && m == cur->mask && d == cur->depth &&
            cur->count < 0xffff;
        if (contiguous) {
            ++cur->count;
        } else {
            out->recs_.push_back({flat, m, 1, head, d});
            cur = &out->recs_.back();
        }

        // Tail events seal the record; a 1-op record can carry head and
        // tail bits at once.
        uint8_t tail = 0;
        if (flags & StreamTrace::kTakenBit)
            tail |= CompiledStream::kTakenBit;
        if (flags & StreamTrace::kEndBit)
            tail |= CompiledStream::kEndBit;
        if (flags & StreamTrace::kMemBit)
            tail |= CompiledStream::kMemBit;
        cur->kind |= tail;

        // Dependence gates: whether the engine's max-over-active-lanes
        // dep survived. The distance itself is recomputed at replay in
        // batch-op space; only this bit is not derivable once lanes
        // diverge.
        const uint8_t g = static_cast<uint8_t>((dep1[pos] != 0 ? 1 : 0) |
                                               (dep2[pos] != 0 ? 2 : 0));
        out->depGates_[pos >> 2] |=
            static_cast<uint8_t>(g << ((pos & 3) * 2));

        prevFlat = flat;
    }
    out->recs_.shrink_to_fit();

    uint64_t completed = 0;
    for (Mask em : src.endMaskCol())
        completed += static_cast<uint64_t>(popcount(em));
    out->completed_ = completed;

    gCounters.compiledStreams.fetch_add(1, std::memory_order_relaxed);
    gCounters.compileUs.fetch_add(usSince(t0), std::memory_order_relaxed);
    return out;
}

} // namespace simr::trace
