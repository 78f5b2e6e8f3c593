/**
 * @file
 * Stream compiler: lower a captured front-end stream into threaded
 * superop records.
 *
 * A warm StreamTrace replay (ReplayStream) dispatches one op at a time
 * off a per-op flags byte and streams ~14 dense bytes per op. This
 * module compiles a finished stream -- once, on its second stream-cache
 * hit -- into the form CompiledStreamCursor (kernels.h) executes with a
 * threaded dispatch loop:
 *
 *  - straight-line runs between control/memory events collapse into
 *    one pre-resolved record {first flat index, mask, op count, kind},
 *    so the executor decodes no per-op flags;
 *
 *  - dependence distances are *recomputed* in batch-op space from the
 *    StaticInst stream rather than streamed from 4-byte-per-op
 *    columns; only a 2-bit/op gate survives;
 *
 *  - payload arenas (taken/end masks, lane/address lists) are *shared*
 *    with the refcounted parent stream, so a kernel adds only its
 *    records and gates to the cache budget;
 *
 *  - aggregate totals (op count, completed requests) are precomputed,
 *    so consumers that only need counts (runFrontEnd's warm sweep)
 *    drain a compiled stream in O(1).
 *
 * Request traces have no compiled form: CapturedTrace's columns feed
 * both the per-lane ReplayCursor and the lane-major TraceBatchKernel
 * directly.
 */

#ifndef SIMR_TRACE_STREAM_COMPILER_H
#define SIMR_TRACE_STREAM_COMPILER_H

#include <memory>
#include <vector>

#include "trace/dynop.h"

namespace simr::trace
{

class StreamTrace;

// ---------------------------------------------------------------------------
// SIMD availability and process-wide kernel counters

/** AVX2 kernels compiled into this binary (-DSIMR_SIMD=ON). */
bool simdCompiledIn();

/**
 * AVX2 compiled in *and* supported by the executing CPU: the batch
 * kernel's lane relocation then runs 4 lanes at a time.
 */
bool simdAvailable();

/** Monotonic process-wide compile/replay counters (relaxed atomics). */
struct CompileCounters
{
    uint64_t compiledStreams = 0; ///< stream kernels built
    uint64_t compileUs = 0;       ///< microseconds spent compiling
    uint64_t compiledOps = 0;     ///< ops served by the batch kernel and
                                  ///  by compiled streams
    uint64_t simdLanes = 0;       ///< lane-addresses through AVX2 paths
};

CompileCounters compileCounters();

/** @name Batched counter increments (never call per op). */
/// @{
void addCompiledOps(uint64_t n);
void addSimdLanes(uint64_t n);
/// @}

// ---------------------------------------------------------------------------
// Stream-level kernel

/**
 * One StreamTrace lowered into superop records plus a 2-bit/op
 * dependence-gate arena. All sparse payload arenas (taken/end masks,
 * per-op lane/address lists, access sizes) are shared with the
 * refcounted parent stream.
 *
 * Dependence distances are recomputed in batch-op space from the
 * StaticInst stream (reset at every batch-start op, exactly mirroring
 * LockstepEngine's lastWriterB bookkeeping); the gate bits preserve
 * the engine's max-over-active-lanes gating, which is NOT derivable
 * from batch space once lanes diverge.
 */
class CompiledStream
{
  public:
    /** Record kind bits. Tail bits apply to the record's last op,
        head bits to its first (a 1-op record can carry both). */
    static constexpr uint8_t kTakenBit = 0x1;      ///< tail: taken branch
    static constexpr uint8_t kEndBit = 0x2;        ///< tail: lanes ended
    static constexpr uint8_t kMemBit = 0x4;        ///< tail: memory op
    static constexpr uint8_t kTailMask = 0x7;
    static constexpr uint8_t kBatchStartBit = 0x8; ///< head: new batch
    static constexpr uint8_t kPathSwitchBit = 0x10;///< head: path switch

    struct Rec
    {
        uint32_t flat;   ///< flat static index of the record's first op
        Mask mask;       ///< active mask of every op in the record
        uint16_t count;  ///< ops covered (>= 1)
        uint8_t kind;    ///< head/tail bits above
        uint8_t depth;   ///< call depth of every op in the record
    };
    static_assert(sizeof(Rec) == 12, "stream record must stay 12 bytes");

    const std::vector<Rec> &recs() const { return recs_; }

    /** 2 bits per op (dep1 gate, dep2 gate), 4 ops per byte. */
    const std::vector<uint8_t> &depGates() const { return depGates_; }

    uint64_t opCount() const { return ops_; }

    /** Requests completed by the full stream (precomputed). */
    uint64_t totalCompleted() const { return completed_; }

    const StreamTrace &src() const { return *src_; }
    const std::shared_ptr<const StreamTrace> &srcPtr() const
    {
        return src_;
    }

    /** Bytes this kernel *adds* to the cache (records + gates). */
    size_t
    byteSize() const
    {
        return sizeof(*this) + recs_.capacity() * sizeof(Rec) +
            depGates_.capacity();
    }

  private:
    friend std::shared_ptr<const CompiledStream>
    compileStream(std::shared_ptr<const StreamTrace> t);

    std::shared_ptr<const StreamTrace> src_;
    std::vector<Rec> recs_;
    std::vector<uint8_t> depGates_;
    uint64_t ops_ = 0;
    uint64_t completed_ = 0;
};

/** Lower one finished stream capture. */
std::shared_ptr<const CompiledStream>
compileStream(std::shared_ptr<const StreamTrace> t);

} // namespace simr::trace

#endif // SIMR_TRACE_STREAM_COMPILER_H
