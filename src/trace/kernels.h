/**
 * @file
 * Kernel executors: the two replay paths that beat the replay cursors.
 *
 *  - TraceBatchKernel: lane-major replay of one uniform lockstep
 *    batch. When every lane of a batch replays a shape-equal
 *    CapturedTrace the batch can never diverge, so the lockstep
 *    engine's grouping, divergence and dependence machinery is skipped
 *    entirely: one pass over the representative lane's columns
 *    produces the batch DynOps, and the per-lane memory addresses are
 *    relocated 4 lanes at a time with AVX2 (runtime-dispatched; the
 *    scalar path is bit-identical).
 *
 *  - CompiledStreamCursor: replay of one CompiledStream, the DynOp
 *    surface behind ReplayStream. Interior ops of a record need only a
 *    flat-index increment; tail ops jump through a computed-goto
 *    dispatch table indexed by the record's pre-resolved event kind.
 *
 * Both are proved bit-identical to live interpretation by the
 * trace_replay_gate. The StreamTrace-facing pieces live in kernels.cc.
 */

#ifndef SIMR_TRACE_KERNELS_H
#define SIMR_TRACE_KERNELS_H

#include "trace/capture.h"
#include "trace/compile.h"
#include "trace/dynop.h"

namespace simr::trace
{

namespace detail
{

/**
 * Lane relocation: dst[i] = cols[i][row] + shifts[i] (mod 2^64) for
 * lanes [0, n); with `shared`, every lane reads cols[0] (a dedup batch
 * replaying one trace). `shifts` must be 32-byte aligned.
 */
void relocScalar(uint64_t *dst, const uint64_t *const *cols, uint64_t row,
                 const uint64_t *shifts, int n, bool shared);

/**
 * The same relocation 4 lanes at a time with AVX2. Bit-identical to
 * relocScalar by construction (lane-wise 64-bit adds wrap exactly like
 * the scalar ones); call only when simdAvailable().
 */
void relocAvx2(uint64_t *dst, const uint64_t *const *cols, uint64_t row,
               const uint64_t *shifts, int n, bool shared);

} // namespace detail

/**
 * Lane-major replay of one uniform lockstep batch: every lane holds a
 * ReplayCursor over a shape-equal trace positioned at op 0. One pass
 * over the representative trace's columns emits the exact DynOp
 * sequence LockstepEngine would have produced (full mask throughout,
 * zero divergence): in a batch that never diverges the engine's
 * batch-op dependence distances coincide with the lanes' captured ones.
 * Per-lane addresses are relocated by AVX2 when available. The caller
 * (the engine) remains responsible for stats accounting, observer
 * callbacks and lane retirement.
 */
class TraceBatchKernel
{
  public:
    /** One lane's relocation inputs. */
    struct LaneSrc
    {
        const uint64_t *addrCol;  ///< canonical-address column
        const uint64_t *shift;    ///< per-AddrKind shifts, 3 entries
    };

    /**
     * Arm the kernel for one batch of `n` lanes over the shared
     * representative `rep`. Caller guarantees shape equality.
     */
    void start(const CapturedTrace *rep, const LaneSrc *lanes, int n,
               const ProgramIndex &pi);

    bool done() const { return pos_ >= n_; }

    /**
     * Produce the next batch op. Does not touch op.batchStart (the
     * engine stamps it afterwards, preserving observer-visible state).
     */
    void step(DynOp &op);

    /** Flush counters after the batch fully retired. */
    void finish();

  private:
    uint64_t pos_ = 0;
    uint64_t n_ = 0;
    uint64_t memPos_ = 0;
    int nLanes_ = 0;
    Mask fullMask_ = 0;
    bool simd_ = false;
    // The representative trace's columns (shape shared by every lane).
    const uint32_t *idx_ = nullptr;
    const uint8_t *flg_ = nullptr;
    const uint16_t *dep1Col_ = nullptr;
    const uint16_t *dep2Col_ = nullptr;
    const uint8_t *depthCol_ = nullptr;
    const isa::StaticInst *const *insts_ = nullptr;
    isa::Pc codeBase_ = 0;
    const uint64_t *laneAddrCol_[kMaxBatch] = {};
    bool sharedCol_ = false;   ///< all lanes read one column (dedup hit)
    uint64_t simdLanes_ = 0;   ///< local accumulator, flushed in finish()
    /** Per-AddrKind, per-lane shifts, laid out for 4-wide vector loads. */
    alignas(32) uint64_t shiftsByKind_[3][kMaxBatch] = {};
};

/**
 * Replay of one CompiledStream: ReplayStream's DynOp sequence from
 * superop records plus the 2-bit dependence-gate arena. Dependence
 * distances are recomputed in batch-op space (reset at every
 * batch-start op, mirroring the engine's lastWriterB bookkeeping and,
 * for scalar streams, the interpreter's per-request counters -- the
 * two conventions coincide on every gated read).
 */
class CompiledStreamCursor
{
  public:
    /** Arm over `k`; `pi` must index the consumer's Program instance. */
    void start(std::shared_ptr<const CompiledStream> k,
               const ProgramIndex &pi);

    bool done() const { return opPos_ >= n_; }

    /** Materialize the next op; false once exhausted. */
    bool next(DynOp &op);

    uint64_t opCount() const { return n_; }
    uint64_t completed() const { return completed_; }

    /**
     * Consume the rest of the stream without materializing ops: counts
     * come from the kernel's precomputed aggregates, so this is O(1).
     * Returns the number of ops skipped.
     */
    uint64_t drainRemaining();

  private:
    /** Consume the tail op's endMask payload. */
    void
    readEnd(DynOp &op)
    {
        op.endMask = endCol_[endPos_++];
        completed_ += static_cast<uint64_t>(popcount(op.endMask));
    }

    /** Consume the tail op's memory payload. */
    void
    readMem(DynOp &op)
    {
        const uint8_t count = addrCountCol_[memPos_];
        op.accessSize = accessSizeCol_[memPos_++];
        op.addrCount = count;
        for (uint8_t i = 0; i < count; ++i) {
            op.lane[i] = laneCol_[lanePos_];
            op.addr[i] = addrCol_[lanePos_++];
        }
    }

    std::shared_ptr<const CompiledStream> k_;
    const CompiledStream::Rec *recs_ = nullptr;
    size_t recPos_ = 0;
    uint32_t inRec_ = 0;
    uint64_t opPos_ = 0;
    uint64_t n_ = 0;
    uint64_t completed_ = 0;
    bool flushed_ = false;    ///< compiled-op counter already credited
    const uint8_t *gates_ = nullptr;
    // Shared parent-stream payload columns, consumed sequentially.
    const Mask *takenCol_ = nullptr;
    const Mask *endCol_ = nullptr;
    const uint8_t *addrCountCol_ = nullptr;
    const uint16_t *accessSizeCol_ = nullptr;
    const uint8_t *laneCol_ = nullptr;
    const uint64_t *addrCol_ = nullptr;
    size_t takenPos_ = 0;
    size_t endPos_ = 0;
    size_t memPos_ = 0;
    size_t lanePos_ = 0;
    const isa::StaticInst *const *insts_ = nullptr;
    isa::Pc codeBase_ = 0;
    // Batch-op-space dependence recomputation.
    uint64_t batchOpIdx_ = 0;
    uint64_t lastWriter_[isa::kNumRegs] = {};
};

} // namespace simr::trace

#endif // SIMR_TRACE_KERNELS_H
