/**
 * @file
 * Trace replay: materialize a request's dynamic stream from a
 * CapturedTrace instead of re-running the interpreter.
 *
 * A ReplayCursor walks the columnar form and reconstructs, op by op,
 * exactly the StepResult sequence the live interpreter produced at
 * capture time -- relocated to the replaying thread's frame:
 *
 *  - position (block, idx-in-block, PC) from the flat static index via
 *    the ProgramIndex of the *local* Program instance (so StaticInst
 *    pointers compare equal with live lanes of the same engine);
 *  - branch outcomes from the flags byte;
 *  - memory addresses from the trace's canonical-address column,
 *    shifting StackRel / HeapRel addresses by (replay frame base -
 *    captured frame base);
 *  - dependence distances and call depth from the columns capture
 *    recorded (both are pure functions of the op sequence).
 *
 * The cursor therefore mirrors no interpreter bookkeeping: a step is a
 * handful of sequential column reads, ~4x cheaper than a live
 * ThreadState::step. One caveat is inherited from StepResult: call
 * depth is clamped at 255, so the callDepth() accessor diverges from a
 * live lane beyond that depth (no service comes near it; the replay
 * gate would catch one).
 *
 * A LaneExec wraps one hardware lane and presents the exact surface the
 * lockstep engine and the scalar stream consume from ThreadState
 * (reset / done / curBlock / curIdx / curPc / callDepth / dynCount /
 * step). Per request it picks one of three modes: replay a TraceCache
 * hit, interpret live while capturing (inserting the finished trace),
 * or interpret live with no capture when the cache is disabled. Live
 * and replayed lanes interleave freely inside one batch -- lanes are
 * independent ThreadStates, so per-lane replay is sound under any
 * scheduling. A batch whose lanes all replay shape-equal traces goes
 * to the lane-major TraceBatchKernel instead (see simt/lockstep.h).
 */

#ifndef SIMR_TRACE_REPLAY_H
#define SIMR_TRACE_REPLAY_H

#include "trace/capture.h"
#include "trace/dynop.h"
#include "trace/interp.h"
#include "trace/kernels.h"

namespace simr::trace
{

/** Replays one CapturedTrace, relocated into a replaying frame. */
class ReplayCursor
{
  public:
    explicit ReplayCursor(const ProgramIndex &pi) : pi_(&pi) {}

    /** Begin replaying `t` as the request described by `init`. */
    void start(std::shared_ptr<const CapturedTrace> t,
               const ThreadInit &init);

    bool done() const { return pos_ >= n_; }

    /** Position of the next op (valid while !done()), post-normalize. */
    int curBlock() const { return pi_->blockOf(headFlat()); }
    size_t curIdx() const { return pi_->idxInBlock(headFlat()); }
    isa::Pc curPc() const { return pi_->pcOf(headFlat()); }
    int callDepth() const { return pos_ < n_ ? depthCol_[pos_] : 0; }

    uint64_t dynCount() const { return pos_; }

    /** Materialize the next op (valid while !done()). */
    void step(StepResult &out);

    /** @name Batch-kernel inputs (valid after start). */
    /// @{
    const CapturedTrace &trace() const { return *trace_; }
    const uint64_t *addrCol() const { return addrCol_; }
    const uint64_t *shifts() const { return shift_; }
    /// @}

    /** Mark the whole trace consumed (the batch kernel replayed it). */
    void skipToEnd() { pos_ = n_; }

  private:
    uint32_t
    headFlat() const
    {
        return idx_[pos_];
    }

    const ProgramIndex *pi_;
    std::shared_ptr<const CapturedTrace> trace_;
    uint64_t pos_ = 0;
    uint64_t n_ = 0;
    uint64_t memPos_ = 0;      ///< index into the canonical-address column
    uint64_t shift_[3] = {};   ///< per-AddrKind relocation (mod 2^64)
    // Raw column / table pointers, hoisted in start() so step() never
    // chases the shared_ptr or the ProgramIndex (the trace is immutable
    // and owned by trace_; the tables are owned by *pi_).
    const uint32_t *idx_ = nullptr;
    const uint8_t *flg_ = nullptr;
    const uint16_t *dep1Col_ = nullptr;
    const uint16_t *dep2Col_ = nullptr;
    const uint8_t *depthCol_ = nullptr;
    const uint64_t *addrCol_ = nullptr;
    const isa::StaticInst *const *insts_ = nullptr;
    isa::Pc codeBase_ = 0;
};

/**
 * One hardware lane: ThreadState's stepping surface with a TraceCache
 * bolted underneath. With a null cache (or one disabled via
 * SIMR_TRACE_CACHE=0) it degenerates to plain live interpretation.
 */
class LaneExec
{
  public:
    LaneExec(const ProgramIndex &pi, TraceCache *cache)
        : pi_(&pi), cache_(cache), live_(pi.program()), replay_(pi),
          builder_(pi)
    {}

    /** Static proof for capture's tier-1 fast path (may be null). */
    void setStaticProof(std::shared_ptr<const StaticProof> proof)
    {
        builder_.setStaticProof(std::move(proof));
    }

    /** Start the next request; decides replay vs capture vs plain. */
    void reset(const ThreadInit &init);

    bool done() const { return replaying_ ? replay_.done() : live_.done(); }

    int
    curBlock() const
    {
        return replaying_ ? replay_.curBlock() : live_.curBlock();
    }

    size_t
    curIdx() const
    {
        return replaying_ ? replay_.curIdx() : live_.curIdx();
    }

    isa::Pc
    curPc() const
    {
        return replaying_ ? replay_.curPc() : live_.curPc();
    }

    int
    callDepth() const
    {
        return replaying_ ? replay_.callDepth() : live_.callDepth();
    }

    uint64_t
    dynCount() const
    {
        return replaying_ ? replay_.dynCount() : live_.dynCount();
    }

    /** Execute one op (inline: called once per lane per batch op). */
    void
    step(StepResult &out)
    {
        if (replaying_) {
            replay_.step(out);
            ++stats_.replayedOps;
            return;
        }
        live_.step(out);
        if (capturing_) {
            builder_.onStep(out);
            ++stats_.capturedOps;
            if (live_.done())
                finishCapture();
        }
    }

    /** This request replays a cached trace. */
    bool replaying() const { return replaying_; }

    /** The armed replay cursor (valid while replaying()). */
    const ReplayCursor &replayCursor() const { return replay_; }

    /**
     * The batch kernel replayed this lane's whole request lane-major;
     * retire the cursor and account the ops as replayed.
     */
    void
    finishBatchReplay()
    {
        stats_.replayedOps += replay_.trace().opCount() -
            replay_.dynCount();
        replay_.skipToEnd();
    }

    /** Reuse accounting since construction (deterministic per lane). */
    const ReuseStats &reuseStats() const { return stats_; }

  private:
    /** Insert the finished live request's trace into the cache. */
    void finishCapture();

    const ProgramIndex *pi_;
    TraceCache *cache_;
    ThreadState live_;
    ReplayCursor replay_;
    CaptureBuilder builder_;
    bool replaying_ = false;
    bool capturing_ = false;
    ThreadInit init_{};
    ReuseStats stats_;
};

// ---------------------------------------------------------------------------
// Stream-level replay: cache a whole front end's DynOp output.
//
// Per-lane replay removes the interpreter from a warm run but still
// pays the full lockstep machinery (grouping, divergence, dependence
// rewriting) per op. When an *identical cell* re-runs -- the dominant
// redundancy in sweeps, figure benches and tuner probes -- the entire
// DynOp sequence its front end emits is a pure function of the cell
// identity, so it can be captured once in columnar form and served
// back directly, skipping interpretation and lockstep entirely.

/**
 * One front-end unit's full DynOp stream (one lockstep engine or one
 * scalar/SMT context) in columnar SoA form. Immutable once finished;
 * refcount-shared. StaticInst pointers are NOT stored -- ops hold the
 * flat static index and are re-bound to the replaying Program instance
 * through its ProgramIndex, exactly like CapturedTrace.
 */
class StreamTrace
{
  public:
    /** Flags-byte layout (one byte per op). */
    static constexpr uint8_t kBatchStartBit = 0x1;
    static constexpr uint8_t kPathSwitchBit = 0x2;
    static constexpr uint8_t kMemBit = 0x4;   ///< addr/lane payload follows
    static constexpr uint8_t kEndBit = 0x8;   ///< nonzero endMask follows
    static constexpr uint8_t kTakenBit = 0x10;///< nonzero takenMask follows

    uint64_t opCount() const { return staticIdx_.size(); }

    /** Program fingerprint the stream belongs to. */
    uint64_t fingerprint() const { return fingerprint_; }

    /** @name Raw columns (the trace compiler and kernel executors). */
    /// @{
    const std::vector<uint32_t> &staticIdx() const { return staticIdx_; }
    const std::vector<uint8_t> &flags() const { return flags_; }
    const std::vector<Mask> &maskCol() const { return mask_; }
    const std::vector<uint8_t> &callDepthCol() const { return callDepth_; }
    const std::vector<uint16_t> &dep1Col() const { return dep1_; }
    const std::vector<uint16_t> &dep2Col() const { return dep2_; }
    const std::vector<Mask> &takenMaskCol() const { return takenMask_; }
    const std::vector<Mask> &endMaskCol() const { return endMask_; }
    const std::vector<uint8_t> &addrCountCol() const { return addrCount_; }
    const std::vector<uint16_t> &accessSizeCol() const { return accessSize_; }
    const std::vector<uint8_t> &laneCol() const { return lane_; }
    const std::vector<uint64_t> &addrCol() const { return addr_; }
    /// @}

    /** Resident bytes of the columnar payload (cache accounting). */
    size_t
    byteSize() const
    {
        return sizeof(*this) +
            staticIdx_.capacity() * sizeof(uint32_t) +
            flags_.capacity() + mask_.capacity() * sizeof(Mask) +
            callDepth_.capacity() +
            dep1_.capacity() * sizeof(uint16_t) +
            dep2_.capacity() * sizeof(uint16_t) +
            takenMask_.capacity() * sizeof(Mask) +
            endMask_.capacity() * sizeof(Mask) +
            addrCount_.capacity() +
            accessSize_.capacity() * sizeof(uint16_t) +
            lane_.capacity() + addr_.capacity() * sizeof(uint64_t);
    }

  private:
    friend class StreamCaptureBuilder;
    friend class ReplayStream;

    uint64_t fingerprint_ = 0;

    // Dense columns, one entry per dynamic op.
    std::vector<uint32_t> staticIdx_;
    std::vector<uint8_t> flags_;
    std::vector<Mask> mask_;
    std::vector<uint8_t> callDepth_;
    std::vector<uint16_t> dep1_;
    std::vector<uint16_t> dep2_;

    // Sparse columns, consumed sequentially, gated by flag bits.
    std::vector<Mask> takenMask_;    ///< kTakenBit ops
    std::vector<Mask> endMask_;      ///< kEndBit ops
    std::vector<uint8_t> addrCount_; ///< kMemBit ops
    std::vector<uint16_t> accessSize_;
    std::vector<uint8_t> lane_;      ///< addrCount-long runs
    std::vector<uint64_t> addr_;
};

/** Accumulates one stream's capture; drive with every DynOp produced. */
class StreamCaptureBuilder
{
  public:
    explicit StreamCaptureBuilder(const ProgramIndex &pi) : pi_(&pi) {}

    void reset();

    /** Record one produced DynOp. */
    void onOp(const DynOp &op);

    /** Seal and hand off the finished stream trace. */
    std::shared_ptr<const StreamTrace> finish();

  private:
    const ProgramIndex *pi_;
    std::unique_ptr<StreamTrace> out_;
};

/**
 * Serves a captured DynOp stream back through the DynStream interface.
 * Owns its ProgramIndex over the consumer's local Program instance, so
 * the StaticInst pointers it emits belong to that instance. When the
 * stream cache also supplies a compiled superop kernel, ops come from
 * a CompiledStreamCursor instead of the dense columns, and consumers
 * that only need counts can drain the whole stream in O(1) via
 * drainCompiled().
 */
class ReplayStream : public DynStream
{
  public:
    ReplayStream(const isa::Program &prog,
                 std::shared_ptr<const StreamTrace> t,
                 std::shared_ptr<const CompiledStream> compiled = nullptr);

    bool next(DynOp &op) override;

    uint64_t
    requestsCompleted() const override
    {
        return useCompiled_ ? cursor_.completed() : completed_;
    }

    uint64_t opCount() const { return trace_->opCount(); }

    /**
     * Consume the rest of the stream in O(1) from the kernel's
     * precomputed aggregates, adding the skipped ops to `*ops`.
     * @return false (and does nothing) without a compiled kernel --
     *         the caller falls back to the per-op drain.
     */
    bool
    drainCompiled(uint64_t *ops)
    {
        if (!useCompiled_)
            return false;
        *ops += cursor_.drainRemaining();
        return true;
    }

  private:
    ProgramIndex pi_;
    std::shared_ptr<const StreamTrace> trace_;
    CompiledStreamCursor cursor_;   ///< armed iff useCompiled_
    bool useCompiled_ = false;
    uint64_t pos_ = 0;
    uint64_t n_ = 0;
    uint64_t completed_ = 0;
    // Sparse-column cursors.
    size_t takenPos_ = 0;
    size_t endPos_ = 0;
    size_t memPos_ = 0;
    size_t lanePos_ = 0;
};

/**
 * Transparent DynStream wrapper that records every op the inner stream
 * produces. take() yields the finished StreamTrace once the inner
 * stream reported exhaustion (and null if the consumer stopped early:
 * a partial capture must never be served as the whole stream).
 */
class CapturingStream : public DynStream
{
  public:
    CapturingStream(const isa::Program &prog, DynStream &inner)
        : pi_(prog), inner_(&inner), builder_(pi_)
    {
        builder_.reset();
    }

    bool
    next(DynOp &op) override
    {
        if (!inner_->next(op)) {
            exhausted_ = true;
            return false;
        }
        builder_.onOp(op);
        return true;
    }

    uint64_t
    requestsCompleted() const override
    {
        return inner_->requestsCompleted();
    }

    /** The finished capture, or null unless fully drained. Call once. */
    std::shared_ptr<const StreamTrace>
    take()
    {
        return exhausted_ ? builder_.finish() : nullptr;
    }

  private:
    ProgramIndex pi_;
    DynStream *inner_;
    StreamCaptureBuilder builder_;
    bool exhausted_ = false;
};

} // namespace simr::trace

#endif // SIMR_TRACE_REPLAY_H
