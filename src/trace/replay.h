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
 * handful of sequential column reads. One caveat is inherited from StepResult: call
 * depth is clamped at 255, so the callDepth() accessor diverges from a
 * live lane beyond that depth (no service comes near it; the replay
 * gate would catch one).
 *
 * A LaneFile built over a TraceCache picks, per request, one of three
 * modes at launch: replay a TraceCache hit through the lane's cursor,
 * run live while capturing (inserting the finished trace), or run live
 * with no capture when the cache is disabled. Two lane masks record
 * the choice (CacheLanes holds the cursors and builders). Live and
 * replayed lanes interleave freely inside one group: a replaying
 * lane's position comes from its trace, so per-lane replay is sound
 * under any scheduling.
 *
 * The second half is the stream level: a StreamTrace holds one front
 * end's whole DynOp stream, storing only what its ops do not imply.
 * CapturingStream encodes it through a StreamCaptureBuilder as the
 * stream is drained, and ReplayStream decodes it back into exactly the
 * DynOps captured, lanes and addresses included.
 */

#ifndef SIMR_TRACE_REPLAY_H
#define SIMR_TRACE_REPLAY_H

#include <cstddef>
#include <deque>

#include "trace/capture.h"
#include "trace/dynop.h"
#include "trace/interp.h"

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
 * The trace-cache side of a LaneFile. Per lane it holds a ReplayCursor
 * for a request served from the cache and a CaptureBuilder for one
 * being recorded into it; the LaneFile's replaying and capturing masks
 * say which lanes use which, and every other lane runs plain. A
 * capturing lane also keeps its own op count and register-writer
 * stamps: a trace records the thread's own dependence distances, which
 * scalar streams replay as they are, not the group's.
 */
struct CacheLanes
{
    CacheLanes(const ProgramIndex &pi, int width, TraceCache *cache);

    const ProgramIndex *pi;
    TraceCache *cache;
    std::vector<ReplayCursor> cursors;
    std::deque<CaptureBuilder> builders;  ///< never moved once built
    std::vector<ThreadInit> inits;  ///< capturing lanes' requests
    std::vector<uint64_t> dyn;      ///< capturing lanes' ops since launch
    std::vector<uint64_t> writer;   ///< [reg][lane] op of the last write
    ReuseStats stats;
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
 * scalar/SMT context), storing only what its ops do not imply.
 * Immutable once finished; refcount-shared. StaticInst pointers are
 * NOT stored -- ops hold the flat static index and are re-bound to the
 * replaying Program instance through its ProgramIndex, exactly like
 * CapturedTrace.
 *
 * Every op costs one flags byte and one byte per dependence distance
 * (kDepEscape sends a distance of 255 or more to a sparse column).
 * Everything else is sparse, read in op order, and gated by a flag bit
 * or by the op's instruction:
 *  - the flat static index, only where it is not the previous op's
 *    index plus one (the first op counts as following index -1);
 *  - the mask and the call depth, only where they change (both start
 *    at 0);
 *  - the taken and end masks, only where nonzero;
 *  - a memory op's lane addresses: base and stride where they form one
 *    arithmetic progression (two or more lanes), else every address.
 *
 * Lanes, addrCount and accessSize are not stored at all. A memory op's
 * lanes are its mask's set bits in ascending order, so addrCount is
 * the mask's popcount, and its access size is the instruction's; any
 * other op has none of them. StreamCaptureBuilder::onOp asserts this
 * of every op it records.
 */
class StreamTrace
{
  public:
    /** Flags-byte layout (one byte per op). */
    static constexpr uint8_t kBatchStartBit = 0x01;
    static constexpr uint8_t kPathSwitchBit = 0x02;
    static constexpr uint8_t kStrideBit = 0x04; ///< addrs are base, stride
    static constexpr uint8_t kEndBit = 0x08;    ///< nonzero endMask follows
    static constexpr uint8_t kTakenBit = 0x10;  ///< nonzero takenMask follows
    static constexpr uint8_t kJumpBit = 0x20;   ///< static index follows
    static constexpr uint8_t kMaskBit = 0x40;   ///< new mask follows
    static constexpr uint8_t kDepthBit = 0x80;  ///< new call depth follows

    /** A dependence byte of this value: the distance is in depWide_. */
    static constexpr uint8_t kDepEscape = 255;

    uint64_t opCount() const { return flags_.size(); }

    /** Program fingerprint the stream belongs to. */
    uint64_t fingerprint() const { return fingerprint_; }

    /** Resident bytes of the columnar payload (cache accounting). */
    size_t
    byteSize() const
    {
        return sizeof(*this) + flags_.capacity() + dep1_.capacity() +
            dep2_.capacity() +
            staticIdx_.capacity() * sizeof(uint32_t) +
            mask_.capacity() * sizeof(Mask) + callDepth_.capacity() +
            depWide_.capacity() * sizeof(uint16_t) +
            takenMask_.capacity() * sizeof(Mask) +
            endMask_.capacity() * sizeof(Mask) +
            addr_.capacity() * sizeof(uint64_t);
    }

  private:
    friend class StreamCaptureBuilder;
    friend class ReplayStream;

    uint64_t fingerprint_ = 0;

    // Dense columns, one entry per dynamic op.
    std::vector<uint8_t> flags_;
    std::vector<uint8_t> dep1_;
    std::vector<uint8_t> dep2_;

    // Sparse columns, consumed sequentially.
    std::vector<uint32_t> staticIdx_; ///< kJumpBit ops
    std::vector<Mask> mask_;          ///< kMaskBit ops
    std::vector<uint8_t> callDepth_;  ///< kDepthBit ops
    std::vector<uint16_t> depWide_;   ///< escaped dep1, then dep2
    std::vector<Mask> takenMask_;     ///< kTakenBit ops
    std::vector<Mask> endMask_;       ///< kEndBit ops
    /** Memory ops: base and stride (kStrideBit), else one per lane. */
    std::vector<uint64_t> addr_;
};

/** Accumulates one stream's capture; drive with every DynOp produced. */
class StreamCaptureBuilder
{
  public:
    explicit StreamCaptureBuilder(const ProgramIndex &pi) : pi_(&pi) {}

    void reset();

    /**
     * Record one produced DynOp. Panics unless the op's lanes,
     * addrCount and accessSize are the ones StreamTrace implies.
     */
    void onOp(const DynOp &op);

    /** Seal and hand off the finished stream trace. */
    std::shared_ptr<const StreamTrace> finish();

  private:
    const ProgramIndex *pi_;
    std::unique_ptr<StreamTrace> out_;
    // What the next op is encoded against (the previous op's state).
    uint32_t nextFlat_ = 0;
    Mask mask_ = 0;
    uint8_t depth_ = 0;
};

/**
 * Serves a captured DynOp stream back through the DynStream interface.
 * Owns its ProgramIndex over the consumer's local Program instance, so
 * the StaticInst pointers it emits belong to that instance.
 */
class ReplayStream : public DynStream
{
  public:
    /** The third parameter is kept only because perfbench passes it. */
    ReplayStream(const isa::Program &prog,
                 std::shared_ptr<const StreamTrace> t,
                 std::nullptr_t = nullptr);

    bool next(DynOp &op) override;
    uint64_t requestsCompleted() const override { return completed_; }

    uint64_t opCount() const { return trace_->opCount(); }

  private:
    /** Adopt a new mask and the lane list it implies. */
    void setMask(Mask m);

    ProgramIndex pi_;
    std::shared_ptr<const StreamTrace> trace_;
    uint64_t pos_ = 0;
    uint64_t n_ = 0;
    uint64_t completed_ = 0;
    // Decode state: what the previous op leaves for the next.
    uint32_t nextFlat_ = 0;
    Mask mask_ = 0;
    uint8_t depth_ = 0;
    uint8_t laneCount_ = 0;
    uint8_t lanes_[kMaxBatch] = {}; ///< mask_'s set bits, ascending
    // Sparse-column cursors.
    size_t idxPos_ = 0;
    size_t maskPos_ = 0;
    size_t depthPos_ = 0;
    size_t depPos_ = 0;
    size_t takenPos_ = 0;
    size_t endPos_ = 0;
    size_t addrPos_ = 0;
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
