/**
 * @file
 * Lockstep SIMT execution of request batches (the core of the paper).
 *
 * A LockstepEngine runs up to 32 request threads in lockstep over one
 * service program, producing batch DynOps with active masks. Two
 * reconvergence schemes are implemented, matching Section III-A and the
 * two analysis modes of Fig. 11:
 *
 *  - StackIpdom: the ideal stack-based scheme. Uses the exact immediate
 *    post-dominator annotations the builder attaches to every branch
 *    (standing in for compiler analysis), with a reconvergence stack.
 *
 *  - MinSpPc: the paper's stack-less MinSP-PC heuristic. Each thread
 *    keeps its own PC and call depth; every step the scheduler selects
 *    the deepest call level first (MinSP), then the minimum PC, and runs
 *    exactly the threads parked at that position. A spin-escape rule
 *    (a lane idle for k scheduler steps while b atomics were decoded)
 *    temporarily prioritizes a starving path, mirroring the
 *    SIMT-induced-deadlock mitigation.
 *
 * Both schemes schedule from one packed position key per lane (see
 * posKey in lockstep.cc), refreshed only for the lanes that just ran:
 * the MinSP-PC pick is the smallest key, and stack-IPDOM groups
 * survivors by equal keys.
 *
 * The engine doubles as the SIMTec efficiency analyzer: SIMT efficiency
 * is simply sum(active lanes) / (batch ops x batch width).
 */

#ifndef SIMR_SIMT_LOCKSTEP_H
#define SIMR_SIMT_LOCKSTEP_H

#include <functional>
#include <memory>
#include <vector>

#include "trace/dynop.h"
#include "trace/interp.h"
#include "trace/replay.h"
#include "trace/stream.h"

namespace simr::simt
{

/** Reconvergence scheme selector. */
enum class ReconvPolicy : uint8_t {
    StackIpdom,  ///< ideal stack-based IPDOM (compiler-annotated)
    MinSpPc,     ///< stack-less MinSP-PC heuristic
};

/** Spin-escape tuning (Section III-A, SIMT-induced deadlock rule). */
struct SpinEscapeConfig
{
    bool enabled = true;
    uint32_t stagnationSteps = 64;  ///< k: scheduler steps a lane sat idle
    uint32_t atomicThreshold = 4;   ///< b: atomics decoded in the window
    uint32_t boostSteps = 32;       ///< t: steps the waiter is prioritized
};

/** Aggregate lockstep statistics across launched batches. */
struct SimtStats
{
    uint64_t batchOps = 0;       ///< batch instructions issued
    uint64_t scalarOps = 0;      ///< sum of active lanes over batch ops
    uint64_t maskedSlots = 0;    ///< idle lane-slots
    uint64_t divergeEvents = 0;  ///< branches that split the active set
    uint64_t reconvMerges = 0;   ///< paths folded back at a reconv point
                                 ///  (StackIpdom only)
    uint64_t pathSwitches = 0;   ///< scheduler jumps between paths
    uint64_t spinEscapes = 0;    ///< spin-escape activations
    uint64_t batches = 0;

    /**
     * Observed divergence at a branch the static proof classified
     * uniform (always, or per-batch within an (api, argLen)-uniform
     * batch). A live soundness tripwire: always 0 unless the dataflow
     * analysis is wrong, and asserted 0 by the soundness gate.
     */
    uint64_t hintViolations = 0;
    int width = 32;

    /** SIMT efficiency: scalar instructions / (batch ops x width). */
    double
    efficiency() const
    {
        return batchOps ? static_cast<double>(scalarOps) /
            (static_cast<double>(batchOps) * width) : 1.0;
    }

    /**
     * Accumulate another engine's statistics (multi-engine runs, sweep
     * aggregation). Widths must match for efficiency() to stay
     * meaningful; an empty (default) accumulator adopts the width of
     * the first operand merged into it.
     */
    SimtStats &
    operator+=(const SimtStats &o)
    {
        batchOps += o.batchOps;
        scalarOps += o.scalarOps;
        maskedSlots += o.maskedSlots;
        divergeEvents += o.divergeEvents;
        reconvMerges += o.reconvMerges;
        pathSwitches += o.pathSwitches;
        spinEscapes += o.spinEscapes;
        hintViolations += o.hintViolations;
        batches += o.batches;
        if (batches == o.batches)
            width = o.width;
        return *this;
    }
};

/**
 * Hook interface for observability sinks (src/obs): per-batch spans,
 * per-PC divergence attribution. All callbacks default to no-ops; the
 * engine pays one predictable branch per event when no observer is
 * attached. `opIdx` is the engine's running batch-op count, the
 * virtual clock of chip-level trace timelines.
 */
class LockstepObserver
{
  public:
    virtual ~LockstepObserver();

    /** A new batch of `size` requests entered lockstep execution. */
    virtual void onBatchStart(uint64_t batch, int size, uint64_t opIdx);

    /** One batch op was issued (after stats accounting). */
    virtual void onOp(const trace::DynOp &op, int width, uint64_t opIdx);

    /** A branch at `pc` split the active set. */
    virtual void onDiverge(isa::Pc pc, uint64_t opIdx);

    /** Paths folded back together at reconvergence point `pc`. */
    virtual void onMerge(isa::Pc pc, uint64_t opIdx);

    /** Spin-escape boosted `lane` parked at `pc`. */
    virtual void onSpinEscape(int lane, isa::Pc pc, uint64_t opIdx);

    /** `lane`'s request retired with the op at `opIdx` (fires after
     *  that op's onOp; intra-batch completion-skew attribution). */
    virtual void onLaneRetire(int lane, uint64_t opIdx);

    /** The current batch retired (all lanes done). */
    virtual void onBatchEnd(uint64_t batch, uint64_t opIdx);
};

/**
 * Runs batches of threads in lockstep over one program, exposed as a
 * DynStream so the RPU timing core can consume it directly.
 */
class LockstepEngine : public trace::DynStream
{
  public:
    /**
     * Supplies the thread contexts of the next batch; returns the batch
     * size (1..width) or 0 when no batches remain.
     */
    using BatchProvider =
        std::function<int(std::vector<trace::ThreadInit> &)>;

    /**
     * @param cache trace cache the lanes replay from / capture into;
     *        nullptr interprets every request live.
     */
    LockstepEngine(const isa::Program &prog, ReconvPolicy policy,
                   int width, BatchProvider provider,
                   SpinEscapeConfig spin = SpinEscapeConfig(),
                   trace::TraceCache *cache = nullptr);
    ~LockstepEngine() override;

    bool next(trace::DynOp &op) override;
    uint64_t requestsCompleted() const override { return completed_; }

    const SimtStats &stats() const { return stats_; }

    /** Trace-reuse accounting summed over this engine's lanes. */
    trace::ReuseStats
    reuseStats() const
    {
        trace::ReuseStats s;
        for (const auto &l : lanes_)
            s += l->reuseStats();
        return s;
    }

    /** True between batches (the last produced op finished a batch). */
    bool atBatchBoundary() const { return !batchActive_; }

    /**
     * Attach an observability sink (nullptr detaches). The observer
     * must outlive the engine; it never affects execution, only
     * reports it.
     */
    void setObserver(LockstepObserver *obs) { obs_ = obs; }

    /**
     * Attach the program's static dataflow proof (nullptr detaches).
     * Enables capture's tier-1 fast path on every lane and arms the
     * hint-violation tripwire at the divergence sites.
     */
    void setStaticProof(std::shared_ptr<const trace::StaticProof> proof);

  private:
    struct StackEntry
    {
        uint64_t key;         ///< position of this path (posKey)
        int reconvBlock;      ///< merge block (-1 for the root entry)
        trace::Mask mask;
    };

    bool launchNext();
    bool stepStack(trace::DynOp &op);
    bool stepMinSp(trace::DynOp &op);

    /** Check an observed divergence against the static hint. */
    void noteDivergence(isa::Pc pc);

    /**
     * Execute `mask` lanes (all at one position), fill `op`, and
     * refresh the stepped lanes' keys and run stamps.
     */
    void execGroup(trace::Mask mask, trace::DynOp &op);

    const isa::Program &prog_;
    ReconvPolicy policy_;
    int width_;
    BatchProvider provider_;
    SpinEscapeConfig spin_;

    LockstepObserver *obs_ = nullptr;

    std::shared_ptr<const trace::StaticProof> proof_;
    bool proofApplies_ = false;         ///< proof matches this program
    bool batchApiArgUniform_ = false;   ///< current batch shares (api, argLen)

    trace::ProgramIndex pi_;
    std::vector<std::unique_ptr<trace::LaneExec>> lanes_;
    std::vector<trace::ThreadInit> inits_;  ///< reused across launches
    trace::Mask liveMask_ = 0;
    /** Per-lane position key; the largest key for a retired lane. */
    uint64_t keys_[trace::kMaxBatch] = {};
    int batchSize_ = 0;
    bool batchActive_ = false;
    uint64_t completed_ = 0;
    SimtStats stats_;

    // Stack-IPDOM state.
    std::vector<StackEntry> stack_;

    // Batch-op-space dependence tracking: producer indices per register
    // (the per-thread distances from the interpreter do not survive the
    // interleaving of serialized divergent paths).
    uint64_t batchOpIdx_ = 0;
    uint64_t lastWriterB_[isa::kNumRegs] = {};

    // MinSP-PC state. A lane has been idle for batchOpIdx_ - ranAt_
    // steps: ranAt_ is the batch op it last ran at (or was boosted at).
    uint64_t ranAt_[trace::kMaxBatch] = {};
    uint64_t windowAtomics_ = 0;
    int boostLane_ = -1;
    uint32_t boostLeft_ = 0;
    trace::Mask prevActive_ = 0;
};

} // namespace simr::simt

#endif // SIMR_SIMT_LOCKSTEP_H
