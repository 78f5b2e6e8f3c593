#include "simt/lockstep.h"

#include <algorithm>

#include "common/logging.h"
#include "isa/builder.h"

namespace simr::simt
{

using trace::DynOp;
using trace::Mask;

namespace
{

// Position key layout: inverted call depth in bits 44-63, block id in
// bits 16-43, index in block in bits 0-15.
constexpr uint64_t kDepthTop = (uint64_t{1} << 20) - 1;
constexpr int kBlockShift = 16;
constexpr uint64_t kBlockLimit = uint64_t{1} << 28;
constexpr uint64_t kIdxLimit = uint64_t{1} << kBlockShift;
constexpr uint64_t kDepthBits = ~((uint64_t{1} << 44) - 1);
/** Key of a retired lane: above every live key, never picked. */
constexpr uint64_t kRetiredKey = ~uint64_t{0};

/**
 * Pack (depth, block, idx) into one position key whose integer order
 * is MinSP-PC order: deeper call levels first, then lower PCs.
 * Program::layout() assigns PCs in block-id order and a lane never
 * rests in an empty block or past a block's end, so (block, idx)
 * orders exactly as the PC does.
 */
inline uint64_t
posKey(int depth, int block, size_t idx)
{
    simr_dassert(depth >= 0 && static_cast<uint64_t>(depth) <= kDepthTop,
                 "call depth %d outside the position key", depth);
    return ((kDepthTop - static_cast<uint64_t>(depth)) << 44) |
        (static_cast<uint64_t>(block) << kBlockShift) |
        static_cast<uint64_t>(idx);
}

inline uint64_t
laneKey(const trace::LaneExec &t)
{
    return posKey(t.callDepth(), t.curBlock(), t.curIdx());
}

/** The block a key's position is in. */
int
keyBlock(uint64_t key)
{
    return static_cast<int>((key >> kBlockShift) & (kBlockLimit - 1));
}

/** The key of `block`'s first instruction at `key`'s call depth. */
uint64_t
blockEntryKey(uint64_t key, int block)
{
    return (key & kDepthBits) |
        (static_cast<uint64_t>(block) << kBlockShift);
}

} // namespace

LockstepObserver::~LockstepObserver() = default;

void
LockstepObserver::onBatchStart(uint64_t, int, uint64_t)
{}

void
LockstepObserver::onOp(const trace::DynOp &, int, uint64_t)
{}

void
LockstepObserver::onDiverge(isa::Pc, uint64_t)
{}

void
LockstepObserver::onMerge(isa::Pc, uint64_t)
{}

void
LockstepObserver::onSpinEscape(int, isa::Pc, uint64_t)
{}

void
LockstepObserver::onLaneRetire(int, uint64_t)
{}

void
LockstepObserver::onBatchEnd(uint64_t, uint64_t)
{}

LockstepEngine::LockstepEngine(const isa::Program &prog,
                               ReconvPolicy policy, int width,
                               BatchProvider provider,
                               SpinEscapeConfig spin,
                               trace::TraceCache *cache)
    : prog_(prog), policy_(policy), width_(width),
      provider_(std::move(provider)), spin_(spin), pi_(prog)
{
    simr_assert(width_ >= 1 && width_ <= trace::kMaxBatch,
                "batch width out of range");
    // Every position must fit its key exactly; the largest block id
    // stays clear of kRetiredKey.
    simr_assert(static_cast<uint64_t>(prog.numBlocks()) < kBlockLimit,
                "program has too many blocks for a position key");
    for (int b = 0; b < prog.numBlocks(); ++b)
        simr_assert(prog.block(b).insts.size() < kIdxLimit,
                    "block %d too long for a position key", b);
    stats_.width = width_;
    lanes_.reserve(static_cast<size_t>(width_));
    for (int i = 0; i < width_; ++i)
        lanes_.push_back(std::make_unique<trace::LaneExec>(pi_, cache));
    inits_.reserve(static_cast<size_t>(width_));
}

LockstepEngine::~LockstepEngine() = default;

void
LockstepEngine::setStaticProof(
    std::shared_ptr<const trace::StaticProof> proof)
{
    proof_ = std::move(proof);
    proofApplies_ = proof_ != nullptr &&
        proof_->fingerprint == pi_.fingerprint();
    for (auto &l : lanes_)
        l->setStaticProof(proofApplies_ ? proof_ : nullptr);
}

void
LockstepEngine::noteDivergence(isa::Pc pc)
{
    if (!proofApplies_)
        return;
    trace::BranchHint h = proof_->hintAt(pi_.flatOf(pc));
    if (h == trace::BranchHint::UniformAlways ||
        (h == trace::BranchHint::UniformPerBatch && batchApiArgUniform_))
        ++stats_.hintViolations;
}

bool
LockstepEngine::launchNext()
{
    int n = provider_ ? provider_(inits_) : 0;
    if (n <= 0)
        return false;
    simr_assert(n <= width_ &&
                inits_.size() == static_cast<size_t>(n),
                "batch provider size mismatch");

    batchApiArgUniform_ = true;
    for (int i = 1; i < n; ++i) {
        if (inits_[static_cast<size_t>(i)].api != inits_[0].api ||
            inits_[static_cast<size_t>(i)].argLen != inits_[0].argLen) {
            batchApiArgUniform_ = false;
            break;
        }
    }

    liveMask_ = 0;
    batchSize_ = n;
    for (int i = 0; i < n; ++i) {
        trace::LaneExec &t = *lanes_[static_cast<size_t>(i)];
        t.reset(inits_[static_cast<size_t>(i)]);
        if (t.done()) {
            keys_[i] = kRetiredKey;
        } else {
            keys_[i] = laneKey(t);
            liveMask_ |= (1u << i);
        }
    }
    if (liveMask_ == 0)
        return launchNext();

    ++stats_.batches;
    batchActive_ = true;
    if (obs_)
        obs_->onBatchStart(stats_.batches - 1, batchSize_,
                           stats_.batchOps);

    stack_.clear();
    // All live lanes start at main's entry.
    stack_.push_back({keys_[__builtin_ctz(liveMask_)], -1, liveMask_});

    std::fill(std::begin(ranAt_), std::end(ranAt_), 0);
    batchOpIdx_ = 0;
    for (auto &w : lastWriterB_)
        w = 0;
    windowAtomics_ = 0;
    boostLane_ = -1;
    boostLeft_ = 0;
    prevActive_ = 0;

    // Lane-major eligibility: a fully-live batch whose lanes all replay
    // shape-equal traces can never diverge (the shape fingerprint
    // covers the op sequence, branch outcomes and dependence columns),
    // so the whole batch is handed to the batch kernel and the per-op
    // grouping below it is skipped.
    kernelBatch_ = false;
    const Mask full = batchSize_ == trace::kMaxBatch ?
        ~Mask{0} : ((Mask{1} << batchSize_) - 1);
    if (liveMask_ == full) {
        // Static relaxation: in an (api, argLen)-uniform batch of a
        // program whose every branch is proven at least per-batch
        // uniform, shape-equal traces are implied (same control path,
        // same taken bits), so only the op counts are compared.
        const bool hinted = proofApplies_ && proof_->allUniformPerBatch &&
            batchApiArgUniform_;
        const trace::CapturedTrace *rep = nullptr;
        bool ok = true;
        bool compared = false;
        trace::TraceBatchKernel::LaneSrc srcs[trace::kMaxBatch];
        for (int i = 0; i < batchSize_ && ok; ++i) {
            const auto &l = *lanes_[static_cast<size_t>(i)];
            if (!l.replaying()) {
                ok = false;
                break;
            }
            const trace::ReplayCursor &c = l.replayCursor();
            const trace::CapturedTrace *t = &c.trace();
            if (rep == nullptr) {
                rep = t;
            } else if (t != rep) {
                compared = true;
                ok = t->opCount() == rep->opCount() &&
                    (hinted ||
                     t->shapeFingerprint() == rep->shapeFingerprint());
            }
            srcs[i] = {c.addrCol(), c.shifts()};
        }
        if (ok && rep != nullptr && rep->opCount() > 0) {
            bkernel_.start(rep, srcs, batchSize_, pi_);
            kernelBatch_ = true;
            if (hinted && compared)
                ++stats_.hintedKernelBatches;
        }
    }
    return true;
}

void
LockstepEngine::execGroup(Mask mask, DynOp &op)
{
    simr_assert(mask != 0, "executing an empty group");
    op.si = nullptr;
    op.mask = mask;
    op.takenMask = 0;
    op.endMask = 0;
    op.addrCount = 0;
    op.dep1 = 0;
    op.dep2 = 0;
    op.pathSwitch = false;
    ++batchOpIdx_;

    // Every active lane executes the same static instruction, so the
    // opInfo lookup is hoisted out of the lane loop: resolved once on
    // the first lane, reused (isMem here, writesReg below) for the rest.
    // Only a Ret can finish a request, so only then is done() asked.
    const isa::OpInfo *info = nullptr;
    bool ret = false;
    for (Mask m = mask; m != 0; m &= m - 1) {
        const int lane = __builtin_ctz(m);
        const Mask bit = Mask{1} << lane;
        trace::LaneExec &t = *lanes_[static_cast<size_t>(lane)];
        trace::StepResult r;
        t.step(r);
        if (!op.si) {
            op.si = r.si;
            op.pc = r.pc;
            op.callDepth = r.callDepth;
            op.accessSize = r.accessSize;
            info = &isa::opInfo(r.si->op);
            ret = r.si->op == isa::Op::Ret;
        } else {
            simr_assert(op.si == r.si,
                        "lockstep group executed different instructions");
        }
        if (r.taken)
            op.takenMask |= bit;
        if (info->isMem) {
            op.lane[op.addrCount] = static_cast<uint8_t>(lane);
            op.addr[op.addrCount] = r.addr;
            ++op.addrCount;
        }
        op.dep1 = std::max(op.dep1, r.dep1);
        op.dep2 = std::max(op.dep2, r.dep2);
        ranAt_[lane] = batchOpIdx_;
        if (ret && t.done()) {
            op.endMask |= bit;
            liveMask_ &= ~bit;
            ++completed_;
            keys_[lane] = kRetiredKey;
        } else {
            simr_dassert(!t.done(), "a request finished without a Ret");
            keys_[lane] = laneKey(t);
        }
    }

    // Rewrite dependence distances in batch-op space: the interpreter's
    // per-thread distances do not account for interleaved paths.
    auto bdep = [this](isa::RegId r) -> uint16_t {
        if (r == isa::R_ZERO || lastWriterB_[r] == 0)
            return 0;
        uint64_t d = batchOpIdx_ - lastWriterB_[r];
        return static_cast<uint16_t>(std::min<uint64_t>(d, 0xffff));
    };
    op.dep1 = op.dep1 ? bdep(op.si->src1) : 0;
    op.dep2 = op.dep2 ? bdep(op.si->src2) : 0;
    if (info->writesReg)
        lastWriterB_[op.si->dst] = batchOpIdx_;

    ++stats_.batchOps;
    int active = trace::popcount(mask);
    stats_.scalarOps += static_cast<uint64_t>(active);
    stats_.maskedSlots += static_cast<uint64_t>(width_ - active);

    if (obs_) {
        obs_->onOp(op, width_, stats_.batchOps);
        for (Mask em = op.endMask; em; em &= em - 1)
            obs_->onLaneRetire(__builtin_ctz(em), stats_.batchOps);
    }
}

bool
LockstepEngine::next(DynOp &op)
{
    bool fresh = false;
    if (!batchActive_) {
        if (!launchNext())
            return false;
        fresh = true;
    }
    if (kernelBatch_) {
        // Uniform batch on the lane-major fast path: the kernel emits the
        // op; the engine keeps its usual duties (stats, observer, lane
        // retirement) in the exact order execGroup performs them.
        bkernel_.step(op);
        ++stats_.batchOps;
        stats_.scalarOps += static_cast<uint64_t>(batchSize_);
        stats_.maskedSlots += static_cast<uint64_t>(width_ - batchSize_);
        if (obs_)
            obs_->onOp(op, width_, stats_.batchOps);
        if (bkernel_.done()) {
            bkernel_.finish();
            for (int i = 0; i < batchSize_; ++i)
                lanes_[static_cast<size_t>(i)]->finishBatchReplay();
            completed_ += static_cast<uint64_t>(batchSize_);
            liveMask_ = 0;
            if (obs_)
                for (int i = 0; i < batchSize_; ++i)
                    obs_->onLaneRetire(i, stats_.batchOps);
        }
        op.batchStart = fresh;
        if (liveMask_ == 0) {
            batchActive_ = false;
            if (obs_)
                obs_->onBatchEnd(stats_.batches - 1, stats_.batchOps);
        }
        return true;
    }
    bool produced = policy_ == ReconvPolicy::StackIpdom ?
        stepStack(op) : stepMinSp(op);
    op.batchStart = fresh;
    simr_assert(produced, "active batch produced no op");
    if (liveMask_ == 0) {
        batchActive_ = false;
        if (obs_)
            obs_->onBatchEnd(stats_.batches - 1, stats_.batchOps);
    }
    return true;
}

bool
LockstepEngine::stepStack(DynOp &op)
{
    // Find the runnable top entry, folding entries that already sit at
    // their own reconvergence point into their waiting ancestor.
    while (true) {
        simr_assert(!stack_.empty(), "SIMT stack underflow");
        StackEntry &e = stack_.back();
        e.mask &= liveMask_;
        if (e.mask == 0) {
            stack_.pop_back();
            if (stack_.empty()) {
                simr_assert(liveMask_ == 0,
                            "live lanes with an empty SIMT stack");
                // Batch drained without producing an op this call: the
                // caller only invokes us with live lanes, so this should
                // be unreachable.
                return false;
            }
            continue;
        }
        if (e.reconvBlock >= 0 &&
            e.key == blockEntryKey(e.key, e.reconvBlock)) {
            // Entry reached its merge point: fold into the ancestor
            // waiting there.
            Mask m = e.mask;
            uint64_t key = e.key;
            stack_.pop_back();
            bool merged = false;
            for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
                if (it->key == key) {
                    it->mask |= m;
                    merged = true;
                    break;
                }
            }
            simr_assert(merged, "no ancestor waiting at reconvergence");
            ++stats_.reconvMerges;
            if (obs_)
                obs_->onMerge(prog_.blockPc(keyBlock(key)), stats_.batchOps);
            continue;
        }
        break;
    }

    StackEntry &e = stack_.back();
    Mask exec_mask = e.mask;
    execGroup(exec_mask, op);

    // Partition surviving lanes by their new position.
    struct Group
    {
        uint64_t key;
        Mask mask;
    };
    Group groups[trace::kMaxBatch];
    int ngroups = 0;
    Mask survivors = exec_mask & liveMask_;
    for (Mask m = survivors; m != 0; m &= m - 1) {
        const int lane = __builtin_ctz(m);
        const uint64_t key = keys_[lane];
        int g = 0;
        while (g < ngroups && groups[g].key != key)
            ++g;
        if (g == ngroups)
            groups[ngroups++] = {key, 0};
        groups[g].mask |= Mask{1} << lane;
    }

    e.mask = survivors;

    // Merge any group that landed on a waiting ancestor's position
    // (covers empty-arm joins that normalize() chains through).
    auto merge_down = [&](const Group &g) -> bool {
        if (stack_.size() < 2)
            return false;
        for (size_t i = stack_.size() - 1; i-- > 0;) {
            StackEntry &anc = stack_[i];
            if (anc.key == g.key) {
                anc.mask |= g.mask;
                stack_.back().mask &= ~g.mask;
                ++stats_.reconvMerges;
                if (obs_)
                    obs_->onMerge(prog_.blockPc(keyBlock(anc.key)),
                                  stats_.batchOps);
                return true;
            }
        }
        return false;
    };

    Group remaining[trace::kMaxBatch];
    int nrem = 0;
    for (int g = 0; g < ngroups; ++g) {
        if (!merge_down(groups[g]))
            remaining[nrem++] = groups[g];
    }

    StackEntry &top = stack_.back();
    if (nrem == 0) {
        if (top.mask == 0 && stack_.size() > 1)
            stack_.pop_back();
        else if (top.mask == 0 && liveMask_ == 0)
            stack_.pop_back();
        return true;
    }
    if (nrem == 1) {
        top.key = remaining[0].key;
        return true;
    }

    // Divergence: must be a conditional branch with an IPDOM annotation.
    simr_assert(op.si->op == isa::Op::Branch && op.si->reconvBlock >= 0,
                "multi-way split on a non-branch");
    ++stats_.divergeEvents;
    noteDivergence(op.pc);
    if (obs_)
        obs_->onDiverge(op.pc, stats_.batchOps);
    int rb = op.si->reconvBlock;
    uint64_t rkey = blockEntryKey(top.key, rb);

    // Lanes already at the reconvergence point wait in the current
    // entry; everyone else is pushed as a new path (lower PC last, so
    // it executes first, matching MinPC intuition inside the region).
    // A branch keeps the call depth, so the descending key order is
    // descending PC order.
    Mask wait_mask = 0;
    std::sort(remaining, remaining + nrem,
              [](const Group &a, const Group &b) { return a.key > b.key; });
    for (int g = 0; g < nrem; ++g)
        if (remaining[g].key == rkey)
            wait_mask |= remaining[g].mask;
    // Update the waiting parent before pushing (push_back invalidates
    // the `top` reference).
    top.key = rkey;
    top.mask = wait_mask;
    for (int g = 0; g < nrem; ++g) {
        if (remaining[g].key == rkey)
            continue;
        stack_.push_back({remaining[g].key, rb, remaining[g].mask});
    }
    return true;
}

bool
LockstepEngine::stepMinSp(DynOp &op)
{
    simr_assert(liveMask_ != 0, "stepMinSp with no live lanes");

    // Pick the executing position: the spin-boosted lane's, or the
    // smallest key -- deepest call level first (MinSP), then minimum
    // PC. Retired lanes hold kRetiredKey, so they never win.
    uint64_t key = kRetiredKey;
    if (boostLeft_ > 0 && boostLane_ >= 0 &&
        (liveMask_ & (1u << boostLane_))) {
        key = keys_[boostLane_];
        --boostLeft_;
    } else {
        boostLeft_ = 0;
        for (int lane = 0; lane < batchSize_; ++lane)
            key = std::min(key, keys_[lane]);
    }
    simr_assert(key != kRetiredKey, "no lane selected");

    // Active set: lanes parked at exactly the picked position.
    Mask active = 0;
    for (int lane = 0; lane < batchSize_; ++lane)
        active |= static_cast<Mask>(keys_[lane] == key) << lane;

    execGroup(active, op);
    op.pathSwitch = prevActive_ != 0 && active != prevActive_;
    if (op.pathSwitch)
        ++stats_.pathSwitches;
    prevActive_ = active & liveMask_;

    if (op.isBranch()) {
        Mask t = op.takenMask;
        if (t != 0 && t != op.mask) {
            ++stats_.divergeEvents;
            noteDivergence(op.pc);
            if (obs_)
                obs_->onDiverge(op.pc, stats_.batchOps);
        }
    }

    // Spin-escape bookkeeping (Section III-A): a lane idle for k steps
    // while atomics keep being decoded is likely waiting on a lock held
    // by a masked-off path; boost it for t steps. Lanes are tried in
    // ascending order; with t = 0 every qualifying lane counts.
    if (op.si->op == isa::Op::Atomic)
        windowAtomics_ += static_cast<uint64_t>(op.activeLanes());
    if ((stats_.batchOps & 63) == 0)
        windowAtomics_ /= 2;

    if (spin_.enabled && windowAtomics_ >= spin_.atomicThreshold &&
        boostLeft_ == 0) {
        for (Mask m = liveMask_ & ~active; m != 0; m &= m - 1) {
            const int lane = __builtin_ctz(m);
            if (batchOpIdx_ - ranAt_[lane] < spin_.stagnationSteps)
                continue;
            boostLane_ = lane;
            boostLeft_ = spin_.boostSteps;
            ranAt_[lane] = batchOpIdx_;
            ++stats_.spinEscapes;
            if (obs_)
                obs_->onSpinEscape(
                    lane, lanes_[static_cast<size_t>(lane)]->curPc(),
                    stats_.batchOps);
            if (boostLeft_ > 0)
                break;
        }
    }
    return true;
}

} // namespace simr::simt
