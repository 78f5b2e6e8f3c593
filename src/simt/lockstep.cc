#include "simt/lockstep.h"

#include <algorithm>

#include "common/logging.h"
#include "isa/builder.h"

namespace simr::simt
{

using trace::DynOp;
using trace::Mask;

using trace::blockEntryKey;
using trace::keyBlock;
using trace::kRetiredKey;

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
      provider_(std::move(provider)), spin_(spin), pi_(prog),
      lanes_(pi_, width, cache)
{
    stats_.width = width_;
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
    lanes_.setStaticProof(proofApplies_ ? proof_ : nullptr);
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

    batchSize_ = n;
    liveMask_ = lanes_.launch(inits_.data(), n);
    if (liveMask_ == 0)
        return launchNext();

    ++stats_.batches;
    batchActive_ = true;
    if (obs_)
        obs_->onBatchStart(stats_.batches - 1, batchSize_,
                           stats_.batchOps);

    stack_.clear();
    // All live lanes start at main's entry.
    stack_.push_back({lanes_.key(__builtin_ctz(liveMask_)), -1, liveMask_});

    std::fill(std::begin(ranAt_), std::end(ranAt_), 0);
    windowAtomics_ = 0;
    boostLane_ = -1;
    boostLeft_ = 0;
    prevActive_ = 0;
    return true;
}

void
LockstepEngine::execGroup(Mask mask, DynOp &op)
{
    op.mask = mask;
    op.pathSwitch = false;
    lanes_.step(mask, op);
    const uint64_t at = lanes_.opCount();
    for (Mask m = mask; m != 0; m &= m - 1)
        ranAt_[__builtin_ctz(m)] = at;
    liveMask_ &= ~op.endMask;
    completed_ += static_cast<uint64_t>(trace::popcount(op.endMask));

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
        const uint64_t key = lanes_.key(lane);
        int g = 0;
        while (g < ngroups && groups[g].key != key)
            ++g;
        if (g == ngroups)
            groups[ngroups++] = {key, 0};
        groups[g].mask |= Mask{1} << lane;
    }

    e.mask = survivors;

    // Merge any group that landed on a waiting ancestor's position
    // (covers empty-arm joins the lane file lands lanes past).
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
    const uint64_t *keys = lanes_.keys();
    uint64_t key = kRetiredKey;
    if (boostLeft_ > 0 && boostLane_ >= 0 &&
        (liveMask_ & (1u << boostLane_))) {
        key = keys[boostLane_];
        --boostLeft_;
    } else {
        boostLeft_ = 0;
        for (int lane = 0; lane < batchSize_; ++lane)
            key = std::min(key, keys[lane]);
    }
    simr_assert(key != kRetiredKey, "no lane selected");

    // Active set: lanes parked at exactly the picked position.
    Mask active = 0;
    for (int lane = 0; lane < batchSize_; ++lane)
        active |= static_cast<Mask>(keys[lane] == key) << lane;

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
        const uint64_t now = lanes_.opCount();
        for (Mask m = liveMask_ & ~active; m != 0; m &= m - 1) {
            const int lane = __builtin_ctz(m);
            if (now - ranAt_[lane] < spin_.stagnationSteps)
                continue;
            boostLane_ = lane;
            boostLeft_ = spin_.boostSteps;
            ranAt_[lane] = now;
            ++stats_.spinEscapes;
            if (obs_)
                obs_->onSpinEscape(lane, lanes_.pc(lane), stats_.batchOps);
            if (boostLeft_ > 0)
                break;
        }
    }
    return true;
}

} // namespace simr::simt
