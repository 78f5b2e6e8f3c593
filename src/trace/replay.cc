#include "trace/replay.h"

#include "common/logging.h"

namespace simr::trace
{

using isa::StaticInst;

void
ReplayCursor::start(std::shared_ptr<const CapturedTrace> t,
                    const ThreadInit &init)
{
    simr_assert(t != nullptr, "replaying a null trace");
    simr_assert(t->fingerprint() == pi_->fingerprint(),
                "trace replayed against a different program");
    // Bounds checks are hoisted here, once per request: with the
    // replay-ready columns proved coherent at start, each step() only
    // needs the debug-build position guard below.
    simr_assert(t->dep1().size() == t->opCount() &&
                t->dep2().size() == t->opCount() &&
                t->callDepth().size() == t->opCount() &&
                t->flags().size() == t->opCount(),
                "trace columns inconsistent with op count");
    trace_ = std::move(t);
    pos_ = 0;
    n_ = trace_->opCount();
    memPos_ = 0;
    const ThreadInit &from = trace_->frame();
    shift_[static_cast<int>(AddrKind::Invariant)] = 0;
    shift_[static_cast<int>(AddrKind::StackRel)] =
        init.stackTop - from.stackTop;
    shift_[static_cast<int>(AddrKind::HeapRel)] =
        init.heapBase - from.heapBase;
    idx_ = trace_->staticIdx().data();
    flg_ = trace_->flags().data();
    dep1Col_ = trace_->dep1().data();
    dep2Col_ = trace_->dep2().data();
    depthCol_ = trace_->callDepth().data();
    addrCol_ = trace_->memAddr().data();
    insts_ = pi_->instTable();
    codeBase_ = pi_->codeBase();
}

void
ReplayCursor::step(StepResult &out)
{
    simr_dassert(pos_ < n_, "step on a finished replay");
    const uint64_t pos = pos_;
    const uint32_t flat = idx_[pos];
    const uint8_t flags = flg_[pos];
    const StaticInst *si = insts_[flat];

    out.si = si;
    out.pc = codeBase_ + static_cast<isa::Pc>(flat) * isa::kInstBytes;
    out.taken = (flags & CapturedTrace::kTakenBit) != 0;
    out.dep1 = dep1Col_[pos];
    out.dep2 = dep2Col_[pos];
    out.callDepth = depthCol_[pos];
    out.addr = 0;
    out.accessSize = 0;
    if (flags & CapturedTrace::kMemBit) {
        int k = (flags >> CapturedTrace::kAddrKindShift) &
            CapturedTrace::kAddrKindMask;
        out.addr = addrCol_[memPos_++] + shift_[k];
        out.accessSize = si->accessSize;
    }
    pos_ = pos + 1;
}

// ---------------------------------------------------------------------------
// Stream-level capture / replay

namespace
{

/**
 * Whether a stream op carries exactly the lanes, addrCount and
 * accessSize StreamTrace implies from `size`, its instruction's
 * ProgramIndex::memSize: for a memory op, its mask's set bits in
 * ascending order, their count and that size; for any other op, none.
 */
bool
impliedPayload(const DynOp &op, uint16_t size)
{
    const int lanes = size != 0 ? popcount(op.mask) : 0;
    if (op.accessSize != size || op.addrCount != lanes)
        return false;
    Mask m = op.mask;
    for (uint8_t i = 0; i < op.addrCount; ++i, m &= m - 1)
        if (op.lane[i] != __builtin_ctz(m))
            return false;
    return true;
}

/** Whether n >= 2 addresses form one arithmetic progression (mod 2^64). */
bool
isStrided(const uint64_t *addr, uint8_t n)
{
    if (n < 2)
        return false;
    const uint64_t stride = addr[1] - addr[0];
    for (uint8_t i = 2; i < n; ++i)
        if (addr[i] - addr[i - 1] != stride)
            return false;
    return true;
}

/** One dependence byte; distances of kDepEscape or more go to `wide`. */
uint8_t
narrowDep(uint16_t d, std::vector<uint16_t> &wide)
{
    if (d < StreamTrace::kDepEscape)
        return static_cast<uint8_t>(d);
    wide.push_back(d);
    return StreamTrace::kDepEscape;
}

} // namespace

void
StreamCaptureBuilder::reset()
{
    out_ = std::make_unique<StreamTrace>();
    out_->fingerprint_ = pi_->fingerprint();
    nextFlat_ = 0;
    mask_ = 0;
    depth_ = 0;
}

void
StreamCaptureBuilder::onOp(const DynOp &op)
{
    StreamTrace &t = *out_;
    const uint32_t flat = pi_->flatOf(op.pc);
    const uint16_t size = pi_->memSize(flat);
    simr_assert(impliedPayload(op, size),
                "stream op lanes, addrCount or accessSize not implied by "
                "its mask and instruction");
    uint8_t flags = 0;
    if (op.batchStart)
        flags |= StreamTrace::kBatchStartBit;
    if (op.pathSwitch)
        flags |= StreamTrace::kPathSwitchBit;
    if (flat != nextFlat_) {
        flags |= StreamTrace::kJumpBit;
        t.staticIdx_.push_back(flat);
    }
    nextFlat_ = flat + 1;
    if (op.mask != mask_) {
        flags |= StreamTrace::kMaskBit;
        t.mask_.push_back(op.mask);
        mask_ = op.mask;
    }
    if (op.callDepth != depth_) {
        flags |= StreamTrace::kDepthBit;
        t.callDepth_.push_back(op.callDepth);
        depth_ = op.callDepth;
    }
    if (op.takenMask != 0) {
        flags |= StreamTrace::kTakenBit;
        t.takenMask_.push_back(op.takenMask);
    }
    if (op.endMask != 0) {
        flags |= StreamTrace::kEndBit;
        t.endMask_.push_back(op.endMask);
    }
    if (size != 0) {
        if (isStrided(op.addr, op.addrCount)) {
            flags |= StreamTrace::kStrideBit;
            t.addr_.push_back(op.addr[0]);
            t.addr_.push_back(op.addr[1] - op.addr[0]);
        } else {
            t.addr_.insert(t.addr_.end(), op.addr, op.addr + op.addrCount);
        }
    }
    t.dep1_.push_back(narrowDep(op.dep1, t.depWide_));
    t.dep2_.push_back(narrowDep(op.dep2, t.depWide_));
    t.flags_.push_back(flags);
}

std::shared_ptr<const StreamTrace>
StreamCaptureBuilder::finish()
{
    simr_assert(out_ != nullptr, "finish without reset");
    StreamTrace &t = *out_;
    t.flags_.shrink_to_fit();
    t.dep1_.shrink_to_fit();
    t.dep2_.shrink_to_fit();
    t.staticIdx_.shrink_to_fit();
    t.mask_.shrink_to_fit();
    t.callDepth_.shrink_to_fit();
    t.depWide_.shrink_to_fit();
    t.takenMask_.shrink_to_fit();
    t.endMask_.shrink_to_fit();
    t.addr_.shrink_to_fit();
    return std::shared_ptr<const StreamTrace>(std::move(out_));
}

ReplayStream::ReplayStream(const isa::Program &prog,
                           std::shared_ptr<const StreamTrace> t,
                           std::nullptr_t)
    : pi_(prog), trace_(std::move(t))
{
    simr_assert(trace_ != nullptr, "replaying a null stream trace");
    simr_assert(trace_->fingerprint() == pi_.fingerprint(),
                "stream trace replayed against a different program");
    n_ = trace_->opCount();
}

void
ReplayStream::setMask(Mask m)
{
    mask_ = m;
    laneCount_ = 0;
    for (; m != 0; m &= m - 1)
        lanes_[laneCount_++] = static_cast<uint8_t>(__builtin_ctz(m));
}

bool
ReplayStream::next(DynOp &op)
{
    const StreamTrace &t = *trace_;
    if (pos_ >= n_) {
        // Once per stream: every sparse column must be used up exactly.
        simr_assert(idxPos_ == t.staticIdx_.size() &&
                    maskPos_ == t.mask_.size() &&
                    depthPos_ == t.callDepth_.size() &&
                    depPos_ == t.depWide_.size() &&
                    takenPos_ == t.takenMask_.size() &&
                    endPos_ == t.endMask_.size() &&
                    addrPos_ == t.addr_.size(),
                    "stream ended with sparse entries left over");
        return false;
    }
    const uint64_t pos = pos_++;
    const uint8_t flags = t.flags_[pos];

    // Jumps, mask and depth changes mostly fall on the same ops (calls,
    // returns, divergence), so one branch guards all three.
    constexpr uint8_t kChanges = StreamTrace::kJumpBit |
        StreamTrace::kMaskBit | StreamTrace::kDepthBit;
    if (flags & kChanges) {
        if (flags & StreamTrace::kJumpBit)
            nextFlat_ = t.staticIdx_[idxPos_++];
        if (flags & StreamTrace::kMaskBit)
            setMask(t.mask_[maskPos_++]);
        if (flags & StreamTrace::kDepthBit)
            depth_ = t.callDepth_[depthPos_++];
    }
    const uint32_t flat = nextFlat_++;
    op.si = pi_.inst(flat);
    op.pc = pi_.pcOf(flat);
    op.mask = mask_;
    op.callDepth = depth_;
    const uint8_t d1 = t.dep1_[pos];
    op.dep1 = d1 == StreamTrace::kDepEscape ? t.depWide_[depPos_++] : d1;
    const uint8_t d2 = t.dep2_[pos];
    op.dep2 = d2 == StreamTrace::kDepEscape ? t.depWide_[depPos_++] : d2;
    op.batchStart = (flags & StreamTrace::kBatchStartBit) != 0;
    op.pathSwitch = (flags & StreamTrace::kPathSwitchBit) != 0;
    op.takenMask =
        (flags & StreamTrace::kTakenBit) ? t.takenMask_[takenPos_++] : 0;
    if (flags & StreamTrace::kEndBit) {
        op.endMask = t.endMask_[endPos_++];
        completed_ += static_cast<uint64_t>(popcount(op.endMask));
    } else {
        op.endMask = 0;
    }
    if (const uint16_t size = pi_.memSize(flat)) {
        const uint8_t count = laneCount_;
        const uint64_t *a = t.addr_.data() + addrPos_;
        op.accessSize = size;
        op.addrCount = count;
        if (flags & StreamTrace::kStrideBit) {
            const uint64_t stride = a[1];
            uint64_t addr = a[0];
            for (uint8_t i = 0; i < count; ++i, addr += stride) {
                op.lane[i] = lanes_[i];
                op.addr[i] = addr;
            }
            addrPos_ += 2;
        } else {
            for (uint8_t i = 0; i < count; ++i) {
                op.lane[i] = lanes_[i];
                op.addr[i] = a[i];
            }
            addrPos_ += count;
        }
    } else {
        op.accessSize = 0;
        op.addrCount = 0;
    }
    return true;
}

void
LaneExec::reset(const ThreadInit &init)
{
    init_ = init;
    replaying_ = false;
    capturing_ = false;
    if (cache_ != nullptr) {
        bool dedup = false;
        if (auto t = cache_->lookup(pi_->fingerprint(), init, &dedup)) {
            replay_.start(std::move(t), init);
            replaying_ = true;
            ++stats_.hits;
            if (dedup)
                ++stats_.dedupHits;
            return;
        }
        ++stats_.misses;
        capturing_ = true;
        builder_.reset(init);
        if (builder_.staticFastPath())
            ++stats_.staticCaptures;
    }
    live_.reset(init);
}

void
LaneExec::finishCapture()
{
    cache_->insert(pi_->fingerprint(), init_, builder_.finish());
    capturing_ = false;
}

} // namespace simr::trace
