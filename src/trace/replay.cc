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

void
StreamCaptureBuilder::reset()
{
    out_ = std::make_unique<StreamTrace>();
    out_->fingerprint_ = pi_->fingerprint();
}

void
StreamCaptureBuilder::onOp(const DynOp &op)
{
    StreamTrace &t = *out_;
    uint8_t flags = 0;
    if (op.batchStart)
        flags |= StreamTrace::kBatchStartBit;
    if (op.pathSwitch)
        flags |= StreamTrace::kPathSwitchBit;
    if (op.takenMask != 0) {
        flags |= StreamTrace::kTakenBit;
        t.takenMask_.push_back(op.takenMask);
    }
    if (op.endMask != 0) {
        flags |= StreamTrace::kEndBit;
        t.endMask_.push_back(op.endMask);
    }
    if (op.addrCount != 0 || op.accessSize != 0) {
        flags |= StreamTrace::kMemBit;
        t.addrCount_.push_back(op.addrCount);
        t.accessSize_.push_back(op.accessSize);
        for (uint8_t i = 0; i < op.addrCount; ++i) {
            t.lane_.push_back(op.lane[i]);
            t.addr_.push_back(op.addr[i]);
        }
    }
    t.staticIdx_.push_back(pi_->flatOf(op.pc));
    t.flags_.push_back(flags);
    t.mask_.push_back(op.mask);
    t.callDepth_.push_back(op.callDepth);
    t.dep1_.push_back(op.dep1);
    t.dep2_.push_back(op.dep2);
}

std::shared_ptr<const StreamTrace>
StreamCaptureBuilder::finish()
{
    simr_assert(out_ != nullptr, "finish without reset");
    StreamTrace &t = *out_;
    t.staticIdx_.shrink_to_fit();
    t.flags_.shrink_to_fit();
    t.mask_.shrink_to_fit();
    t.callDepth_.shrink_to_fit();
    t.dep1_.shrink_to_fit();
    t.dep2_.shrink_to_fit();
    t.takenMask_.shrink_to_fit();
    t.endMask_.shrink_to_fit();
    t.addrCount_.shrink_to_fit();
    t.accessSize_.shrink_to_fit();
    t.lane_.shrink_to_fit();
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

bool
ReplayStream::next(DynOp &op)
{
    if (pos_ >= n_)
        return false;
    const StreamTrace &t = *trace_;
    const uint64_t pos = pos_;
    const uint32_t flat = t.staticIdx_[pos];
    const uint8_t flags = t.flags_[pos];

    op.si = pi_.inst(flat);
    op.pc = pi_.pcOf(flat);
    op.mask = t.mask_[pos];
    op.callDepth = t.callDepth_[pos];
    op.dep1 = t.dep1_[pos];
    op.dep2 = t.dep2_[pos];
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
    if (flags & StreamTrace::kMemBit) {
        const uint8_t count = t.addrCount_[memPos_];
        op.accessSize = t.accessSize_[memPos_++];
        op.addrCount = count;
        for (uint8_t i = 0; i < count; ++i) {
            op.lane[i] = t.lane_[lanePos_];
            op.addr[i] = t.addr_[lanePos_++];
        }
    } else {
        op.accessSize = 0;
        op.addrCount = 0;
    }
    pos_ = pos + 1;
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
