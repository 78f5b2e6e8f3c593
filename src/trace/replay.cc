#include "trace/replay.h"

#include <algorithm>

#include "common/logging.h"
#include "isa/builder.h"

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

// ---------------------------------------------------------------------------
// The LaneFile's trace-cache lanes

CacheLanes::CacheLanes(const ProgramIndex &pi, int width, TraceCache *cache)
    : pi(&pi), cache(cache),
      cursors(static_cast<size_t>(width), ReplayCursor(pi)),
      inits(static_cast<size_t>(width)), dyn(static_cast<size_t>(width)),
      writer(isa::kNumRegs * static_cast<size_t>(width))
{
    for (int i = 0; i < width; ++i)
        builders.emplace_back(pi);
}

LaneFile::LaneFile(const ProgramIndex &pi, int width, TraceCache *cache)
    : LaneFile(pi.program(), width)
{
    if (cache != nullptr)
        cache_ = std::make_unique<CacheLanes>(pi, width, cache);
}

LaneFile::~LaneFile() = default;
LaneFile::LaneFile(LaneFile &&) noexcept = default;
LaneFile &LaneFile::operator=(LaneFile &&) noexcept = default;

void
LaneFile::setStaticProof(std::shared_ptr<const StaticProof> proof)
{
    if (!cache_)
        return;
    for (CaptureBuilder &b : cache_->builders)
        b.setStaticProof(proof);
}

ReuseStats
LaneFile::reuseStats() const
{
    return cache_ ? cache_->stats : ReuseStats{};
}

void
LaneFile::launchCached(const ThreadInit *inits, int n)
{
    CacheLanes &c = *cache_;
    const auto w = static_cast<size_t>(width_);
    for (int i = 0; i < n; ++i) {
        const auto l = static_cast<size_t>(i);
        const Mask bit = Mask{1} << i;
        bool dedup = false;
        if (auto t = c.cache->lookup(c.pi->fingerprint(), inits[i],
                                     &dedup)) {
            ReplayCursor &cur = c.cursors[l];
            cur.start(std::move(t), inits[i]);
            replaying_ |= bit;
            key_[l] = cur.done() ? kRetiredKey
                : posKey(cur.callDepth(), cur.curBlock(), cur.curIdx());
            ++c.stats.hits;
            if (dedup)
                ++c.stats.dedupHits;
            continue;
        }
        ++c.stats.misses;
        capturing_ |= bit;
        c.builders[l].reset(inits[i]);
        if (c.builders[l].staticFastPath())
            ++c.stats.staticCaptures;
        c.inits[l] = inits[i];
        c.dyn[l] = 0;
        for (size_t r = 0; r < isa::kNumRegs; ++r)
            c.writer[r * w + l] = 0;
    }
}

void
LaneFile::stepReplaying(Mask mask, DynOp &op, Mask *dep1, Mask *dep2)
{
    CacheLanes &c = *cache_;
    const Mask rep = mask & replaying_;
    uint64_t addr[kMaxBatch];
    StepResult r;
    for (Mask m = rep; m != 0; m &= m - 1) {
        const int l = __builtin_ctz(m);
        const Mask bit = Mask{1} << l;
        ReplayCursor &cur = c.cursors[static_cast<size_t>(l)];
        cur.step(r);
        simr_dassert(r.si == op.si,
                     "lockstep group executed different instructions");
        if (r.taken)
            op.takenMask |= bit;
        if (r.dep1 != 0)
            *dep1 |= bit;
        if (r.dep2 != 0)
            *dep2 |= bit;
        addr[l] = r.addr;
        if (cur.done()) {
            key_[static_cast<size_t>(l)] = kRetiredKey;
            op.endMask |= bit;
        } else {
            key_[static_cast<size_t>(l)] =
                posKey(cur.callDepth(), cur.curBlock(), cur.curIdx());
        }
    }
    c.stats.replayedOps += static_cast<uint64_t>(popcount(rep));
    if (!isa::opInfo(op.si->op).isMem)
        return;

    // Merge into the live lanes' ascending list, from the top down.
    int from = op.addrCount;
    int to = popcount(mask);
    op.addrCount = static_cast<uint8_t>(to);
    for (Mask m = mask; m != 0;) {
        const int l = 31 - __builtin_clz(m);
        m &= ~(Mask{1} << l);
        --to;
        if (rep & (Mask{1} << l)) {
            op.lane[to] = static_cast<uint8_t>(l);
            op.addr[to] = addr[l];
        } else {
            --from;
            op.lane[to] = op.lane[from];
            op.addr[to] = op.addr[from];
        }
    }
}

void
LaneFile::stepCapturing(Mask mask, const DynOp &op)
{
    CacheLanes &c = *cache_;
    const isa::StaticInst &si = *op.si;
    const auto w = static_cast<size_t>(width_);
    const bool mem = isa::opInfo(si.op).isMem;
    const bool writes =
        isa::opInfo(si.op).writesReg && si.dst != isa::R_ZERO;
    StepResult r;
    r.si = op.si;
    r.pc = op.pc;
    r.accessSize = op.accessSize;
    r.callDepth = op.callDepth;
    for (Mask m = mask & capturing_; m != 0; m &= m - 1) {
        const int l = __builtin_ctz(m);
        const auto lane = static_cast<size_t>(l);
        const Mask bit = Mask{1} << l;
        const uint64_t dyn = ++c.dyn[lane];
        auto dep = [&](isa::RegId reg) -> uint16_t {
            const uint64_t at = c.writer[reg * w + lane];
            if (reg == isa::R_ZERO || at == 0)
                return 0;
            return static_cast<uint16_t>(std::min<uint64_t>(dyn - at, 0xffff));
        };
        r.taken = (op.takenMask & bit) != 0;
        r.addr = mem ? op.addr[popcount(mask & (bit - 1))] : 0;
        r.dep1 = dep(si.src1);
        r.dep2 = dep(si.src2);
        if (writes)
            c.writer[si.dst * w + lane] = dyn;
        c.builders[lane].onStep(r);
        ++c.stats.capturedOps;
        if (op.endMask & bit) {
            c.cache->insert(c.pi->fingerprint(), c.inits[lane],
                            c.builders[lane].finish());
            capturing_ &= ~bit;
        }
    }
}

} // namespace simr::trace
