#include "trace/kernels.h"

#include <algorithm>
#include <cstring>

#ifdef SIMR_SIMD_BUILD
#include <immintrin.h>
#endif

#include "common/logging.h"
#include "isa/builder.h"
#include "trace/replay.h"

namespace simr::trace
{

using isa::StaticInst;

// ---------------------------------------------------------------------------
// Lane relocation
//
// The vector path only changes *how* the per-lane canonical addresses
// are computed: 64-bit lane-wise adds wrap mod 2^64 exactly like the
// scalar uint64_t add, so the results are bit-identical by
// construction. Runtime dispatch (simdAvailable() checks CPU support)
// keeps the build portable: nothing outside the `target("avx2")`
// function emits AVX2 instructions.

namespace detail
{

void
relocScalar(uint64_t *dst, const uint64_t *const *cols, uint64_t row,
            const uint64_t *shifts, int n, bool shared)
{
    if (shared) {
        const uint64_t a = cols[0][row];
        for (int i = 0; i < n; ++i)
            dst[i] = a + shifts[i];
    } else {
        for (int i = 0; i < n; ++i)
            dst[i] = cols[i][row] + shifts[i];
    }
}

#if defined(SIMR_SIMD_BUILD) && defined(__GNUC__)

__attribute__((target("avx2"))) void
relocAvx2(uint64_t *dst, const uint64_t *const *cols, uint64_t row,
          const uint64_t *shifts, int n, bool shared)
{
    int i = 0;
    if (shared) {
        // Dedup batch: broadcast the one address, add 4 shifts at once.
        const uint64_t a = cols[0][row];
        const __m256i av = _mm256_set1_epi64x(static_cast<long long>(a));
        for (; i + 4 <= n; i += 4) {
            const __m256i sv = _mm256_load_si256(
                reinterpret_cast<const __m256i *>(shifts + i));
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                                _mm256_add_epi64(av, sv));
        }
        for (; i < n; ++i)
            dst[i] = a + shifts[i];
        return;
    }
    // Distinct columns, one shared row index: pack 4 lanes + shift add.
    for (; i + 4 <= n; i += 4) {
        const __m256i av = _mm256_set_epi64x(
            static_cast<long long>(cols[i + 3][row]),
            static_cast<long long>(cols[i + 2][row]),
            static_cast<long long>(cols[i + 1][row]),
            static_cast<long long>(cols[i][row]));
        const __m256i sv = _mm256_load_si256(
            reinterpret_cast<const __m256i *>(shifts + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                            _mm256_add_epi64(av, sv));
    }
    for (; i < n; ++i)
        dst[i] = cols[i][row] + shifts[i];
}

#else

void
relocAvx2(uint64_t *, const uint64_t *const *, uint64_t, const uint64_t *,
          int, bool)
{
    simr_panic("AVX2 relocation is not compiled in (-DSIMR_SIMD=OFF)");
}

#endif // SIMR_SIMD_BUILD && __GNUC__

} // namespace detail

// ---------------------------------------------------------------------------
// TraceBatchKernel

void
TraceBatchKernel::start(const CapturedTrace *rep, const LaneSrc *lanes,
                        int n, const ProgramIndex &pi)
{
    simr_assert(rep != nullptr && n >= 1 && n <= kMaxBatch,
                "bad batch kernel inputs");
    pos_ = 0;
    n_ = rep->opCount();
    memPos_ = 0;
    nLanes_ = n;
    fullMask_ = n == kMaxBatch ? ~Mask{0} : ((Mask{1} << n) - 1);
    simd_ = simdAvailable();
    idx_ = rep->staticIdx().data();
    flg_ = rep->flags().data();
    dep1Col_ = rep->dep1().data();
    dep2Col_ = rep->dep2().data();
    depthCol_ = rep->callDepth().data();
    insts_ = pi.instTable();
    codeBase_ = pi.codeBase();
    sharedCol_ = true;
    for (int i = 0; i < n; ++i) {
        laneAddrCol_[i] = lanes[i].addrCol;
        sharedCol_ = sharedCol_ && lanes[i].addrCol == lanes[0].addrCol;
        for (int k = 0; k < 3; ++k)
            shiftsByKind_[k][i] = lanes[i].shift[k];
    }
    simdLanes_ = 0;
}

void
TraceBatchKernel::step(DynOp &op)
{
    simr_dassert(pos_ < n_, "step on a finished batch kernel");
    const uint64_t pos = pos_;
    const uint32_t flat = idx_[pos];
    const uint8_t flags = flg_[pos];
    const StaticInst *si = insts_[flat];

    op.si = si;
    op.pc = codeBase_ + static_cast<isa::Pc>(flat) * isa::kInstBytes;
    op.mask = fullMask_;
    op.callDepth = depthCol_[pos];
    op.dep1 = dep1Col_[pos];
    op.dep2 = dep2Col_[pos];
    op.takenMask = (flags & CapturedTrace::kTakenBit) ? fullMask_ : 0;
    op.endMask = 0;
    op.addrCount = 0;
    op.accessSize = 0;
    op.pathSwitch = false;
    // op.batchStart is deliberately untouched: the engine stamps it
    // after this step, exactly as it does after execGroup.

    if (flags & CapturedTrace::kMemBit) {
        const int kind = (flags >> CapturedTrace::kAddrKindShift) &
            CapturedTrace::kAddrKindMask;
        op.addrCount = static_cast<uint8_t>(nLanes_);
        op.accessSize = si->accessSize;
        for (int i = 0; i < nLanes_; ++i)
            op.lane[i] = static_cast<uint8_t>(i);
        if (simd_) {
            detail::relocAvx2(op.addr, laneAddrCol_, memPos_,
                              shiftsByKind_[kind], nLanes_, sharedCol_);
            simdLanes_ += static_cast<uint64_t>(nLanes_);
        } else {
            detail::relocScalar(op.addr, laneAddrCol_, memPos_,
                                shiftsByKind_[kind], nLanes_, sharedCol_);
        }
        ++memPos_;
    }
    pos_ = pos + 1;
    if (pos_ == n_)
        op.endMask = fullMask_;
}

void
TraceBatchKernel::finish()
{
    addCompiledOps(n_);
    if (simdLanes_ != 0) {
        addSimdLanes(simdLanes_);
        simdLanes_ = 0;
    }
}

// ---------------------------------------------------------------------------
// CompiledStreamCursor

void
CompiledStreamCursor::start(std::shared_ptr<const CompiledStream> k,
                            const ProgramIndex &pi)
{
    simr_assert(k != nullptr, "replaying a null compiled stream");
    const StreamTrace &src = k->src();
    simr_assert(src.fingerprint() == pi.fingerprint(),
                "compiled stream replayed against a different program");
    k_ = std::move(k);
    recs_ = k_->recs().data();
    recPos_ = 0;
    inRec_ = 0;
    opPos_ = 0;
    n_ = k_->opCount();
    completed_ = 0;
    flushed_ = false;
    gates_ = k_->depGates().data();
    takenCol_ = src.takenMaskCol().data();
    endCol_ = src.endMaskCol().data();
    addrCountCol_ = src.addrCountCol().data();
    accessSizeCol_ = src.accessSizeCol().data();
    laneCol_ = src.laneCol().data();
    addrCol_ = src.addrCol().data();
    takenPos_ = endPos_ = memPos_ = lanePos_ = 0;
    insts_ = pi.instTable();
    codeBase_ = pi.codeBase();
    batchOpIdx_ = 0;
    std::memset(lastWriter_, 0, sizeof(lastWriter_));
}

bool
CompiledStreamCursor::next(DynOp &op)
{
    if (opPos_ >= n_) {
        if (!flushed_) {
            addCompiledOps(n_);
            flushed_ = true;
        }
        return false;
    }
    const CompiledStream::Rec &r = recs_[recPos_];
    const uint32_t flat = r.flat + inRec_;
    const StaticInst *si = insts_[flat];

    op.si = si;
    op.pc = codeBase_ + static_cast<isa::Pc>(flat) * isa::kInstBytes;
    op.mask = r.mask;
    op.callDepth = r.depth;
    if (inRec_ == 0) {
        op.batchStart = (r.kind & CompiledStream::kBatchStartBit) != 0;
        op.pathSwitch = (r.kind & CompiledStream::kPathSwitchBit) != 0;
        if (op.batchStart) {
            // New batch (or, on scalar streams, new request): the
            // producer reset its dependence bookkeeping here.
            batchOpIdx_ = 0;
            std::memset(lastWriter_, 0, sizeof(lastWriter_));
        }
    } else {
        op.batchStart = false;
        op.pathSwitch = false;
    }

    // Batch-op-space dependence recomputation (LockstepEngine's bdep /
    // the interpreter's dep_of -- identical on every gated read). The
    // stored gate bit carries the engine's max-over-active-lanes
    // decision, which divergence makes underivable from batch space.
    ++batchOpIdx_;
    const uint8_t g = static_cast<uint8_t>(
        (gates_[opPos_ >> 2] >> ((opPos_ & 3) * 2)) & 3);
    auto bdep = [this](isa::RegId reg) -> uint16_t {
        const uint64_t d = batchOpIdx_ - lastWriter_[reg];
        return static_cast<uint16_t>(std::min<uint64_t>(d, 0xffff));
    };
    op.dep1 = (g & 1) ? bdep(si->src1) : 0;
    op.dep2 = (g & 2) ? bdep(si->src2) : 0;
    // Engine convention: the producer index is recorded without an
    // R_ZERO check (bdep gates R_ZERO reads, so it is unobservable).
    if (isa::opInfo(si->op).writesReg)
        lastWriter_[si->dst] = batchOpIdx_;

    ++opPos_;
    if (inRec_ + 1 < r.count) {
        // Interior op of a straight-line run: no payload, no events.
        ++inRec_;
        op.takenMask = 0;
        op.endMask = 0;
        op.addrCount = 0;
        op.accessSize = 0;
        return true;
    }

    // Tail op: threaded dispatch on the pre-resolved event combination
    // (taken | end<<1 | mem<<2).
#if defined(__GNUC__)
    {
        static const void *const tails[8] = {&&t0, &&t1, &&t2, &&t3,
                                             &&t4, &&t5, &&t6, &&t7};
        goto *tails[r.kind & CompiledStream::kTailMask];
    t7:
        op.takenMask = takenCol_[takenPos_++];
        readEnd(op);
        readMem(op);
        goto sealed;
    t6:
        op.takenMask = 0;
        readEnd(op);
        readMem(op);
        goto sealed;
    t5:
        op.takenMask = takenCol_[takenPos_++];
        op.endMask = 0;
        readMem(op);
        goto sealed;
    t4:
        op.takenMask = 0;
        op.endMask = 0;
        readMem(op);
        goto sealed;
    t3:
        op.takenMask = takenCol_[takenPos_++];
        readEnd(op);
        op.addrCount = 0;
        op.accessSize = 0;
        goto sealed;
    t2:
        op.takenMask = 0;
        readEnd(op);
        op.addrCount = 0;
        op.accessSize = 0;
        goto sealed;
    t1:
        op.takenMask = takenCol_[takenPos_++];
        op.endMask = 0;
        op.addrCount = 0;
        op.accessSize = 0;
        goto sealed;
    t0:
        op.takenMask = 0;
        op.endMask = 0;
        op.addrCount = 0;
        op.accessSize = 0;
    sealed:;
    }
#else
    op.takenMask = (r.kind & CompiledStream::kTakenBit)
        ? takenCol_[takenPos_++]
        : 0;
    if (r.kind & CompiledStream::kEndBit) {
        readEnd(op);
    } else {
        op.endMask = 0;
    }
    if (r.kind & CompiledStream::kMemBit) {
        readMem(op);
    } else {
        op.addrCount = 0;
        op.accessSize = 0;
    }
#endif
    ++recPos_;
    inRec_ = 0;
    return true;
}

uint64_t
CompiledStreamCursor::drainRemaining()
{
    // Counts come from compile-time aggregates: O(1) regardless of how
    // much of the stream is left. This is the warm front-end fast path.
    const uint64_t skipped = n_ - opPos_;
    completed_ = k_->totalCompleted();
    opPos_ = n_;
    if (!flushed_) {
        addCompiledOps(n_);
        flushed_ = true;
    }
    return skipped;
}

} // namespace simr::trace
