#include "trace/interp.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"
#include "isa/builder.h"
#include "trace/replay.h"  // CacheLanes, for the owning pointer

namespace simr::trace
{

using isa::AluKind;
using isa::Cmp;
using isa::Op;
using isa::StaticInst;

namespace
{

/** The value a compute op writes. */
inline int64_t
aluValue(AluKind k, int64_t a, int64_t b, int64_t imm)
{
    // Arithmetic wraps mod 2^64 by µISA definition (services use Add/Mul
    // for hash mixing); compute in unsigned so the wrap is well-defined.
    auto ua = static_cast<uint64_t>(a);
    auto ub = static_cast<uint64_t>(b);
    auto uimm = static_cast<uint64_t>(imm);
    switch (k) {
      case AluKind::MovImm: return imm;
      case AluKind::Mov:    return a;
      case AluKind::Add:    return static_cast<int64_t>(ua + ub);
      case AluKind::AddImm: return static_cast<int64_t>(ua + uimm);
      case AluKind::Sub:    return static_cast<int64_t>(ua - ub);
      case AluKind::Mul:    return static_cast<int64_t>(ua * ub);
      case AluKind::Div:
        if (b == 0)
            return 0;
        if (b == -1)  // INT64_MIN / -1 traps; wrap like negation
            return static_cast<int64_t>(0 - ua);
        return a / b;
      case AluKind::And:    return a & b;
      case AluKind::AndImm: return a & imm;
      case AluKind::Or:     return a | b;
      case AluKind::Xor:    return a ^ b;
      case AluKind::Shl:    return static_cast<int64_t>(ua << (imm & 63));
      case AluKind::Shr:    return static_cast<int64_t>(ua >> (imm & 63));
      case AluKind::Mix:    return static_cast<int64_t>(mix64(ua ^ ub ^ uimm));
      case AluKind::Min:    return a < b ? a : b;
      case AluKind::Max:    return a > b ? a : b;
      case AluKind::ModImm:
        // x % -1 is 0, but INT64_MIN % -1 traps like the division.
        return imm == 0 || imm == -1 ? 0 : a % imm;
    }
    simr_panic("unhandled AluKind %d", static_cast<int>(k));
}

/** A branch's outcome. */
inline bool
cmpHolds(Cmp c, int64_t a, int64_t b)
{
    switch (c) {
      case Cmp::Eq: return a == b;
      case Cmp::Ne: return a != b;
      case Cmp::Lt: return a < b;
      case Cmp::Ge: return a >= b;
    }
    simr_panic("unhandled Cmp %d", static_cast<int>(c));
}

/** d[l] = K(a[l], b[l], imm) for every lane l of `m`. */
template <AluKind K>
void
aluLanes(int64_t *d, const int64_t *a, const int64_t *b, int64_t imm,
         Mask m)
{
    for (; m != 0; m &= m - 1) {
        const int l = __builtin_ctz(m);
        d[l] = aluValue(K, a[l], b[l], imm);
    }
}

/** The lanes of `m` whose operands satisfy C. */
template <Cmp C>
Mask
cmpLanes(const int64_t *a, const int64_t *b, Mask m)
{
    Mask t = 0;
    for (; m != 0; m &= m - 1) {
        const int l = __builtin_ctz(m);
        t |= static_cast<Mask>(cmpHolds(C, a[l], b[l])) << l;
    }
    return t;
}

/** Every lane of `m` moves to `key`. */
inline void
moveLanes(uint64_t *keys, Mask m, uint64_t key)
{
    for (; m != 0; m &= m - 1)
        keys[__builtin_ctz(m)] = key;
}

} // namespace

LaneFile::LaneFile(const isa::Program &prog, int width)
    : prog_(&prog), width_(width)
{
    simr_assert(prog.laidOut(), "program must be laid out before execution");
    simr_assert(width >= 1 && width <= kMaxBatch,
                "lane file width %d out of range", width);
    // Every position must fit its key exactly; the largest block id
    // stays clear of kRetiredKey.
    simr_assert(static_cast<uint64_t>(prog.numBlocks()) < kBlockLimit,
                "program has too many blocks for a position key");
    blocks_.resize(static_cast<size_t>(prog.numBlocks()));
    for (int b = 0; b < prog.numBlocks(); ++b) {
        const isa::BasicBlock &bb = prog.block(b);
        simr_assert(bb.insts.size() < kIdxLimit,
                    "block %d too long for a position key", b);
        Block &k = blocks_[static_cast<size_t>(b)];
        k.insts = bb.insts.data();
        k.pc = prog.blockPc(b);
        k.size = static_cast<uint32_t>(bb.insts.size());
        k.entry = land(b);
        k.fall = bb.fallthrough >= 0 ? land(bb.fallthrough) : kNoPos;
    }
    for (int f = 0; f < prog.numFunctions(); ++f)
        funcEntry_.push_back(land(prog.func(f).entry));
    mainFn_ = prog.findFunction("main");

    const auto w = static_cast<size_t>(width);
    regs_.assign(isa::kNumRegs * w, 0);
    key_.assign(w, kRetiredKey);
    atomics_.assign(w, 0);
    syscalls_.assign(w, 0);
    seed_.assign(w, 0);
    salt_.assign(w, 0);
}

uint64_t
LaneFile::land(int block) const
{
    // An empty block has no terminator, so layout() guarantees it a
    // fallthrough; only a cycle of empty blocks reaches no instruction.
    for (int hops = 0; hops <= prog_->numBlocks(); ++hops) {
        const isa::BasicBlock &bb = prog_->block(block);
        if (!bb.insts.empty())
            return static_cast<uint64_t>(block) << kBlockShift;
        simr_assert(bb.fallthrough >= 0,
                    "fell off a block with no fallthrough");
        block = bb.fallthrough;
    }
    return kNoPos;
}

Mask
LaneFile::launch(const ThreadInit *inits, int n)
{
    simr_assert(n >= 0 && n <= width_, "launching %d requests on %d lanes",
                n, width_);
    std::fill(regs_.begin(), regs_.end(), 0);
    std::fill(key_.begin(), key_.end(), kRetiredKey);
    std::fill(std::begin(lastWriter_), std::end(lastWriter_), 0);
    std::fill(std::begin(written_), std::end(written_), 0);
    opIdx_ = 0;
    replaying_ = 0;
    capturing_ = 0;
    if (n == 0)
        return 0;

    simr_assert(mainFn_ >= 0, "program has no 'main' function");
    const uint64_t entry = funcEntry_[static_cast<size_t>(mainFn_)];
    simr_assert(entry != kNoPos, "main's entry reaches no instruction");
    for (int i = 0; i < n; ++i) {
        const ThreadInit &t = inits[i];
        regs_[slot(isa::R_API, i)] = t.api;
        regs_[slot(isa::R_ARGLEN, i)] = t.argLen;
        regs_[slot(isa::R_KEY, i)] = static_cast<int64_t>(t.key);
        regs_[slot(isa::R_REQID, i)] = t.reqId;
        regs_[slot(isa::R_TID, i)] = t.tid;
        regs_[slot(isa::R_SHARED, i)] = static_cast<int64_t>(t.sharedBase);
        regs_[slot(isa::R_SP, i)] = static_cast<int64_t>(t.stackTop);
        regs_[slot(isa::R_HEAP, i)] = static_cast<int64_t>(t.heapBase);
        const auto l = static_cast<size_t>(i);
        atomics_[l] = 0;
        syscalls_[l] = 0;
        seed_[l] = t.dataSeed;
        salt_[l] = mix64(static_cast<uint64_t>(t.reqId) * 0x9e3779b9 + 1);
        key_[l] = depthKey(0) | entry;
    }
    if (cache_)
        launchCached(inits, n);

    Mask live = 0;
    for (int i = 0; i < n; ++i)
        live |= static_cast<Mask>(!retired(i)) << i;
    return live;
}

isa::Pc
LaneFile::pc(int lane) const
{
    const uint64_t k = key(lane);
    simr_assert(k != kRetiredKey, "position of a finished thread");
    return blocks_[static_cast<size_t>(keyBlock(k))].pc +
        static_cast<isa::Pc>(keyIdx(k)) * isa::kInstBytes;
}

const StaticInst &
LaneFile::inst(int lane) const
{
    const uint64_t k = key(lane);
    simr_assert(k != kRetiredKey, "instruction of a finished thread");
    return blocks_[static_cast<size_t>(keyBlock(k))].insts[keyIdx(k)];
}

void
LaneFile::step(Mask mask, DynOp &op)
{
    simr_assert(mask != 0, "stepping an empty group");
    const uint64_t key = key_[static_cast<size_t>(__builtin_ctz(mask))];
    simr_assert(key != kRetiredKey, "step on a finished thread");
#ifndef NDEBUG
    for (Mask m = mask; m != 0; m &= m - 1)
        simr_assert(key_[static_cast<size_t>(__builtin_ctz(m))] == key,
                    "lockstep group executed different instructions");
#endif
    const uint64_t here = key & kDepthBits;
    const int depth = keyDepth(key);
    const Block &blk = blocks_[static_cast<size_t>(keyBlock(key))];
    const size_t idx = keyIdx(key);
    simr_assert(idx < blk.size, "lane position past the end of block %d",
                keyBlock(key));
    const StaticInst &si = blk.insts[idx];
    const isa::OpInfo &info = isa::opInfo(si.op);

    ++opIdx_;
    op.si = &si;
    op.pc = blk.pc + static_cast<isa::Pc>(idx) * isa::kInstBytes;
    op.callDepth = static_cast<uint8_t>(std::min(depth, 255));
    op.accessSize = info.isMem ? si.accessSize : 0;
    op.takenMask = 0;
    op.endMask = 0;
    op.addrCount = 0;

    // The position a straight-line op moves its lanes to.
    auto fallTo = [&](uint64_t pos) {
        simr_assert(pos != kNoPos, "empty blocks fall through in a cycle");
        return here | pos;
    };
    const uint64_t next = idx + 1 < blk.size ? key + 1 : 0;
    auto nextKey = [&] { return next != 0 ? next : fallTo(blk.fall); };

    const Mask live = mask & ~replaying_;
    const auto w = static_cast<size_t>(width_);
    int64_t *const regs = regs_.data();
    int64_t *const d = regs + si.dst * w;
    const int64_t *const a = regs + si.src1 * w;
    const int64_t *const b = regs + si.src2 * w;
    uint64_t *const keys = key_.data();
    const bool writes = si.dst != isa::R_ZERO;

    // One loop per op kind over the live lanes.
    switch (si.op) {
      case Op::IAlu:
      case Op::IMul:
      case Op::IDiv:
      case Op::FAlu:
      case Op::Simd:
        if (writes) {
            switch (si.alu) {
              case AluKind::MovImm:
                aluLanes<AluKind::MovImm>(d, a, b, si.imm, live); break;
              case AluKind::Mov:
                aluLanes<AluKind::Mov>(d, a, b, si.imm, live); break;
              case AluKind::Add:
                aluLanes<AluKind::Add>(d, a, b, si.imm, live); break;
              case AluKind::AddImm:
                aluLanes<AluKind::AddImm>(d, a, b, si.imm, live); break;
              case AluKind::Sub:
                aluLanes<AluKind::Sub>(d, a, b, si.imm, live); break;
              case AluKind::Mul:
                aluLanes<AluKind::Mul>(d, a, b, si.imm, live); break;
              case AluKind::Div:
                aluLanes<AluKind::Div>(d, a, b, si.imm, live); break;
              case AluKind::And:
                aluLanes<AluKind::And>(d, a, b, si.imm, live); break;
              case AluKind::AndImm:
                aluLanes<AluKind::AndImm>(d, a, b, si.imm, live); break;
              case AluKind::Or:
                aluLanes<AluKind::Or>(d, a, b, si.imm, live); break;
              case AluKind::Xor:
                aluLanes<AluKind::Xor>(d, a, b, si.imm, live); break;
              case AluKind::Shl:
                aluLanes<AluKind::Shl>(d, a, b, si.imm, live); break;
              case AluKind::Shr:
                aluLanes<AluKind::Shr>(d, a, b, si.imm, live); break;
              case AluKind::Mix:
                aluLanes<AluKind::Mix>(d, a, b, si.imm, live); break;
              case AluKind::Min:
                aluLanes<AluKind::Min>(d, a, b, si.imm, live); break;
              case AluKind::Max:
                aluLanes<AluKind::Max>(d, a, b, si.imm, live); break;
              case AluKind::ModImm:
                aluLanes<AluKind::ModImm>(d, a, b, si.imm, live); break;
            }
        }
        moveLanes(keys, live, nextKey());
        break;

      case Op::Load:
      case Op::Store:
      case Op::Atomic: {
        const auto imm = static_cast<uint64_t>(si.imm);
        uint8_t n = 0;
        for (Mask m = live; m != 0; m &= m - 1, ++n) {
            const int l = __builtin_ctz(m);
            op.lane[n] = static_cast<uint8_t>(l);
            op.addr[n] = static_cast<uint64_t>(a[l]) + imm;
        }
        op.addrCount = n;
        if (si.op == Op::Load && writes) {
            for (uint8_t i = 0; i < n; ++i) {
                const uint8_t l = op.lane[i];
                d[l] = static_cast<int64_t>(mix64(op.addr[i] ^ seed_[l]));
            }
        } else if (si.op == Op::Atomic) {
            // The value varies per attempt so bounded retry loops
            // terminate deterministically (models CAS failure / lock
            // busyness).
            for (uint8_t i = 0; i < n; ++i) {
                const uint8_t l = op.lane[i];
                const uint64_t v = mix64(
                    op.addr[i] ^ seed_[l] ^ salt_[l] ^
                    (++atomics_[l] * 0x9e3779b97f4a7c15ULL));
                if (writes)
                    d[l] = static_cast<int64_t>(v);
            }
        }
        moveLanes(keys, live, nextKey());
        break;
      }

      case Op::Syscall:
        for (Mask m = live; m != 0; m &= m - 1) {
            const int l = __builtin_ctz(m);
            const uint64_t v =
                mix64(++syscalls_[static_cast<size_t>(l)] ^ salt_[l] ^
                      0xabcdef);
            if (writes)
                d[l] = static_cast<int64_t>(v);
        }
        moveLanes(keys, live, nextKey());
        break;

      case Op::Fence:
      case Op::Nop:
        moveLanes(keys, live, nextKey());
        break;

      case Op::Branch: {
        Mask t = 0;
        switch (si.cmp) {
          case Cmp::Eq: t = cmpLanes<Cmp::Eq>(a, b, live); break;
          case Cmp::Ne: t = cmpLanes<Cmp::Ne>(a, b, live); break;
          case Cmp::Lt: t = cmpLanes<Cmp::Lt>(a, b, live); break;
          case Cmp::Ge: t = cmpLanes<Cmp::Ge>(a, b, live); break;
        }
        op.takenMask = t;
        if (t != 0) {
            moveLanes(keys, t,
                      fallTo(blocks_[static_cast<size_t>(si.targetBlock)]
                                 .entry));
        }
        if (live & ~t)
            moveLanes(keys, live & ~t, fallTo(blk.fall));
        break;
      }

      case Op::Jump:
        moveLanes(keys, live,
                  fallTo(blocks_[static_cast<size_t>(si.targetBlock)].entry));
        break;

      case Op::Call: {
        const uint64_t callee = funcEntry_[static_cast<size_t>(si.funcId)];
        simr_assert(callee != kNoPos && blk.fall != kNoPos,
                    "empty blocks fall through in a cycle");
        const size_t base = static_cast<size_t>(depth) * w;
        if (frames_.size() < base + w)
            frames_.resize(base + w);
        moveLanes(frames_.data() + base, live, blk.fall);
        moveLanes(keys, live,
                  depthKey(static_cast<uint64_t>(depth) + 1) | callee);
        break;
      }

      case Op::Ret:
        if (depth == 0) {
            moveLanes(keys, live, kRetiredKey);
            op.endMask = live;
        } else {
            // Lanes of one group may return to different call sites.
            const uint64_t up = depthKey(static_cast<uint64_t>(depth) - 1);
            const uint64_t *f =
                frames_.data() + static_cast<size_t>(depth - 1) * w;
            for (Mask m = live; m != 0; m &= m - 1) {
                const int l = __builtin_ctz(m);
                keys[l] = up | f[l];
            }
        }
        break;

      default:
        simr_panic("unhandled op %s", isa::opName(si.op));
    }

    Mask rdep1 = 0;
    Mask rdep2 = 0;
    if (mask & replaying_)
        stepReplaying(mask, op, &rdep1, &rdep2);

    // Dependence distances in group-op space: some lane of the group
    // read a value it wrote since launch.
    auto dep = [&](isa::RegId r, Mask replayed) -> uint16_t {
        if (r == isa::R_ZERO || ((written_[r] & live) == 0 && replayed == 0) ||
            lastWriter_[r] == 0)
            return 0;
        return static_cast<uint16_t>(
            std::min<uint64_t>(opIdx_ - lastWriter_[r], 0xffff));
    };
    op.dep1 = dep(si.src1, rdep1);
    op.dep2 = dep(si.src2, rdep2);
    if (info.writesReg) {
        lastWriter_[si.dst] = opIdx_;
        written_[si.dst] |= live;
    }

    if (mask & capturing_)
        stepCapturing(mask, op);
}

void
ThreadState::step(StepResult &out)
{
    simr_assert(!done(), "step on a finished thread");
    DynOp op;
    lane_.step(1, op);
    out.si = op.si;
    out.pc = op.pc;
    out.taken = op.takenMask != 0;
    out.addr = op.addrCount != 0 ? op.addr[0] : 0;
    out.accessSize = op.accessSize;
    out.callDepth = op.callDepth;
    out.dep1 = op.dep1;
    out.dep2 = op.dep2;
}

} // namespace simr::trace
