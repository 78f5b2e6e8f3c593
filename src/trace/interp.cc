#include "trace/interp.h"

#include "common/logging.h"
#include "common/rng.h"
#include "isa/builder.h"

namespace simr::trace
{

using isa::AluKind;
using isa::Cmp;
using isa::Op;
using isa::StaticInst;

ThreadState::ThreadState(const isa::Program &prog)
    : prog_(prog)
{
    simr_assert(prog.laidOut(), "program must be laid out before execution");
}

void
ThreadState::reset(const ThreadInit &init)
{
    for (auto &r : regs_)
        r = 0;
    for (auto &w : lastWriter_)
        w = 0;
    regs_[isa::R_API] = init.api;
    regs_[isa::R_ARGLEN] = init.argLen;
    regs_[isa::R_KEY] = static_cast<int64_t>(init.key);
    regs_[isa::R_REQID] = init.reqId;
    regs_[isa::R_TID] = init.tid;
    regs_[isa::R_SHARED] = static_cast<int64_t>(init.sharedBase);
    regs_[isa::R_SP] = static_cast<int64_t>(init.stackTop);
    regs_[isa::R_HEAP] = static_cast<int64_t>(init.heapBase);

    callStack_.clear();
    int main_fn = prog_.findFunction("main");
    simr_assert(main_fn >= 0, "program has no 'main' function");
    block_ = prog_.func(main_fn).entry;
    idx_ = 0;
    done_ = false;
    dynCount_ = 0;
    atomicCount_ = 0;
    sysCount_ = 0;
    dataSeed_ = init.dataSeed;
    threadSalt_ = mix64(static_cast<uint64_t>(init.reqId) * 0x9e3779b9 + 1);
    normalize();
}

const isa::StaticInst &
ThreadState::curInst() const
{
    simr_assert(!done_, "curInst on a finished thread");
    return bb_->insts[idx_];
}

void
ThreadState::normalize()
{
    // Move past block ends and through empty blocks until we sit on a
    // real instruction (or discover the program is ill-formed), then
    // refresh the position cache the step loop reads.
    while (!done_) {
        const isa::BasicBlock &bb = prog_.block(block_);
        if (idx_ < bb.insts.size()) {
            bb_ = &bb;
            bbPc_ = prog_.blockPc(block_);
            return;
        }
        simr_assert(bb.fallthrough >= 0,
                    "fell off a block with no fallthrough");
        block_ = bb.fallthrough;
        idx_ = 0;
    }
}

void
ThreadState::writeReg(isa::RegId r, int64_t v)
{
    if (r == isa::R_ZERO)
        return;
    regs_[r] = v;
    lastWriter_[r] = dynCount_;
}

int64_t
ThreadState::aluValue(const StaticInst &si) const
{
    int64_t a = regs_[si.src1];
    int64_t b = regs_[si.src2];
    // Arithmetic wraps mod 2^64 by µISA definition (services use Add/Mul
    // for hash mixing); compute in unsigned so the wrap is well-defined.
    auto ua = static_cast<uint64_t>(a);
    auto ub = static_cast<uint64_t>(b);
    auto uimm = static_cast<uint64_t>(si.imm);
    switch (si.alu) {
      case AluKind::MovImm: return si.imm;
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
      case AluKind::AndImm: return a & si.imm;
      case AluKind::Or:     return a | b;
      case AluKind::Xor:    return a ^ b;
      case AluKind::Shl:
        return static_cast<int64_t>(ua << (si.imm & 63));
      case AluKind::Shr:
        return static_cast<int64_t>(static_cast<uint64_t>(a) >>
                                    (si.imm & 63));
      case AluKind::Mix:
        return static_cast<int64_t>(
            mix64(static_cast<uint64_t>(a) ^ static_cast<uint64_t>(b) ^
                  static_cast<uint64_t>(si.imm)));
      case AluKind::Min:    return a < b ? a : b;
      case AluKind::Max:    return a > b ? a : b;
      case AluKind::ModImm: return si.imm == 0 ? 0 : a % si.imm;
    }
    simr_panic("unhandled AluKind %d", static_cast<int>(si.alu));
}

bool
ThreadState::evalCmp(const StaticInst &si) const
{
    int64_t a = regs_[si.src1];
    int64_t b = regs_[si.src2];
    switch (si.cmp) {
      case Cmp::Eq: return a == b;
      case Cmp::Ne: return a != b;
      case Cmp::Lt: return a < b;
      case Cmp::Ge: return a >= b;
    }
    simr_panic("unhandled Cmp %d", static_cast<int>(si.cmp));
}

void
ThreadState::step(StepResult &out)
{
    simr_assert(!done_, "step on a finished thread");
    const isa::BasicBlock &bb = *bb_;
    const int block = block_;
    const StaticInst &si = bb.insts[idx_];

    ++dynCount_;
    out.si = &si;
    out.pc = bbPc_ + static_cast<isa::Pc>(idx_) * isa::kInstBytes;
    out.taken = false;
    out.addr = 0;
    out.accessSize = 0;
    out.callDepth = static_cast<uint8_t>(
        std::min<size_t>(callStack_.size(), 255));

    auto dep_of = [this](isa::RegId r) -> uint16_t {
        if (r == isa::R_ZERO || lastWriter_[r] == 0)
            return 0;
        uint64_t d = dynCount_ - lastWriter_[r];
        return static_cast<uint16_t>(std::min<uint64_t>(d, 0xffff));
    };
    out.dep1 = dep_of(si.src1);
    out.dep2 = dep_of(si.src2);

    switch (si.op) {
      case Op::IAlu:
      case Op::IMul:
      case Op::IDiv:
      case Op::FAlu:
      case Op::Simd:
        writeReg(si.dst, aluValue(si));
        ++idx_;
        break;

      case Op::Load: {
        uint64_t addr = static_cast<uint64_t>(regs_[si.src1] + si.imm);
        out.addr = addr;
        out.accessSize = si.accessSize;
        writeReg(si.dst, static_cast<int64_t>(mix64(addr ^ dataSeed_)));
        ++idx_;
        break;
      }

      case Op::Store: {
        uint64_t addr = static_cast<uint64_t>(regs_[si.src1] + si.imm);
        out.addr = addr;
        out.accessSize = si.accessSize;
        ++idx_;
        break;
      }

      case Op::Atomic: {
        uint64_t addr = static_cast<uint64_t>(regs_[si.src1] + si.imm);
        out.addr = addr;
        out.accessSize = si.accessSize;
        ++atomicCount_;
        // Value varies per attempt so bounded retry loops terminate
        // deterministically (models CAS failure / lock busyness).
        writeReg(si.dst, static_cast<int64_t>(
            mix64(addr ^ dataSeed_ ^ threadSalt_ ^
                  (atomicCount_ * 0x9e3779b97f4a7c15ULL))));
        ++idx_;
        break;
      }

      case Op::Branch: {
        bool taken = evalCmp(si);
        out.taken = taken;
        if (taken) {
            block_ = si.targetBlock;
            idx_ = 0;
        } else {
            block_ = bb.fallthrough;
            idx_ = 0;
        }
        break;
      }

      case Op::Jump:
        block_ = si.targetBlock;
        idx_ = 0;
        break;

      case Op::Call:
        callStack_.push_back({bb.fallthrough, 0});
        block_ = prog_.func(si.funcId).entry;
        idx_ = 0;
        break;

      case Op::Ret:
        if (callStack_.empty()) {
            done_ = true;
        } else {
            block_ = callStack_.back().block;
            idx_ = callStack_.back().idx;
            callStack_.pop_back();
        }
        break;

      case Op::Syscall:
        ++sysCount_;
        writeReg(si.dst, static_cast<int64_t>(
            mix64(sysCount_ ^ threadSalt_ ^ 0xabcdef)));
        ++idx_;
        break;

      case Op::Fence:
      case Op::Nop:
        ++idx_;
        break;

      default:
        simr_panic("unhandled op %s", isa::opName(si.op));
    }

    // The position cache holds while the op stays inside its block.
    if (!done_ && (block_ != block || idx_ >= bb.insts.size()))
        normalize();
}

} // namespace simr::trace
