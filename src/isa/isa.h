/**
 * @file
 * The µISA: a small RISC-like instruction set that microservice workload
 * models are written in.
 *
 * The paper traces x86 binaries with a PIN tool (SIMTec) and replays the
 * traces through a cycle-level simulator. This repo has no x86 binaries to
 * trace, so services are expressed as structured programs over this µISA;
 * executing them yields the same kind of dynamic stream (static PC, opcode,
 * memory addresses, branch outcomes, call depth) a PIN trace provides.
 * CISC memory-operand instructions are already split into RISC-like loads,
 * stores and ALU ops, matching the paper's trace pre-processing.
 */

#ifndef SIMR_ISA_ISA_H
#define SIMR_ISA_ISA_H

#include <cstddef>
#include <cstdint>

#include "common/logging.h"

namespace simr::isa
{

/** Static program counter. Instructions are 4 bytes. */
using Pc = uint64_t;

/** Architectural register id; r0 is hardwired to zero. */
using RegId = uint8_t;

constexpr int kNumRegs = 32;
constexpr unsigned kInstBytes = 4;

/** Opcode classes. One dynamic instruction carries exactly one Op. */
enum class Op : uint8_t {
    IAlu,       ///< integer ALU (add/sub/logic/shift/compare)
    IMul,       ///< integer multiply
    IDiv,       ///< integer divide
    FAlu,       ///< scalar floating point
    Simd,       ///< 256-bit SIMD operation (per-thread vector op)
    Load,       ///< memory load
    Store,      ///< memory store
    Atomic,     ///< atomic read-modify-write (lock/unlock, counters)
    Branch,     ///< conditional branch
    Jump,       ///< unconditional jump
    Call,       ///< function call
    Ret,        ///< function return
    Syscall,    ///< OS interaction (network send/recv, logging)
    Fence,      ///< memory fence (release/acquire point)
    Nop,        ///< no-op / padding
    NumOps
};

/** Functional-unit class an op issues to (Table IV execution resources). */
enum class FuClass : uint8_t {
    IntAlu,
    IntMul,
    IntDiv,
    FpAlu,
    SimdUnit,
    LoadStore,
    BranchUnit,
    SysUnit,
    None,
};

/** Value semantics of compute ops (interpreter-level behaviour). */
enum class AluKind : uint8_t {
    MovImm,    ///< dst = imm
    Mov,       ///< dst = src1
    Add,       ///< dst = src1 + src2
    AddImm,    ///< dst = src1 + imm
    Sub,
    Mul,
    Div,       ///< src2 == 0 yields 0 (simulation-safe)
    And,
    AndImm,
    Or,
    Xor,
    Shl,       ///< dst = src1 << (imm & 63)
    Shr,       ///< dst = src1 >> (imm & 63)
    Mix,       ///< dst = mix64(src1 ^ src2 ^ imm): models hashing
    Min,
    Max,
    ModImm,    ///< dst = src1 % imm (imm != 0)
};

/** Branch comparison kinds; compare src1 against src2 (or imm). */
enum class Cmp : uint8_t {
    Eq,
    Ne,
    Lt,
    Ge,
};

/** Syscall flavours, for instruction-mix accounting. */
enum class Sys : uint8_t {
    NetSend,
    NetRecv,
    Log,
    Mmap,
};

/** Static per-opcode metadata. */
struct OpInfo
{
    const char *name;
    FuClass fu;
    bool isMem;
    bool isCtrl;
    bool writesReg;
};

namespace detail
{

constexpr OpInfo kOpTable[] = {
    // name       fu                   mem    ctrl   writes
    {"ialu",      FuClass::IntAlu,     false, false, true},
    {"imul",      FuClass::IntMul,     false, false, true},
    {"idiv",      FuClass::IntDiv,     false, false, true},
    {"falu",      FuClass::FpAlu,      false, false, true},
    {"simd",      FuClass::SimdUnit,   false, false, true},
    {"load",      FuClass::LoadStore,  true,  false, true},
    {"store",     FuClass::LoadStore,  true,  false, false},
    {"atomic",    FuClass::LoadStore,  true,  false, true},
    {"branch",    FuClass::BranchUnit, false, true,  false},
    {"jump",      FuClass::BranchUnit, false, true,  false},
    {"call",      FuClass::BranchUnit, false, true,  false},
    {"ret",       FuClass::BranchUnit, false, true,  false},
    {"syscall",   FuClass::SysUnit,    false, false, true},
    {"fence",     FuClass::LoadStore,  false, false, false},
    {"nop",       FuClass::IntAlu,     false, false, false},
};

static_assert(sizeof(kOpTable) / sizeof(kOpTable[0]) ==
              static_cast<size_t>(Op::NumOps),
              "op table out of sync with Op enum");

} // namespace detail

/**
 * Look up metadata for an opcode. Inline: the timing core asks for it
 * several times per simulated instruction.
 */
inline const OpInfo &
opInfo(Op op)
{
    auto idx = static_cast<size_t>(op);
    simr_assert(idx < static_cast<size_t>(Op::NumOps), "bad opcode");
    return detail::kOpTable[idx];
}

/** Short printable name for an opcode. */
inline const char *opName(Op op) { return opInfo(op).name; }

} // namespace simr::isa

#endif // SIMR_ISA_ISA_H
