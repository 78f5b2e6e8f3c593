/**
 * @file
 * Diagnostics for the static µISA analyzer: finding codes, severities,
 * source locations (function / block / pc) and the Report container the
 * analyzer returns, with human-readable and machine-readable (JSON)
 * rendering.
 */

#ifndef SIMR_ANALYSIS_DIAG_H
#define SIMR_ANALYSIS_DIAG_H

#include <string>
#include <vector>

#include "isa/isa.h"

namespace simr::analysis
{

/** Finding severity. Error findings make a program unrunnable. */
enum class Severity : uint8_t {
    Note,
    Warning,
    Error,
};

/** Stable diagnostic codes (the machine-readable finding identity). */
enum class Code : uint8_t {
    Structural,        ///< isa::checkStructure violation
    MissingMain,       ///< no "main" function (executors need one)
    UnreachableBlock,  ///< block not reachable from any function entry
    SharedBlock,       ///< block reachable from two function entries
                       ///  (fall-through across a function boundary:
                       ///  call-depth imbalance at run time)
    NoReturnPath,      ///< function entry cannot reach any Ret
    Recursion,         ///< cycle in the call graph (unbounded depth)
    ReconvMismatch,    ///< annotation != computed immediate postdominator
    MinPcViolation,    ///< reconvergence point not laid out after the
                       ///  region it merges (paper's MinPC assumption)
    Irreducible,       ///< back edge whose target does not dominate its
                       ///  source: irreducible control flow
    LockPairing,       ///< acquire/release fence idioms unbalanced
    AccessSize,        ///< memory access size invalid for the mem model
    SegmentViolation,  ///< access resolvably outside its segment
    NumCodes
};

/** Short stable name, e.g. "reconv-mismatch". */
const char *codeName(Code c);

/** "error" / "warning" / "note". */
const char *severityName(Severity s);

/**
 * Static branch-uniformity verdict (the analysis-side mirror of
 * trace::BranchHint; kept separate so diag.h stays dependency-free).
 */
enum class Uniformity : uint8_t {
    MayDiverge = 0,       ///< no uniformity proof
    UniformPerBatch = 1,  ///< uniform when all lanes share (api, argLen)
    UniformAlways = 2,    ///< uniform under any batch mix
};

/** Static memory-access classification per memory instruction. */
enum class MemClass : uint8_t {
    Uniform = 0,        ///< one address shared by every lane
    AffineStrided = 1,  ///< per-lane segment base + uniform offset
    Scattered = 2,      ///< request-data-dependent addressing
};

/** Short stable name, e.g. "uniform-per-batch" / "may-diverge". */
const char *uniformityName(Uniformity u);

/** Short stable name, e.g. "affine" / "scattered". */
const char *memClassName(MemClass c);

/** One finding. */
struct Diag
{
    Code code = Code::Structural;
    Severity sev = Severity::Error;
    int func = -1;        ///< owning function id (-1: program level)
    int block = -1;       ///< offending block id (-1: program level)
    isa::Pc pc = 0;       ///< pc of the offending instruction (0: none)
    std::string text;     ///< human-readable description

    /** One-line rendering: "error[reconv-mismatch] fn 2 blk 7 @0x...: ...". */
    std::string str() const;
};

/**
 * Per-conditional-branch verification record: what the builder
 * annotated, what the post-dominator analysis derived, and where the
 * lockstep engine should be observed reconverging (the first real
 * instruction at or after the IPDOM block — empty blocks are chained
 * through exactly like trace::LaneFile's landing table).
 */
struct BranchInfo
{
    int func = -1;
    int block = -1;            ///< block whose terminator is the branch
    isa::Pc pc = 0;            ///< pc of the branch instruction
    int annotReconv = -1;      ///< builder's reconvBlock annotation
    int computedIpdom = -1;    ///< analyzer's immediate post-dominator
                               ///  (-1: paths only rejoin at function exit)
    isa::Pc expectedMergePc = 0;  ///< normalized pc of computedIpdom
                                  ///  (0 when computedIpdom < 0)
};

/** Per-branch dataflow verdict (one entry per conditional branch). */
struct BranchFlow
{
    int func = -1;
    int block = -1;
    isa::Pc pc = 0;
    uint32_t flat = 0;     ///< flat static index (pc - base) / kInstBytes
    Uniformity uniformity = Uniformity::MayDiverge;
    bool mayId = false;    ///< outcome may depend on reqId / tid
    bool mayFrame = false; ///< outcome may depend on frame placement
    bool reached = true;   ///< reachable from main (else vacuously uniform)
};

/** Per-memory-instruction dataflow verdict. */
struct MemFlow
{
    int func = -1;
    int block = -1;
    isa::Pc pc = 0;
    uint32_t flat = 0;
    isa::Op op = isa::Op::Load;
    MemClass cls = MemClass::Scattered;
    int8_t addrKind = -1;  ///< exact trace::AddrKind value, -1 unknown
    bool mayId = false;    ///< address may depend on reqId / tid
    bool mayFrame = false; ///< address may depend on frame placement
    bool reached = true;
};

/**
 * Whole-program static dataflow results: the taint tier bound, every
 * branch's uniformity class and every memory op's access class. Sorted
 * by (func, pc) — deterministic rendering order.
 */
struct DataflowInfo
{
    bool ran = false;        ///< pass executed (program was analyzable)
    int tierBound = 3;       ///< static trace-cache tier bound (1..3)
    bool mayIdDep = true;
    bool mayFrameDep = true;
    bool allUniformPerBatch = false;
    std::vector<BranchFlow> branches;
    std::vector<MemFlow> mems;

    int countUniformity(Uniformity u) const;
    int countMemClass(MemClass c) const;

    const BranchFlow *branchAt(isa::Pc pc) const;
};

/** Full analyzer output for one program. */
struct Report
{
    std::string program;
    int numFunctions = 0;
    int numBlocks = 0;
    size_t numInsts = 0;
    std::vector<Diag> diags;
    std::vector<BranchInfo> branches;  ///< every conditional branch
    DataflowInfo dataflow;             ///< static dataflow verdicts

    int count(Severity s) const;
    int errors() const { return count(Severity::Error); }
    int warnings() const { return count(Severity::Warning); }

    /** True when the program carries no error-severity findings. */
    bool ok() const { return errors() == 0; }

    /** Verification record for the branch at `pc`; nullptr if absent. */
    const BranchInfo *branchAt(isa::Pc pc) const;

    /** Machine-readable rendering of the whole report. */
    std::string json() const;
};

} // namespace simr::analysis

#endif // SIMR_ANALYSIS_DIAG_H
