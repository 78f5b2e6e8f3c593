/**
 * @file
 * StaticProof: the artifact the static dataflow analysis (src/analysis/
 * dataflow) hands to the trace and SIMT layers. Plain data, produced
 * once per program (cached with the analysis report) and consumed by:
 *
 *  - CaptureBuilder (src/trace/capture): when the proof admits the
 *    canonical cache tier (taintTierBound == 1), capture skips the
 *    per-op dynamic TaintTracker entirely and reads each memory op's
 *    relocation kind from the precomputed per-instruction table. The
 *    resulting trace is bit-identical to a dynamically-proved one: a
 *    tier-1 bound means every address has one exact relocation kind on
 *    every path and no branch or address can be identity- or
 *    frame-tainted.
 *
 *  - LockstepEngine (src/simt): per-branch uniformity hints.
 *    Divergence at a hinted-uniform branch is counted as a hint
 *    violation (a live soundness tripwire, asserted zero by the
 *    dataflow soundness gate).
 *
 *  - DivergenceProfiler (src/obs): predicted-vs-observed divergence.
 *
 * This header deliberately depends on nothing in trace/ so analysis can
 * produce proofs without widening any library dependency edges.
 */

#ifndef SIMR_TRACE_PROOF_H
#define SIMR_TRACE_PROOF_H

#include <cstdint>
#include <vector>

namespace simr::trace
{

/** Static branch-uniformity classification (strongest provable). */
enum class BranchHint : uint8_t {
    MayDiverge = 0,       ///< no uniformity proof
    UniformPerBatch = 1,  ///< uniform when all lanes share (api, argLen)
    UniformAlways = 2,    ///< uniform under any batch mix
};

/**
 * Per-program static proof, indexed by flat static-instruction index
 * ((pc - codeBase) / kInstBytes, the same indexing ProgramIndex uses).
 * Immutable once built; shared via the analysis cache.
 */
struct StaticProof
{
    /** memKind value for non-memory instructions. */
    static constexpr uint8_t kNotMem = 0xff;

    /** Content fingerprint of the program the proof was derived from. */
    uint64_t fingerprint = 0;

    /**
     * Strongest trace-cache tier every request of this program is
     * guaranteed to admit: 1 (canonical), 2 (per-frame) or 3 (exact).
     * The dynamic tier of any captured request is always <= this bound.
     */
    int taintTierBound = 3;

    /** Some branch outcome or address may depend on reqId / tid. */
    bool mayIdDep = true;

    /** Some branch outcome or address may depend on frame placement. */
    bool mayFrameDep = true;

    /**
     * Per flat index: the exact AddrKind (as uint8_t) of each memory
     * op's effective address, kNotMem elsewhere. Only meaningful (and
     * only consumed) when taintTierBound == 1, which guarantees every
     * entry is exact on every execution path.
     */
    std::vector<uint8_t> memKind;

    /** Per flat index: BranchHint (as uint8_t) for Branch ops, 0 else. */
    std::vector<uint8_t> branchHint;

    /** The proof admits the canonical (tier-1) capture fast path. */
    bool tier1() const { return taintTierBound == 1; }

    BranchHint
    hintAt(uint32_t flat) const
    {
        return flat < branchHint.size()
            ? static_cast<BranchHint>(branchHint[flat])
            : BranchHint::MayDiverge;
    }
};

} // namespace simr::trace

#endif // SIMR_TRACE_PROOF_H
