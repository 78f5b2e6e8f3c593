/**
 * @file
 * Static analyzer over µISA Programs (the machine-checked validation
 * story behind every simulated service).
 *
 * analyze() builds the per-function CFG, computes dominator and
 * post-dominator trees (Cooper–Harvey–Kennedy), independently derives
 * the immediate post-dominator of every conditional branch and verifies
 * it against the ProgramBuilder's reconvBlock annotation and the
 * paper's MinPC layout assumption, then runs the lint passes:
 * unreachable blocks, cross-function block sharing (call-depth
 * imbalance), functions with no path to Ret, call-graph recursion,
 * irreducible control flow, lock acquire/release pairing, and memory
 * accesses resolvably inconsistent with the address-space map.
 *
 * Every simr runner entry point (runTiming, runFrontEnd,
 * measureEfficiency and the cache studies) gates its program through
 * gateOrDie() before simulation, so a service or generator change that
 * breaks an invariant fails loudly instead of skewing results.
 */

#ifndef SIMR_ANALYSIS_ANALYZER_H
#define SIMR_ANALYSIS_ANALYZER_H

#include "analysis/diag.h"
#include "isa/program.h"

namespace simr::analysis
{

/** Run the full static analysis over one laid-out program. */
Report analyze(const isa::Program &prog);

/**
 * Pre-simulation gate: analyze and simr_fatal (exit 1) listing the
 * findings when any error-severity diagnostic is present.
 */
void gateOrDie(const isa::Program &prog);

/**
 * PC of the first real instruction at or after `block`: empty blocks
 * are chained through their fall-through edge, mirroring
 * the landing table of trace::LaneFile. This is where the lockstep engine
 * observably parks/merges threads sent to `block`.
 */
isa::Pc normalizedBlockPc(const isa::Program &prog, int block);

} // namespace simr::analysis

#endif // SIMR_ANALYSIS_ANALYZER_H
