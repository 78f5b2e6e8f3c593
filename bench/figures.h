/**
 * @file
 * The paper's tables and figures, one function each, and the cell memo
 * they share. The reproduce driver (reproduce.cpp) maps a name to each
 * function and hands every figure of one run the same memo.
 */

#ifndef SIMR_BENCH_FIGURES_H
#define SIMR_BENCH_FIGURES_H

#include <vector>

#include "common/config.h"
#include "simr/runner.h"

namespace simr::bench
{

/**
 * The timing run of every cell simulated so far, found by cell identity
 * (Cell's operator==: the service, the CoreConfig and every
 * TimingOptions field). A cell's result depends only
 * on that identity -- cellSeed derives from it, and the trace caches
 * are bit-identical to live runs -- so a figure handed a memoized run
 * prints what a fresh one would, and each distinct cell of a
 * reproduction is simulated once.
 */
class CellMemo
{
  public:
    /**
     * Runs of `cells`, in input order. The cells this memo has not run
     * yet go to one runCells call.
     */
    std::vector<TimingRun> run(const std::vector<Cell> &cells);

  private:
    std::vector<Cell> cells_;
    std::vector<TimingRun> runs_;  ///< runs_[i] is the run of cells_[i]
};

/** One table or figure: prints its tables to stdout. */
using Figure = void (*)(const RunScale &scale, CellMemo &memo);

/** @name The figures, in the order a full reproduction prints them */
/// @{
void fig04(const RunScale &scale, CellMemo &memo);
void fig05(const RunScale &scale, CellMemo &memo);
void fig10(const RunScale &scale, CellMemo &memo);
void fig11(const RunScale &scale, CellMemo &memo);
void fig14(const RunScale &scale, CellMemo &memo);
void fig15(const RunScale &scale, CellMemo &memo);
void fig19(const RunScale &scale, CellMemo &memo);
void fig20(const RunScale &scale, CellMemo &memo);
void fig21(const RunScale &scale, CellMemo &memo);
void fig22(const RunScale &scale, CellMemo &memo);
void tab04(const RunScale &scale, CellMemo &memo);
void tab05(const RunScale &scale, CellMemo &memo);
void sensSubbatch(const RunScale &scale, CellMemo &memo);
void sensAtomicsL3(const RunScale &scale, CellMemo &memo);
void sensAllocator(const RunScale &scale, CellMemo &memo);
void sensMajorityVoting(const RunScale &scale, CellMemo &memo);
void gpuComparison(const RunScale &scale, CellMemo &memo);
void extTuner(const RunScale &scale, CellMemo &memo);
void extMultibatch(const RunScale &scale, CellMemo &memo);
void extGpgpu(const RunScale &scale, CellMemo &memo);
/// @}

} // namespace simr::bench

#endif // SIMR_BENCH_FIGURES_H
