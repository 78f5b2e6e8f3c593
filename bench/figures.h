/**
 * @file
 * The paper's tables and figures, one function each, and the memo
 * they share. The reproduce driver (reproduce.cpp) maps a name to each
 * function and hands every figure of one run the same memo.
 */

#ifndef SIMR_BENCH_FIGURES_H
#define SIMR_BENCH_FIGURES_H

#include <string>
#include <vector>

#include "common/config.h"
#include "simr/cachestudy.h"
#include "simr/runner.h"

namespace simr::bench
{

/** One efficiency probe: measureEfficiency's arguments. */
struct Probe
{
    std::string service;      ///< registry name (svc::buildService)
    batch::Policy policy;
    simt::ReconvPolicy reconv;
    int width;
    int requests;
    uint64_t seed;

    bool operator==(const Probe &) const = default;
};

/** One L1 cache study: studyRpuCache at `batch`, or studyCpuCache. */
struct Study
{
    std::string service;      ///< registry name (svc::buildService)
    int batch;                ///< RPU batch size; 0 = the CPU study
    CacheStudyOptions opt;

    bool operator==(const Study &) const = default;
};

/**
 * The result of every piece of work run so far, found by identity: a
 * timing cell (Cell's operator==: the service, the CoreConfig and every
 * TimingOptions field), an efficiency probe or a cache study (every
 * argument). A result depends only on that identity -- cellSeed
 * derives from it, the trace caches are bit-identical to live runs,
 * and probes and studies always run live -- so a figure handed a
 * memoized result prints what a fresh run would, and each distinct
 * piece of work of a reproduction runs once.
 */
class CellMemo
{
  public:
    /**
     * Results in input order. The work this memo has not run yet goes
     * to one fan-out: runCells for cells, one parallelMap for probes
     * or studies.
     */
    std::vector<TimingRun> run(const std::vector<Cell> &cells);
    std::vector<EfficiencyResult> run(const std::vector<Probe> &probes);
    std::vector<CacheStudyResult> run(const std::vector<Study> &studies);

  private:
    /** Work of one kind run so far: results[i] is the run of work[i]. */
    template <typename Work, typename Result>
    struct Seen
    {
        std::vector<Work> work;
        std::vector<Result> results;
    };

    Seen<Cell, TimingRun> cells_;
    Seen<Probe, EfficiencyResult> probes_;
    Seen<Study, CacheStudyResult> studies_;
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
