/**
 * @file
 * The paper's tables and figures. A figure does not run the simulator:
 * it returns a Plan, the work it needs and a print step that reads the
 * results. The reproduce driver (reproduce.cpp) collects the plans of
 * one run, runs each distinct piece of work once through runWork, then
 * prints the figures in order.
 */

#ifndef SIMR_BENCH_FIGURES_H
#define SIMR_BENCH_FIGURES_H

#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "common/config.h"
#include "simr/cachestudy.h"
#include "simr/runner.h"
#include "sys/cluster.h"

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
 * One Fig. 22 load point: the User scenario at one server per tier
 * (sys::oneReplica, one shard on one worker), 30000 requests at `kqps`
 * thousand requests per second.
 */
struct LoadPoint
{
    bool rpu;
    bool split;               ///< batch splitting (RPU systems)
    double kqps;
    uint64_t seed;

    bool operator==(const LoadPoint &) const = default;
};

/**
 * One piece of work a figure needs: a timing run (a Cell that runTiming
 * runs as given, so opt.seed is the run's seed), a probe, a study or a
 * load point. Its result depends only on its identity (`==`: every
 * field) -- it runs live -- so equal work in two plans runs once.
 */
using Work = std::variant<Cell, Probe, Study, LoadPoint>;

/** The result of one Work, of the kind at the same index. */
using Result = std::variant<TimingRun, EfficiencyResult, CacheStudyResult,
                            sys::SysResult>;

/** Run one piece of work, wholly on the calling thread. */
Result runWork(const Work &work);

/** Estimated cost of one piece of work, from its fields (DESIGN.md). */
double workCost(const Work &work);

/** The results of one plan, in the order of its work list. */
struct Results
{
    std::vector<const Result *> at;

    /** The result of the plan's i-th piece of work, of kind R. */
    template <typename R>
    const R &
    get(size_t i) const
    {
        return std::get<R>(*at[i]);
    }
};

/**
 * One table or figure: the work it needs (the same work may appear
 * twice) and the step that prints it from the results, which calls no
 * simulation entry point.
 */
struct Plan
{
    std::vector<Work> work;
    std::function<void(const Results &)> print;
};

/** One table or figure, planned at a run scale. */
using Figure = Plan (*)(const RunScale &scale);

/** A figure and the name `reproduce` knows it by. */
struct NamedFigure
{
    const char *name;
    Figure plan;
};

/** Every table and figure, in the order a full reproduction prints them. */
const std::vector<NamedFigure> &figures();

} // namespace simr::bench

#endif // SIMR_BENCH_FIGURES_H
