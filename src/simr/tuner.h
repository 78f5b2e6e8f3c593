/**
 * @file
 * Offline batch-size tuning (paper Section III-B3).
 *
 * "As widely practiced by data center providers, an offline
 * configuration can be applied to tune the batch size for a particular
 * microservice." This is that configuration pass: profile each
 * candidate batch size with one RPU cache study on a request sample
 * (its L1 MPKI and SIMT efficiency), and pick the largest batch whose
 * MPKI stays within a budget -- the Fig. 15 rule (32 for most services,
 * 8 for the data-intensive leaves) derived automatically instead of by
 * hand. A caller that runs the studies itself picks with choose().
 */

#ifndef SIMR_SIMR_TUNER_H
#define SIMR_SIMR_TUNER_H

#include <vector>

#include "services/service.h"
#include "simr/cachestudy.h"

namespace simr::tune
{

/** Tuning knobs. */
struct TunerConfig
{
    std::vector<int> candidates = {32, 16, 8, 4};
    int profileRequests = 512;
    uint64_t seed = 42;
    uint64_t l1KB = 256;        ///< RPU L1 (Table IV)
    /**
     * A batch size is rejected when its MPKI blows up relative to the
     * smallest candidate (thrashing), not on an absolute bar: shared
     * read-mostly tables give middle tiers a batch-independent MPKI
     * floor that says nothing about footprint pressure.
     */
    double thrashFactor = 2.5;
    double mpkiSlack = 1.0;     ///< absolute slack for near-zero floors
    double minEfficiency = 0.5; ///< below this, bigger batches are moot
};

/** Outcome for one candidate size. */
struct TunePoint
{
    int batchSize = 0;
    double mpki = 0;
    double efficiency = 0;
    bool acceptable = false;
};

/** Full tuning result. */
struct TuneResult
{
    int chosenBatch = 0;
    std::vector<TunePoint> points;   ///< ascending batch size
};

/** Options of each candidate's study (studyRpuCache at its size). */
CacheStudyOptions profileOptions(const TunerConfig &cfg);

/**
 * The acceptability pass over the candidates' points, in any order:
 * MPKI within thrashFactor x the smallest candidate's plus mpkiSlack,
 * and efficiency at least minEfficiency. The largest acceptable batch
 * wins, else the smallest; the points come back by ascending size.
 */
TuneResult choose(std::vector<TunePoint> points, const TunerConfig &cfg);

/** Profile every candidate of one service, then choose. */
TuneResult tuneBatchSize(const svc::Service &svc,
                         const TunerConfig &cfg = TunerConfig());

} // namespace simr::tune

#endif // SIMR_SIMR_TUNER_H
