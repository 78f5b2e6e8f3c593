#include "simr/tuner.h"

#include <algorithm>

#include "common/logging.h"

namespace simr::tune
{

CacheStudyOptions
profileOptions(const TunerConfig &cfg)
{
    return {.requests = cfg.profileRequests, .seed = cfg.seed,
            .l1KB = cfg.l1KB};
}

TuneResult
choose(std::vector<TunePoint> points, const TunerConfig &cfg)
{
    simr_assert(!points.empty(), "no candidate batch sizes");

    // The smallest batch establishes the MPKI floor the thrash test
    // compares against.
    std::ranges::sort(points, {}, &TunePoint::batchSize);
    TuneResult res;
    res.points = std::move(points);
    double floor_mpki = res.points.front().mpki;
    for (auto &p : res.points) {
        p.acceptable =
            p.mpki <= cfg.thrashFactor * floor_mpki + cfg.mpkiSlack &&
            p.efficiency >= cfg.minEfficiency;

        // Largest acceptable batch wins.
        if (p.acceptable && p.batchSize > res.chosenBatch)
            res.chosenBatch = p.batchSize;
    }
    // Nothing fit the budget: fall back to the smallest candidate.
    if (res.chosenBatch == 0)
        res.chosenBatch = res.points.front().batchSize;
    return res;
}

TuneResult
tuneBatchSize(const svc::Service &svc, const TunerConfig &cfg)
{
    std::vector<TunePoint> points;
    for (int bs : cfg.candidates) {
        auto st = studyRpuCache(svc, bs, profileOptions(cfg));
        points.push_back({bs, st.mpki(), st.simt.efficiency()});
    }
    return choose(std::move(points), cfg);
}

} // namespace simr::tune
