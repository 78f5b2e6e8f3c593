/**
 * @file
 * Shared helpers for the gate and speed benches: the bit-identity
 * comparisons the determinism gates are built on.
 */

#ifndef SIMR_BENCH_BENCH_COMMON_H
#define SIMR_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/parallel.h"
#include "common/table.h"
#include "simr/runner.h"
#include "sys/cluster.h"

namespace simr::bench
{

/** Percentiles pinned by the bit-identity gates (the figures' set). */
constexpr double kGatePercentiles[] = {0.5, 0.9, 0.95, 0.99};

/**
 * Bit-identity over every *reported* statistic of a core run:
 * cycles, retirement counts, the full latency histogram (moments and
 * pinned percentiles), every counter, and all cache/TLB/BP/MCU stats.
 * CoreResult::skippedCycles / skipJumps are simulator-loop diagnostics,
 * not model output, and are deliberately excluded -- the event-driven
 * gate compares runs whose loops differ, and the trace-replay gate
 * compares runs whose front ends differ; neither may change what the
 * model reports.
 */
inline bool
sameCoreResult(const core::CoreResult &a, const core::CoreResult &b)
{
    if (a.cycles != b.cycles || a.batchOps != b.batchOps ||
        a.scalarInsts != b.scalarInsts || a.requests != b.requests)
        return false;
    if (a.reqLatency.count() != b.reqLatency.count() ||
        a.reqLatency.mean() != b.reqLatency.mean() ||
        a.reqLatency.min() != b.reqLatency.min() ||
        a.reqLatency.max() != b.reqLatency.max())
        return false;
    for (double p : kGatePercentiles)
        if (a.reqLatency.percentile(p) != b.reqLatency.percentile(p))
            return false;
    if (a.counters.all() != b.counters.all())
        return false;
    if (a.l1Stats.accesses != b.l1Stats.accesses ||
        a.l1Stats.misses != b.l1Stats.misses ||
        a.l1Stats.storeAccesses != b.l1Stats.storeAccesses ||
        a.l1Stats.writebacks != b.l1Stats.writebacks)
        return false;
    if (a.mcuStats.batchMemInsts != b.mcuStats.batchMemInsts ||
        a.mcuStats.laneAccesses != b.mcuStats.laneAccesses ||
        a.mcuStats.generatedAccesses != b.mcuStats.generatedAccesses ||
        a.mcuStats.sameWord != b.mcuStats.sameWord ||
        a.mcuStats.stackCoalesced != b.mcuStats.stackCoalesced ||
        a.mcuStats.consecutive != b.mcuStats.consecutive ||
        a.mcuStats.divergent != b.mcuStats.divergent)
        return false;
    if (a.hierStats.l1BankConflictCycles != b.hierStats.l1BankConflictCycles ||
        a.hierStats.mshrMerges != b.hierStats.mshrMerges ||
        a.hierStats.atomicsAtL3 != b.hierStats.atomicsAtL3 ||
        a.hierStats.totalAccesses != b.hierStats.totalAccesses ||
        a.hierStats.totalLatency != b.hierStats.totalLatency)
        return false;
    if (a.tlbStats.lookups != b.tlbStats.lookups ||
        a.tlbStats.misses != b.tlbStats.misses)
        return false;
    if (a.bpStats.lookups != b.bpStats.lookups ||
        a.bpStats.mispredicts != b.bpStats.mispredicts ||
        a.bpStats.majorityVotes != b.bpStats.majorityVotes ||
        a.bpStats.minorityLaneFlushes != b.bpStats.minorityLaneFlushes)
        return false;
    return true;
}

/** Bit-identity over every lockstep SIMT statistic. */
inline bool
sameSimtStats(const simt::SimtStats &a, const simt::SimtStats &b)
{
    return a.batchOps == b.batchOps && a.scalarOps == b.scalarOps &&
        a.maskedSlots == b.maskedSlots &&
        a.divergeEvents == b.divergeEvents &&
        a.reconvMerges == b.reconvMerges &&
        a.pathSwitches == b.pathSwitches &&
        a.spinEscapes == b.spinEscapes && a.batches == b.batches &&
        a.width == b.width;
}

inline bool
sameRunningStat(const RunningStat &a, const RunningStat &b)
{
    return a.count() == b.count() && a.sum() == b.sum() &&
        a.mean() == b.mean() && a.min() == b.min() &&
        a.max() == b.max() && a.variance() == b.variance();
}

/** Bit-identity over everything a system-simulator run reports: the
 *  loads, the whole latency histogram and every tier statistic. */
inline bool
sameSysResult(const sys::SysResult &a, const sys::SysResult &b)
{
    if (a.offeredQps != b.offeredQps || a.achievedQps != b.achievedQps)
        return false;
    if (!a.e2eUs.identicalTo(b.e2eUs))
        return false;
    if (a.tiers.size() != b.tiers.size())
        return false;
    for (size_t i = 0; i < a.tiers.size(); ++i) {
        if (a.tiers[i].name != b.tiers[i].name ||
            !sameRunningStat(a.tiers[i].waitUs, b.tiers[i].waitUs) ||
            !sameRunningStat(a.tiers[i].serviceUs,
                             b.tiers[i].serviceUs))
            return false;
    }
    return true;
}

} // namespace simr::bench

#endif // SIMR_BENCH_BENCH_COMMON_H
