/**
 * @file
 * Digest of every simulated statistic a benchmark operation produces.
 *
 * A speed-only change must leave the model's output unchanged; the
 * digest makes that checkable from one line of benchmark output. It is
 * an FNV-1a hash over the exact bit patterns of each statistic, folded
 * in operation order, so two runs agree iff every reported number of
 * every operation agrees.
 */

#ifndef SIMR_PERFBENCH_DIGEST_H
#define SIMR_PERFBENCH_DIGEST_H

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "simr/cachestudy.h"
#include "simr/runner.h"
#include "sys/cluster.h"

namespace perfbench
{

class Digest
{
  public:
    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }

    void
    add(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }

    void
    add(const std::string &s)
    {
        for (unsigned char c : s) {
            h_ ^= c;
            h_ *= 0x100000001b3ULL;
        }
        add(static_cast<uint64_t>(s.size()));
    }

    void
    add(const simr::Histogram &h)
    {
        add(h.count());
        add(h.mean());
        add(h.min());
        add(h.max());
        for (double p : {0.5, 0.9, 0.95, 0.99})
            add(h.percentile(p));
    }

    void
    add(const simr::RunningStat &s)
    {
        add(s.count());
        add(s.sum());
        add(s.mean());
        add(s.min());
        add(s.max());
    }

    void
    add(const simr::simt::SimtStats &s)
    {
        for (uint64_t v : {s.batchOps, s.scalarOps, s.maskedSlots,
                           s.divergeEvents, s.reconvMerges, s.pathSwitches,
                           s.spinEscapes, s.batches, s.hintViolations})
            add(v);
        add(static_cast<uint64_t>(s.width));
    }

    void
    add(const simr::mem::McuStats &m)
    {
        for (uint64_t v : {m.batchMemInsts, m.laneAccesses,
                           m.generatedAccesses, m.sameWord,
                           m.stackCoalesced, m.consecutive, m.divergent})
            add(v);
    }

    /** Every modeled CoreResult field; skip counters are loop
     *  diagnostics, not model output, and stay out. */
    void
    add(const simr::core::CoreResult &r)
    {
        add(r.configName);
        add(r.freqGhz);
        for (uint64_t v : {r.cycles, r.batchOps, r.scalarInsts, r.requests})
            add(v);
        add(r.reqLatency);
        for (const auto &[name, count] : r.counters.all()) {
            add(name);
            add(count);
        }
        for (uint64_t v : {r.l1Stats.accesses, r.l1Stats.misses,
                           r.l1Stats.storeAccesses, r.l1Stats.writebacks})
            add(v);
        add(r.mcuStats);
        for (uint64_t v : {r.hierStats.l1BankConflictCycles,
                           r.hierStats.mshrMerges, r.hierStats.atomicsAtL3,
                           r.hierStats.totalAccesses,
                           r.hierStats.totalLatency})
            add(v);
        for (uint64_t v : {r.tlbStats.lookups, r.tlbStats.misses,
                           r.bpStats.lookups, r.bpStats.mispredicts,
                           r.bpStats.majorityVotes,
                           r.bpStats.minorityLaneFlushes})
            add(v);
    }

    void
    add(const simr::TimingRun &run)
    {
        add(run.core);
        add(run.simt);
        for (double v : {run.energy.frontendOoo, run.energy.execution,
                         run.energy.memory, run.energy.simtOverhead,
                         run.energy.staticEnergy})
            add(v);
    }

    void
    add(const simr::CacheStudyResult &r)
    {
        for (uint64_t v : {r.scalarInsts, r.laneAccesses, r.l1Accesses,
                           r.l1Misses})
            add(v);
        add(r.mcu);
    }

    /** The determinism-gated payload of a cluster run. */
    void
    add(const simr::sys::SysResult &s)
    {
        add(s.offeredQps);
        add(s.achievedQps);
        add(s.e2eUs);
        for (const auto &t : s.tiers) {
            add(t.name);
            add(t.waitUs);
            add(t.serviceUs);
        }
    }

    uint64_t value() const { return h_; }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

} // namespace perfbench

#endif // SIMR_PERFBENCH_DIGEST_H
