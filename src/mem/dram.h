/**
 * @file
 * DRAM channel model: fixed access latency plus bandwidth-limited queueing.
 *
 * Each channel services line fills at a rate set by its bandwidth; when a
 * core's traffic exceeds its bandwidth share the queue grows and memory
 * latency inflates, which is exactly the effect the paper leans on when
 * arguing coalescing reduces queueing delay. Per-core simulations receive
 * a bandwidth share equal to chip bandwidth / core count (Table IV keeps
 * memBW/thread comparable across configs).
 */

#ifndef SIMR_MEM_DRAM_H
#define SIMR_MEM_DRAM_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/address_space.h"

namespace simr::mem
{

/** DRAM configuration (per simulated core slice). */
struct DramConfig
{
    uint32_t channels = 2;
    double bytesPerCycle = 4.0;  ///< per channel, at core frequency
    uint32_t latencyCycles = 100;
    uint32_t lineBytes = 32;

    bool operator==(const DramConfig &) const = default;
};

/** DRAM counters. */
struct DramStats
{
    uint64_t accesses = 0;
    uint64_t totalQueueCycles = 0;

    double
    avgQueueDelay() const
    {
        return accesses ? static_cast<double>(totalQueueCycles) /
            static_cast<double>(accesses) : 0.0;
    }
};

/** Bandwidth-limited DRAM. */
class Dram
{
  public:
    explicit Dram(DramConfig cfg)
        : cfg_(cfg), nextFree_(cfg.channels, 0.0)
    {}

    /**
     * Issue one line fill at `cycle`; returns total latency in cycles
     * including any queueing delay on the addressed channel.
     */
    uint32_t
    access(uint64_t cycle, Addr paddr)
    {
        ++stats_.accesses;
        size_t ch = static_cast<size_t>(
            (paddr / cfg_.lineBytes) % cfg_.channels);
        double now = static_cast<double>(cycle);
        double start = nextFree_[ch] > now ? nextFree_[ch] : now;
        double service =
            static_cast<double>(cfg_.lineBytes) / cfg_.bytesPerCycle;
        nextFree_[ch] = start + service;
        double queue = start - now;
        stats_.totalQueueCycles += static_cast<uint64_t>(queue);
        return cfg_.latencyCycles + static_cast<uint32_t>(queue);
    }

    const DramConfig &config() const { return cfg_; }
    const DramStats &stats() const { return stats_; }

    void
    reset()
    {
        for (auto &f : nextFree_)
            f = 0.0;
        stats_ = DramStats();
    }

  private:
    DramConfig cfg_;
    std::vector<double> nextFree_;
    DramStats stats_;
};

} // namespace simr::mem

#endif // SIMR_MEM_DRAM_H
