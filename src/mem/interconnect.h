/**
 * @file
 * On-chip interconnect latency/energy model.
 *
 * The CPU chip uses a mesh NoC sized to its core count; the RPU replaces
 * core-to-core coherence traffic with a core-to-memory crossbar (paper
 * Section III-A "Weak Consistency Model+NMCA"), which has a single hop
 * and higher bisection bandwidth. The model provides per-transfer latency
 * and counts flit-hops for the energy model; contention is represented by
 * a shared-queue service rate.
 */

#ifndef SIMR_MEM_INTERCONNECT_H
#define SIMR_MEM_INTERCONNECT_H

#include <cstdint>

namespace simr::mem
{

/** Interconnect topology kinds. */
enum class NocKind : uint8_t {
    Mesh,
    Crossbar,
};

/** Interconnect configuration. */
struct NocConfig
{
    NocKind kind = NocKind::Mesh;
    uint32_t dim = 9;           ///< mesh dimension (dim x dim)
    uint32_t perHopCycles = 2;  ///< router + link latency per hop
    uint32_t xbarCycles = 4;    ///< flat crossbar traversal latency
    uint32_t flitBytes = 32;    ///< flit payload

    bool operator==(const NocConfig &) const = default;
};

/** Interconnect counters. */
struct NocStats
{
    uint64_t transfers = 0;
    uint64_t flitHops = 0;
};

/** The interconnect model. */
class Noc
{
  public:
    explicit Noc(NocConfig cfg) : cfg_(cfg) {}

    /**
     * Latency (cycles) for one line transfer from a core to a shared
     * resource (L3 slice / memory controller) and counts energy events.
     * @param bytes payload size
     */
    uint32_t
    transfer(uint32_t bytes)
    {
        ++stats_.transfers;
        uint32_t flits =
            (bytes + cfg_.flitBytes - 1) / cfg_.flitBytes;
        uint32_t hops = avgHops();
        stats_.flitHops += static_cast<uint64_t>(flits) * hops;
        if (cfg_.kind == NocKind::Crossbar)
            return cfg_.xbarCycles;
        return hops * cfg_.perHopCycles;
    }

    /** Average hop count of the topology. */
    uint32_t
    avgHops() const
    {
        if (cfg_.kind == NocKind::Crossbar)
            return 1;
        // Average Manhattan distance between two uniform random nodes of
        // an n x n mesh is ~ 2n/3.
        uint32_t h = (2 * cfg_.dim + 2) / 3;
        return h ? h : 1;
    }

    const NocConfig &config() const { return cfg_; }
    const NocStats &stats() const { return stats_; }
    void resetStats() { stats_ = NocStats(); }

  private:
    NocConfig cfg_;
    NocStats stats_;
};

} // namespace simr::mem

#endif // SIMR_MEM_INTERCONNECT_H
