/**
 * @file
 * Timing-core configuration (paper Table IV). One CoreConfig fully
 * describes a core flavour: the scalar CPU baseline, the SMT-8 CPU, the
 * RPU (OoO SIMT with sub-batch interleaving) and the in-order SIMT
 * GPU-like design point.
 */

#ifndef SIMR_CORE_CONFIG_H
#define SIMR_CORE_CONFIG_H

#include <string>

#include "mem/hierarchy.h"

namespace simr::core
{

/** Full description of one core flavour. */
struct CoreConfig
{
    std::string name = "cpu";
    double freqGhz = 2.5;

    /** @name Pipeline shape */
    /// @{
    int fetchWidth = 8;
    int issueWidth = 8;
    int commitWidth = 8;
    int robEntries = 256;
    int schedWindow = 64;     ///< issue-scan lookahead (IQ capacity)
    int lsqEntries = 128;
    bool inOrder = false;     ///< GPU mode: in-order issue, no speculation
    int frontendDepth = 10;   ///< mispredict refill penalty (cycles)

    /**
     * Event-driven main loop: when a cycle makes no forward progress
     * (nothing commit-ready, nothing issuable, nothing fetchable), jump
     * straight to the next cycle where anything can change instead of
     * ticking through the stall. Bit-identical to the per-cycle
     * reference loop (eventDriven = false) in every reported statistic
     * -- cycles, histograms, counters, memory/BP stats -- enforced by
     * the `core_event_driven_gate` ctest gate over every service and
     * design point. See DESIGN.md section 12.
     */
    bool eventDriven = true;

    /**
     * Instruction-supply pressure. Microservice binaries famously blow
     * out the i-cache (AsmDB/warehouse-scale studies; the paper cites
     * frequent frontend stalls as a prime CPU inefficiency). Modeled as
     * a miss rate per fetched (batch) instruction -- which is exactly
     * why SIMT amortizes it: the RPU fetches one instruction for 32
     * requests.
     */
    double icacheMpki = 30.0;
    int icacheMissPenalty = 50;
    double smtIcacheFactor = 2.0;  ///< shared-L1I conflict inflation
    /// @}

    /** @name Threading */
    /// @{
    int smtThreads = 1;       ///< scalar hardware threads (SMT)
    int batchWidth = 1;       ///< SIMT batch size (RPU: 32)
    int lanes = 1;            ///< SIMT lanes per execution unit (RPU: 8)
    /// @}

    /** @name Execution resources and latencies */
    /// @{
    int intAluPorts = 6;
    int mulDivPorts = 2;
    int simdPorts = 2;
    int memPorts = 2;
    int branchPorts = 2;
    /**
     * Simple integer ops (add/logic/shift/mov) forward result-to-source
     * in one cycle on the CPU; the RPU's wider datapath costs an extra
     * forwarding stage. Complex scalar ops (hash/multiply-based modulo)
     * pay the full execute pipe, which is where the RPU's 4-cycle
     * ALU-stage assumption (Table IV) lands.
     */
    int aluLat = 1;           ///< simple-op dependent latency (RPU: 2)
    int complexAluLat = 3;    ///< hash/modulo latency (RPU: 4)
    int mulLat = 3;
    int divLat = 12;
    int faluLat = 2;
    int simdLat = 4;
    int branchLat = 1;        ///< 4 on the RPU
    int syscallLat = 30;
    /// @}

    /** @name SIMR-specific policies */
    /// @{
    bool majorityVoteBp = true;   ///< batch-granularity BP majority vote
    bool stackInterleave = false; ///< RPU driver stack-segment coalescing
    /// @}

    /** Memory path (Table IV cache/TLB/NoC/DRAM rows). */
    mem::MemPathConfig mem;

    /** Chip-level context (for throughput/energy scaling). */
    int chipCores = 98;
    double chipStaticWatts = 49.0;

    /** Field-wise: a field added later joins every comparison. */
    bool operator==(const CoreConfig &) const = default;

    /**
     * Panic on a pipeline the timing core cannot run: a zero-latency
     * op (the issue stage settles readiness once per cycle, which
     * needs an op issued at cycle c to complete after c), zero SIMT
     * lanes, a scheduling window outside [1, robEntries], a zero
     * fetch/issue/commit width, or an SMT degree the ROB cannot
     * partition. Called at TimingCore construction.
     */
    void validate() const;
};

/** @name Table IV configurations */
/// @{
CoreConfig makeCpuConfig();
CoreConfig makeSmt8Config();
CoreConfig makeRpuConfig(int batch_width = 32);
CoreConfig makeGpuConfig(int batch_width = 32);
/// @}

} // namespace simr::core

#endif // SIMR_CORE_CONFIG_H
