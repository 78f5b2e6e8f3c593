/**
 * @file
 * MemoryHierarchy: the per-core memory path (banked L1 + per-bank TLBs +
 * L2 + shared L3 slice + DRAM share), with MSHR merging, bank-conflict
 * serialization, and the weak-consistency atomic policy (RPU atomics
 * bypass private caches and execute at L3; the CPU's idealized coherence
 * treats atomics as plain L1 loads, matching the paper's methodology).
 */

#ifndef SIMR_MEM_HIERARCHY_H
#define SIMR_MEM_HIERARCHY_H

#include <vector>

#include "mem/cache.h"
#include "mem/coalescer.h"
#include "mem/dram.h"
#include "mem/interconnect.h"
#include "mem/tlb.h"

namespace simr::mem
{

/** Full configuration of one core's memory path. */
struct MemPathConfig
{
    CacheConfig l1;
    TlbConfig tlb;
    CacheConfig l2;
    CacheConfig l3;            ///< this core's slice of the shared L3
    NocConfig noc;
    DramConfig dram;
    uint32_t l1HitLatency = 3;
    uint32_t l2HitLatency = 12;
    uint32_t l3HitLatency = 30;
    uint32_t tlbWalkLatency = 40;
    uint32_t mshrs = 32;
    bool atomicsAtL3 = false;  ///< RPU/GPU: atomics bypass private caches

    bool operator==(const MemPathConfig &) const = default;

    /**
     * Panic on an unusable memory path (any bad cache geometry, zero
     * MSHRs). Called at MemoryHierarchy construction so a bad sweep
     * config fails loudly instead of silently misindexing sets.
     */
    void validate() const;
};

/**
 * Miss-status-holding-register file: tracks the in-flight fill
 * (line -> fill-ready cycle) of recent L1 misses so later accesses to
 * the same line merge into the outstanding miss instead of paying the
 * full path again.
 *
 * An open-addressing hash index keyed by line, so a lookup or insert
 * costs O(1) however many fills are in flight. A fill is dead once it
 * completed by the `now` of the latest insert (`ready <= now`): it can
 * never merge again (a merge needs ready > start >= now, and the
 * hierarchy's clock is monotone), so lookup() reports it absent and
 * insert() reuses its slot in place. Nothing live is ever dropped:
 * when live and dead slots fill half the index, it is rebuilt from the
 * live fills alone, at a capacity of at least four times their number.
 * Merge behaviour is therefore exactly that of an unbounded line ->
 * ready map, even when more than `cfg.mshrs` fills are in flight (the
 * memory-bound RPU sweep routinely has more; mem_test pins merge
 * preservation at and over capacity against a reference map).
 */
class MshrTable
{
  public:
    explicit MshrTable(uint32_t entries);

    /**
     * Ready cycle of the in-flight fill covering `line`; 0 if none, or
     * if its fill completed by the latest insert's `now`.
     */
    uint64_t
    lookup(Addr line) const
    {
        for (size_t i = home(line);; i = (i + 1) & mask_) {
            const Slot &s = slots_[i];
            if (s.line == line)
                return s.ready > now_ ? s.ready : 0;
            if (s.line == kNoLine)
                return 0;
        }
    }

    /**
     * Record (or refresh) the fill of `line` completing at `ready`;
     * `now` is the current cycle and must not decrease between inserts.
     */
    void insert(Addr line, uint64_t ready, uint64_t now);

    void clear();

    /** Live in-flight fills, for tests. */
    size_t liveFills(uint64_t now) const;

  private:
    struct Slot
    {
        Addr line = kNoLine;
        uint64_t ready = 0;
    };

    static constexpr Addr kNoLine = ~static_cast<Addr>(0);

    size_t
    home(Addr line) const
    {
        // Fibonacci hashing: lines are multiples of the line size, so
        // the low bits alone would cluster.
        return static_cast<size_t>(
            (line * 0x9e3779b97f4a7c15ULL) >> shift_);
    }

    /** Empty the table and give it `capacity` (a power of two) slots. */
    void resize(size_t capacity);

    /** Re-home the live fills into a table of `capacity` slots. */
    void rebuild(size_t capacity);

    std::vector<Slot> slots_;  ///< power-of-two open-addressing table
    size_t mask_ = 0;
    unsigned shift_ = 64;
    size_t used_ = 0;          ///< non-empty slots, live or dead
    size_t minCapacity_ = 0;
    uint64_t now_ = 0;         ///< `now` of the latest insert
};

/** Aggregated hierarchy counters beyond the per-component stats. */
struct HierarchyStats
{
    uint64_t l1BankConflictCycles = 0;
    uint64_t mshrMerges = 0;
    uint64_t atomicsAtL3 = 0;
    uint64_t totalAccesses = 0;
    uint64_t totalLatency = 0;

    double
    avgLatency() const
    {
        return totalAccesses ? static_cast<double>(totalLatency) /
            static_cast<double>(totalAccesses) : 0.0;
    }

    bool operator==(const HierarchyStats &) const = default;
};

/** The per-core memory path. */
class MemoryHierarchy
{
  public:
    MemoryHierarchy(const MemPathConfig &cfg, const AddressMap &map);

    /**
     * Issue the accesses generated by the MCU for one memory instruction.
     * @param cycle issue cycle
     * @param accesses generated line accesses
     * @param kind the MCU pattern (controls TLB lookup count)
     * @return completion latency (max over all generated accesses)
     */
    uint32_t accessGroup(uint64_t cycle,
                         const std::vector<MemAccess> &accesses,
                         CoalesceKind kind);

    /** Convenience for a single access. */
    uint32_t accessOne(uint64_t cycle, const MemAccess &acc);

    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }
    const Cache &l3() const { return l3_; }
    const Tlb &tlb() const { return tlb_; }
    const Noc &noc() const { return noc_; }
    const Dram &dram() const { return dram_; }
    const HierarchyStats &stats() const { return stats_; }
    const MemPathConfig &config() const { return cfg_; }

    void reset();

  private:
    /** One access through L1 -> L2 -> L3 -> DRAM; returns latency. */
    uint32_t accessPath(uint64_t cycle, const MemAccess &acc,
                        bool translate);

    MemPathConfig cfg_;
    const AddressMap &map_;
    Cache l1_;
    Cache l2_;
    Cache l3_;
    Tlb tlb_;
    Noc noc_;
    Dram dram_;
    HierarchyStats stats_;
    std::vector<uint64_t> bankFree_;
    MshrTable mshrs_;
};

} // namespace simr::mem

#endif // SIMR_MEM_HIERARCHY_H
