/**
 * @file
 * TLB model. The RPU couples one TLB bank to each L1 data bank so address
 * translation throughput matches cache throughput; because data is
 * interleaved across banks at sub-page granularity, the same page entry
 * gets duplicated into several banks, shrinking effective capacity (the
 * paper calls this out as a deliberate trade-off).
 */

#ifndef SIMR_MEM_TLB_H
#define SIMR_MEM_TLB_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/address_space.h"

namespace simr::mem
{

/** TLB geometry. */
struct TlbConfig
{
    uint32_t entries = 48;     ///< total entries across all banks
    uint32_t banks = 1;
    /**
     * Data-center deployments back service heaps with transparent huge
     * pages; both the CPU and RPU configurations model 2MB pages (the
     * RPU's per-bank entry duplication would otherwise thrash on the
     * per-thread heap arenas, which the paper flags as its TLB
     * trade-off).
     */
    uint32_t pageBytes = 2 * 1024 * 1024;
};

/** TLB counters. */
struct TlbStats
{
    uint64_t lookups = 0;
    uint64_t misses = 0;

    double
    missRate() const
    {
        return lookups ? static_cast<double>(misses) /
            static_cast<double>(lookups) : 0.0;
    }
};

/**
 * Fully-associative-per-bank LRU TLB. Each bank keeps a hint to its
 * most recently used entry, so the common repeat hit skips the bank
 * scan; misses scan as before, so hit/miss counts and LRU victims are
 * exactly those of the plain scan.
 */
class Tlb
{
  public:
    explicit Tlb(TlbConfig cfg);

    /**
     * Translate; fills on miss.
     * @param paddr address being accessed
     * @param bank L1 bank performing the access (selects the TLB bank)
     * @return true on hit
     */
    bool
    lookup(Addr paddr, uint32_t bank)
    {
        ++stats_.lookups;
        ++tick_;
        if (bank >= cfg_.banks)
            bank %= cfg_.banks;
        Addr page = paddr >> pageShift_;
        Entry &hinted =
            entries_[static_cast<size_t>(bank) * entriesPerBank_ + mru_[bank]];
        if (hinted.valid && hinted.page == page) {
            hinted.lru = tick_;
            return true;
        }
        return lookupScan(page, bank);
    }

    /** Invalidate a page in every bank (INVLPG semantics). */
    void invalidatePage(Addr vaddr);

    void reset();

    const TlbConfig &config() const { return cfg_; }
    const TlbStats &stats() const { return stats_; }

  private:
    struct Entry
    {
        Addr page = 0;
        uint64_t lru = 0;
        bool valid = false;
    };

    /** Miss on the MRU entry: scan the bank, fill the LRU victim. */
    bool lookupScan(Addr page, uint32_t bank);

    TlbConfig cfg_;
    uint32_t entriesPerBank_;
    unsigned pageShift_;          ///< log2(cfg_.pageBytes)
    std::vector<Entry> entries_;  ///< banks x entriesPerBank_
    std::vector<uint32_t> mru_;   ///< per-bank MRU entry hint
    uint64_t tick_ = 0;
    TlbStats stats_;
};

} // namespace simr::mem

#endif // SIMR_MEM_TLB_H
