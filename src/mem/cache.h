/**
 * @file
 * Set-associative, write-allocate, writeback cache model with optional
 * banking. Tracks hit/miss/writeback counts; timing (hit latency, bank
 * conflict serialization, MSHR latency) is composed by MemoryHierarchy.
 */

#ifndef SIMR_MEM_CACHE_H
#define SIMR_MEM_CACHE_H

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

#include "mem/address_space.h"

namespace simr::mem
{

/** Geometry and banking of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    uint64_t sizeBytes = 64 * 1024;
    uint32_t assoc = 8;
    uint32_t lineBytes = 32;
    uint32_t banks = 1;
    uint32_t bankInterleave = 32;  ///< bytes per bank before rotating

    /**
     * Panic on an unusable geometry (non-power-of-two line size,
     * zero ways/banks, bank interleave finer than a line). Called at
     * Cache construction so a bad sweep config fails loudly instead of
     * silently misindexing sets.
     */
    void validate() const;
};

/** Aggregate counters for one cache instance. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t storeAccesses = 0;
    uint64_t writebacks = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
            static_cast<double>(accesses) : 0.0;
    }
};

/** One cache level. */
class Cache
{
  public:
    explicit Cache(CacheConfig cfg);

    /**
     * Access one line; fills on miss (write-allocate).
     * @param paddr physical address (any byte in the line)
     * @param is_store marks the line dirty on hit/fill
     * @return true on hit
     */
    bool
    access(Addr paddr, bool is_store)
    {
        ++stats_.accesses;
        if (is_store)
            ++stats_.storeAccesses;
        ++tick_;

        // Set/tag share one line-number shift (line size and set count
        // are powers of two); the MRU way hint resolves the common
        // repeat hit without scanning the set. Both are stats-neutral:
        // hit/miss/writeback counts and the LRU victim are exactly what
        // the full scan computes.
        Addr line_num = paddr >> lineShift_;
        uint32_t set = static_cast<uint32_t>(line_num & (numSets_ - 1));
        Addr tag = line_num >> setShift_;
        Line &hinted = lines_[static_cast<size_t>(set) * cfg_.assoc +
                              mruWay_[set]];
        if (hinted.valid && hinted.tag == tag) {
            hinted.lru = tick_;
            hinted.dirty = hinted.dirty || is_store;
            return true;
        }
        return accessScan(set, tag, is_store);
    }

    /** Non-mutating lookup. */
    bool probe(Addr paddr) const;

    /** Invalidate everything (e.g. between independent runs). */
    void reset();

    /** Bank servicing this address. */
    uint32_t
    bankOf(Addr paddr) const
    {
        // Shift and mask when the geometry is a power of two (every
        // Table IV cache), saving two divisions per access.
        if (bankShift_ >= 0)
            return static_cast<uint32_t>((paddr >> bankShift_) &
                                         (cfg_.banks - 1));
        return static_cast<uint32_t>(
            (paddr / cfg_.bankInterleave) % cfg_.banks);
    }

    const CacheConfig &config() const { return cfg_; }
    const CacheStats &stats() const { return stats_; }
    CacheStats &stats() { return stats_; }

    uint32_t numSets() const { return numSets_; }

  private:
    /** A tag entry; all-zero bytes are the invalid, clean line. */
    struct Line
    {
        Addr tag = 0;
        uint64_t lru = 0;
        bool valid = false;
        bool dirty = false;
    };

    struct FreeDeleter
    {
        void operator()(void *p) const { std::free(p); }
    };

    /**
     * A zero-filled array from calloc. A large one comes straight from
     * fresh pages the kernel zeroes on first touch, so the sets a run
     * never touches cost nothing.
     */
    template <typename T>
    using ZeroArray = std::unique_ptr<T[], FreeDeleter>;

    template <typename T>
    static ZeroArray<T> zeroArray(size_t n);

    /** Miss on the MRU way: scan the set, fill the LRU victim. */
    bool accessScan(uint32_t set, Addr tag, bool is_store);

    uint32_t setOf(Addr paddr) const;
    Addr tagOf(Addr paddr) const;

    CacheConfig cfg_;
    uint32_t numSets_;
    unsigned lineShift_;       ///< log2(lineBytes)
    unsigned setShift_;        ///< log2(numSets_)
    int bankShift_ = -1;       ///< log2(bankInterleave), -1: divide
    ZeroArray<Line> lines_;    ///< numSets_ x assoc, row-major
    ZeroArray<uint32_t> mruWay_;  ///< per-set MRU way hint
    uint64_t tick_ = 0;
    CacheStats stats_;
};

} // namespace simr::mem

#endif // SIMR_MEM_CACHE_H
