#include "mem/cache.h"

#include <cstring>
#include <type_traits>

#include "common/logging.h"

namespace simr::mem
{

void
CacheConfig::validate() const
{
    simr_assert(lineBytes > 0 && (lineBytes & (lineBytes - 1)) == 0,
                "cache line size must be a power of two");
    simr_assert(assoc >= 1, "cache associativity must be >= 1");
    simr_assert(banks >= 1, "cache bank count must be >= 1");
    simr_assert(bankInterleave >= lineBytes,
                "bank interleave must be at least one line");
}

Cache::Cache(CacheConfig cfg)
    : cfg_(std::move(cfg))
{
    cfg_.validate();
    uint64_t num_lines = cfg_.sizeBytes / cfg_.lineBytes;
    simr_assert(num_lines >= cfg_.assoc, "cache smaller than one set");
    numSets_ = static_cast<uint32_t>(num_lines / cfg_.assoc);
    simr_assert((numSets_ & (numSets_ - 1)) == 0,
                "cache set count must be a power of two");
    lineShift_ = static_cast<unsigned>(__builtin_ctz(cfg_.lineBytes));
    setShift_ = static_cast<unsigned>(__builtin_ctz(numSets_));
    auto pow2 = [](uint32_t v) { return (v & (v - 1)) == 0; };
    if (pow2(cfg_.bankInterleave) && pow2(cfg_.banks))
        bankShift_ = __builtin_ctz(cfg_.bankInterleave);
    lines_ = zeroArray<Line>(static_cast<size_t>(numSets_) * cfg_.assoc);
    mruWay_ = zeroArray<uint32_t>(numSets_);
}

template <typename T>
Cache::ZeroArray<T>
Cache::zeroArray(size_t n)
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "calloc'd storage must be valid as all-zero bytes");
    ZeroArray<T> a(static_cast<T *>(std::calloc(n, sizeof(T))));
    simr_assert(a != nullptr, "cache tag array allocation failed");
    return a;
}

uint32_t
Cache::setOf(Addr paddr) const
{
    return static_cast<uint32_t>((paddr >> lineShift_) & (numSets_ - 1));
}

Addr
Cache::tagOf(Addr paddr) const
{
    return paddr >> lineShift_ >> setShift_;
}

bool
Cache::accessScan(uint32_t set, Addr tag, bool is_store)
{
    Line *base = &lines_[static_cast<size_t>(set) * cfg_.assoc];
    Line *victim = base;
    for (uint32_t w = 0; w < cfg_.assoc; ++w) {
        Line &l = base[w];
        if (l.valid && l.tag == tag) {
            l.lru = tick_;
            l.dirty = l.dirty || is_store;
            mruWay_[set] = w;
            return true;
        }
        if (!l.valid) {
            victim = &l;
        } else if (victim->valid && l.lru < victim->lru) {
            victim = &l;
        }
    }

    ++stats_.misses;
    if (victim->valid && victim->dirty)
        ++stats_.writebacks;
    victim->valid = true;
    victim->tag = tag;
    victim->lru = tick_;
    victim->dirty = is_store;
    mruWay_[set] = static_cast<uint32_t>(victim - base);
    return false;
}

bool
Cache::probe(Addr paddr) const
{
    uint32_t set = setOf(paddr);
    Addr tag = tagOf(paddr);
    const Line *base = &lines_[static_cast<size_t>(set) * cfg_.assoc];
    for (uint32_t w = 0; w < cfg_.assoc; ++w)
        if (base[w].valid && base[w].tag == tag)
            return true;
    return false;
}

void
Cache::reset()
{
    // tick_ counts accesses since construction or the last reset, and
    // only access() writes the tag arrays: an untouched cache -- a new
    // core's, reset at the start of its first run -- is already clean.
    if (tick_ != 0) {
        const size_t lines = static_cast<size_t>(numSets_) * cfg_.assoc;
        std::memset(static_cast<void *>(lines_.get()), 0,
                    lines * sizeof(Line));
        std::memset(mruWay_.get(), 0, numSets_ * sizeof(uint32_t));
    }
    tick_ = 0;
    stats_ = CacheStats();
}

} // namespace simr::mem
