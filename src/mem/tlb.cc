#include "mem/tlb.h"

#include "common/logging.h"

namespace simr::mem
{

Tlb::Tlb(TlbConfig cfg)
    : cfg_(cfg)
{
    simr_assert(cfg_.banks > 0 && cfg_.entries >= cfg_.banks,
                "bad TLB geometry");
    simr_assert(cfg_.pageBytes > 0 &&
                (cfg_.pageBytes & (cfg_.pageBytes - 1)) == 0,
                "TLB page size must be a power of two");
    entriesPerBank_ = cfg_.entries / cfg_.banks;
    pageShift_ = static_cast<unsigned>(__builtin_ctz(cfg_.pageBytes));
    entries_.resize(static_cast<size_t>(cfg_.banks) * entriesPerBank_);
    mru_.assign(cfg_.banks, 0);
}

bool
Tlb::lookupScan(Addr page, uint32_t bank)
{
    Entry *base = &entries_[static_cast<size_t>(bank) * entriesPerBank_];
    Entry *victim = base;
    for (uint32_t i = 0; i < entriesPerBank_; ++i) {
        Entry &e = base[i];
        if (e.valid && e.page == page) {
            e.lru = tick_;
            mru_[bank] = i;
            return true;
        }
        if (!e.valid) {
            victim = &e;
        } else if (victim->valid && e.lru < victim->lru) {
            victim = &e;
        }
    }

    ++stats_.misses;
    victim->valid = true;
    victim->page = page;
    victim->lru = tick_;
    mru_[bank] = static_cast<uint32_t>(victim - base);
    return false;
}

void
Tlb::invalidatePage(Addr vaddr)
{
    Addr page = vaddr >> pageShift_;
    for (auto &e : entries_)
        if (e.valid && e.page == page)
            e.valid = false;
}

void
Tlb::reset()
{
    for (auto &e : entries_)
        e = Entry();
    mru_.assign(cfg_.banks, 0);
    tick_ = 0;
    stats_ = TlbStats();
}

} // namespace simr::mem
