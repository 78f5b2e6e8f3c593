#include "mem/hierarchy.h"

#include <algorithm>

#include "common/logging.h"

namespace simr::mem
{

void
MemPathConfig::validate() const
{
    l1.validate();
    l2.validate();
    l3.validate();
    simr_assert(mshrs >= 1, "need at least one MSHR");
}

MshrTable::MshrTable(uint32_t entries)
{
    simr_assert(entries >= 1, "need at least one MSHR");
    minCapacity_ = 4;
    while (minCapacity_ < 4 * static_cast<size_t>(entries))
        minCapacity_ *= 2;
    resize(minCapacity_);
}

void
MshrTable::resize(size_t capacity)
{
    slots_.assign(capacity, Slot());
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(capacity));
    used_ = 0;
}

void
MshrTable::rebuild(size_t capacity)
{
    std::vector<Slot> old = std::move(slots_);
    resize(capacity);
    for (const Slot &s : old) {
        if (s.line == kNoLine || s.ready <= now_)
            continue;
        size_t i = home(s.line);
        while (slots_[i].line != kNoLine)
            i = (i + 1) & mask_;
        slots_[i] = s;
        ++used_;
    }
}

void
MshrTable::insert(Addr line, uint64_t ready, uint64_t now)
{
    now_ = now;
    // Refresh the line's own slot if present (exactly like
    // map[line] = ready), else take the first dead slot on its probe
    // path, else the empty slot that ended the probe. Dead slots stay
    // occupied until a rebuild, so no other line's probe chain breaks.
    Slot *dead = nullptr;
    size_t i = home(line);
    for (;; i = (i + 1) & mask_) {
        Slot &s = slots_[i];
        if (s.line == line) {
            s.ready = ready;
            return;
        }
        if (s.line == kNoLine)
            break;
        if (dead == nullptr && s.ready <= now)
            dead = &s;
    }
    if (dead != nullptr) {
        *dead = Slot{line, ready};
        return;
    }
    slots_[i] = Slot{line, ready};
    if (2 * ++used_ > slots_.size()) {
        size_t live = liveFills(now);
        size_t capacity = minCapacity_;
        while (capacity < 4 * live)
            capacity *= 2;
        rebuild(capacity);
    }
}

void
MshrTable::clear()
{
    now_ = 0;
    if (used_ != 0 || slots_.size() != minCapacity_)
        resize(minCapacity_);
}

size_t
MshrTable::liveFills(uint64_t now) const
{
    size_t n = 0;
    for (const auto &s : slots_)
        if (s.line != kNoLine && s.ready > now)
            ++n;
    return n;
}

MemoryHierarchy::MemoryHierarchy(const MemPathConfig &cfg,
                                 const AddressMap &map)
    : cfg_(cfg), map_(map), l1_(cfg.l1), l2_(cfg.l2), l3_(cfg.l3),
      tlb_(cfg.tlb), noc_(cfg.noc), dram_(cfg.dram), mshrs_(cfg.mshrs)
{
    cfg_.validate();
    bankFree_.assign(cfg_.l1.banks, 0);
}

uint32_t
MemoryHierarchy::accessGroup(uint64_t cycle,
                             const std::vector<MemAccess> &accesses,
                             CoalesceKind kind)
{
    // Stack and same-word patterns need a single address translation
    // (the RPU's address generation unit overrides the stack base);
    // divergent patterns translate per access.
    bool translate_each = kind == CoalesceKind::Divergent ||
        kind == CoalesceKind::Scalar || kind == CoalesceKind::Consecutive;

    uint32_t worst = 0;
    bool first = true;
    for (const auto &acc : accesses) {
        bool translate = translate_each || first;
        worst = std::max(worst, accessPath(cycle, acc, translate));
        first = false;
    }
    return worst;
}

uint32_t
MemoryHierarchy::accessOne(uint64_t cycle, const MemAccess &acc)
{
    return accessPath(cycle, acc, true);
}

uint32_t
MemoryHierarchy::accessPath(uint64_t cycle, const MemAccess &acc,
                            bool translate)
{
    ++stats_.totalAccesses;
    uint32_t latency = 0;

    // Atomics under the RPU/GPU weak-consistency model bypass the
    // private caches and execute at the shared L3.
    if (acc.isAtomic && cfg_.atomicsAtL3) {
        ++stats_.atomicsAtL3;
        latency = noc_.transfer(cfg_.l1.lineBytes) + cfg_.l3HitLatency;
        if (!l3_.access(acc.paddr, acc.isStore))
            latency += dram_.access(cycle + latency, acc.paddr);
        stats_.totalLatency += latency;
        return latency;
    }

    // L1 bank availability: one access per bank per cycle.
    uint32_t bank = l1_.bankOf(acc.paddr);
    uint64_t start = std::max(cycle, bankFree_[bank]);
    bankFree_[bank] = start + 1;
    uint32_t conflict = static_cast<uint32_t>(start - cycle);
    stats_.l1BankConflictCycles += conflict;
    latency += conflict;

    if (translate && !tlb_.lookup(acc.paddr, bank))
        latency += cfg_.tlbWalkLatency;

    // MSHR merge window: a line with an in-flight fill serves new
    // requests at the fill's completion, whether or not the (eager)
    // functional fill already installed it.
    Addr line = acc.paddr & ~(Addr{cfg_.l1.lineBytes} - 1);
    uint64_t fill_ready = mshrs_.lookup(line);
    if (fill_ready > start) {
        ++stats_.mshrMerges;
        l1_.access(acc.paddr, acc.isStore);
        uint32_t lat = static_cast<uint32_t>(fill_ready - cycle);
        stats_.totalLatency += lat;
        return lat;
    }

    latency += cfg_.l1HitLatency;
    if (l1_.access(acc.paddr, acc.isStore)) {
        stats_.totalLatency += latency;
        return latency;
    }

    // L2.
    latency += cfg_.l2HitLatency;
    if (!l2_.access(acc.paddr, acc.isStore)) {
        // L3 over the interconnect.
        latency += noc_.transfer(cfg_.l1.lineBytes) + cfg_.l3HitLatency;
        if (!l3_.access(acc.paddr, acc.isStore))
            latency += dram_.access(cycle + latency, acc.paddr);
    }

    mshrs_.insert(line, cycle + latency, cycle);
    stats_.totalLatency += latency;
    return latency;
}

void
MemoryHierarchy::reset()
{
    l1_.reset();
    l2_.reset();
    l3_.reset();
    tlb_.reset();
    noc_.resetStats();
    dram_.reset();
    stats_ = HierarchyStats();
    bankFree_.assign(cfg_.l1.banks, 0);
    mshrs_.clear();
}

} // namespace simr::mem
