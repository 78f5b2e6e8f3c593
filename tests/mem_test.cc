/**
 * @file
 * Tests for the memory subsystem: caches, TLB, the stack-interleaving
 * address map, the MCU coalescing patterns, allocator bank policies,
 * DRAM queueing, interconnect latency and the full hierarchy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "isa/isa.h"
#include "mem/allocator.h"
#include "mem/cache.h"
#include "mem/coalescer.h"
#include "mem/dram.h"
#include "mem/hierarchy.h"
#include "mem/interconnect.h"
#include "mem/tlb.h"

using namespace simr;
using namespace simr::mem;

namespace
{

CacheConfig
smallCache(uint64_t kb = 1, uint32_t assoc = 2, uint32_t banks = 1)
{
    CacheConfig c;
    c.sizeBytes = kb * 1024;
    c.assoc = assoc;
    c.banks = banks;
    return c;
}

/** Build a divergent batch load DynOp over the given addresses. */
trace::DynOp
memOp(const std::vector<Addr> &addrs, isa::Op op = isa::Op::Load,
      uint16_t size = 8)
{
    static isa::StaticInst si;
    si = isa::StaticInst();
    si.op = op;
    si.accessSize = size;
    trace::DynOp d;
    d.si = &si;
    d.accessSize = size;
    d.addrCount = static_cast<uint8_t>(addrs.size());
    d.mask = addrs.size() >= 32 ?
        0xffffffffu : ((1u << addrs.size()) - 1);
    for (size_t i = 0; i < addrs.size(); ++i) {
        d.lane[i] = static_cast<uint8_t>(i);
        d.addr[i] = addrs[i];
    }
    return d;
}

} // namespace

TEST(Cache, HitAfterFill)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x101f, false)) << "same 32B line";
    EXPECT_FALSE(c.access(0x1020, false)) << "next line";
    EXPECT_EQ(c.stats().accesses, 4u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEviction)
{
    // 1KB, 2-way, 32B lines -> 16 sets. Three lines in one set evict
    // the least recently used.
    Cache c(smallCache(1, 2));
    Addr set_stride = 16 * 32;
    c.access(0, false);
    c.access(set_stride, false);
    EXPECT_TRUE(c.access(0, false));  // 0 is now MRU
    c.access(2 * set_stride, false);  // evicts set_stride
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(set_stride));
    EXPECT_TRUE(c.probe(2 * set_stride));
}

TEST(Cache, WritebackOnDirtyEviction)
{
    Cache c(smallCache(1, 2));
    Addr set_stride = 16 * 32;
    c.access(0, true);               // dirty
    c.access(set_stride, false);
    c.access(2 * set_stride, false); // evicts dirty line 0
    c.access(3 * set_stride, false); // evicts clean set_stride
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, BankMapping)
{
    Cache c(smallCache(8, 8, 8));
    EXPECT_EQ(c.bankOf(0), 0u);
    EXPECT_EQ(c.bankOf(32), 1u);
    EXPECT_EQ(c.bankOf(7 * 32), 7u);
    EXPECT_EQ(c.bankOf(8 * 32), 0u);
}

TEST(Cache, ResetClears)
{
    Cache c(smallCache());
    c.access(0x40, true);
    c.reset();
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_EQ(c.stats().accesses, 0u);
}

TEST(Tlb, HitAndMissCounting)
{
    Tlb t({4, 1, 4096});
    EXPECT_FALSE(t.lookup(0x1000, 0));
    EXPECT_TRUE(t.lookup(0x1800, 0)) << "same 4KB page";
    EXPECT_FALSE(t.lookup(0x5000, 0));
    EXPECT_EQ(t.stats().lookups, 3u);
    EXPECT_EQ(t.stats().misses, 2u);
}

TEST(Tlb, PerBankDuplication)
{
    // The same page inserted in two banks occupies two entries: the
    // duplication cost the paper describes.
    Tlb t({8, 2, 4096});
    EXPECT_FALSE(t.lookup(0x1000, 0));
    EXPECT_FALSE(t.lookup(0x1000, 1)) << "other bank misses separately";
    EXPECT_TRUE(t.lookup(0x1000, 0));
    EXPECT_TRUE(t.lookup(0x1000, 1));
}

TEST(Tlb, InvalidatePageHitsAllBanks)
{
    Tlb t({8, 2, 4096});
    t.lookup(0x1000, 0);
    t.lookup(0x1000, 1);
    t.invalidatePage(0x1234);
    EXPECT_FALSE(t.lookup(0x1000, 0));
    EXPECT_FALSE(t.lookup(0x1000, 1));
}

TEST(Tlb, MatchesReferenceLruPerBank)
{
    // Differential check of the MRU-hinted TLB against a plain per-bank
    // LRU list: every lookup's hit/miss (and so every victim choice,
    // which decides later hits) must agree, including after
    // invalidating the page the hint points at.
    constexpr uint32_t kBanks = 4;
    constexpr uint32_t kPerBank = 4;
    constexpr Addr kPage = 4096;
    Tlb t({kBanks * kPerBank, kBanks, kPage});
    std::vector<std::vector<Addr>> ref(kBanks);  // LRU first, MRU last
    auto ref_lookup = [&](Addr page, uint32_t bank) {
        auto &b = ref[bank % kBanks];
        auto it = std::find(b.begin(), b.end(), page);
        bool hit = it != b.end();
        if (hit)
            b.erase(it);
        else if (b.size() == kPerBank)
            b.erase(b.begin());
        b.push_back(page);
        return hit;
    };

    std::mt19937_64 rng(7);
    uint64_t misses = 0;
    Addr last_page = 0;
    const int kOps = 100000;
    for (int i = 0; i < kOps; ++i) {
        if (rng() % 16 == 0) {
            // Half the time the page just looked up: the hinted entry.
            Addr page = rng() % 2 ? last_page : rng() % 10;
            t.invalidatePage(page * kPage + rng() % kPage);
            for (auto &b : ref)
                b.erase(std::remove(b.begin(), b.end(), page), b.end());
            continue;
        }
        Addr page = rng() % 10;
        uint32_t bank = static_cast<uint32_t>(rng() % (2 * kBanks));
        bool want = ref_lookup(page, bank);
        misses += want ? 0 : 1;
        ASSERT_EQ(t.lookup(page * kPage + rng() % kPage, bank), want)
            << "op " << i;
        last_page = page;
    }
    EXPECT_EQ(t.stats().misses, misses);
    EXPECT_GT(misses, 1000u) << "the sequence should force evictions";
}

TEST(AddressMap, IdentityWithoutInterleave)
{
    AddressMap m(false, 32);
    Addr a = AddressSpace::stackTop(5) - 64;
    EXPECT_EQ(m.toPhysical(a), a);
}

TEST(AddressMap, NonStackUntouched)
{
    AddressMap m(true, 32);
    EXPECT_EQ(m.toPhysical(AddressSpace::kSharedHeapBase + 100),
              AddressSpace::kSharedHeapBase + 100);
    EXPECT_EQ(m.toPhysical(AddressSpace::kPrivateHeapBase + 100),
              AddressSpace::kPrivateHeapBase + 100);
}

TEST(AddressMap, StackInterleavePacksLanesContiguously)
{
    // Fig. 13: word w of lane t lands at (w * batch + t) words from the
    // batch base. Same offset across lanes => consecutive 4B words.
    AddressMap m(true, 32);
    Addr off = 512;  // word-aligned offset within each lane's stack
    Addr base = m.toPhysical(AddressSpace::stackSegmentBase(0) + off);
    for (uint64_t lane = 0; lane < 32; ++lane) {
        Addr pa = m.toPhysical(
            AddressSpace::stackSegmentBase(lane) + off);
        EXPECT_EQ(pa, base + lane * 4);
    }
}

TEST(AddressMap, StackInterleaveIsInjective)
{
    AddressMap m(true, 4);
    std::set<Addr> phys;
    for (uint64_t lane = 0; lane < 4; ++lane)
        for (Addr off = 0; off < 64; ++off)
            phys.insert(m.toPhysical(
                AddressSpace::stackSegmentBase(lane) + off));
    EXPECT_EQ(phys.size(), 4u * 64u);
}

TEST(Allocator, GlibcArenasShareBankAlignment)
{
    HeapAllocator glibc(AllocPolicy::GlibcLike);
    Addr b0 = glibc.arenaBase(0);
    for (uint64_t t = 1; t < 8; ++t)
        EXPECT_EQ((glibc.arenaBase(t) / 32) % 8, (b0 / 32) % 8)
            << "page-aligned arenas collide on one bank";
}

TEST(Allocator, SimrAwareSpreadsBanks)
{
    HeapAllocator aware(AllocPolicy::SimrAware);
    std::set<Addr> banks;
    for (uint64_t t = 0; t < 8; ++t)
        banks.insert((aware.arenaBase(t) / 32) % 8);
    EXPECT_EQ(banks.size(), 8u) << "one bank per lane";
}

TEST(Allocator, ArenasDoNotOverlap)
{
    for (auto pol : {AllocPolicy::GlibcLike, AllocPolicy::SimrAware}) {
        HeapAllocator a(pol);
        for (uint64_t t = 0; t + 1 < 64; ++t)
            EXPECT_GE(a.arenaBase(t + 1),
                      a.arenaBase(t) + AddressSpace::kArenaStride - 4096);
    }
}

TEST(Mcu, SameWordCoalescesToOne)
{
    AddressMap m(true, 32);
    Mcu mcu(m);
    std::vector<MemAccess> out;
    auto op = memOp(std::vector<Addr>(16, AddressSpace::kSharedHeapBase));
    auto kind = mcu.coalesce(op, out);
    EXPECT_EQ(kind, CoalesceKind::SameWord);
    EXPECT_EQ(out.size(), 1u);
}

TEST(Mcu, ConsecutiveWordsCoalesceToLines)
{
    AddressMap m(true, 32);
    Mcu mcu(m);
    std::vector<Addr> addrs;
    for (int i = 0; i < 16; ++i)
        addrs.push_back(AddressSpace::kSharedHeapBase + 8 * i);
    std::vector<MemAccess> out;
    auto kind = mcu.coalesce(memOp(addrs), out);
    EXPECT_EQ(kind, CoalesceKind::Consecutive);
    EXPECT_EQ(out.size(), 4u) << "16 x 8B = 128B = 4 lines";
}

TEST(Mcu, StackLockstepPushMatchesPaperExample)
{
    // Paper Fig. 14 discussion: a 32-thread 8-byte push generates
    // 8B x 32 / 32B = 8 accesses under stack interleaving.
    AddressMap m(true, 32);
    Mcu mcu(m);
    std::vector<Addr> addrs;
    for (uint64_t lane = 0; lane < 32; ++lane)
        addrs.push_back(AddressSpace::stackSegmentBase(lane) + 1024);
    std::vector<MemAccess> out;
    auto kind = mcu.coalesce(memOp(addrs, isa::Op::Store), out);
    EXPECT_EQ(kind, CoalesceKind::Stack);
    EXPECT_EQ(out.size(), 8u);
    for (const auto &a : out)
        EXPECT_TRUE(a.isStore);
}

TEST(Mcu, DivergentGeneratesPerLane)
{
    AddressMap m(true, 32);
    Mcu mcu(m);
    std::vector<Addr> addrs;
    for (uint64_t lane = 0; lane < 32; ++lane)
        addrs.push_back(AddressSpace::kPrivateHeapBase +
                        lane * 0x10000 + (lane % 3) * 8);
    std::vector<MemAccess> out;
    auto kind = mcu.coalesce(memOp(addrs), out);
    EXPECT_EQ(kind, CoalesceKind::Divergent);
    EXPECT_EQ(out.size(), 32u);
}

TEST(Mcu, ScalarStraddleSplitsLine)
{
    AddressMap m(false, 1);
    Mcu mcu(m);
    std::vector<MemAccess> out;
    auto kind = mcu.coalesce(
        memOp({AddressSpace::kSharedHeapBase + 28}), out);
    EXPECT_EQ(kind, CoalesceKind::Scalar);
    EXPECT_EQ(out.size(), 2u) << "8B access at line offset 28 straddles";
}

TEST(Mcu, ReductionFactorStat)
{
    AddressMap m(true, 32);
    Mcu mcu(m);
    std::vector<MemAccess> out;
    mcu.coalesce(memOp(std::vector<Addr>(32,
        AddressSpace::kSharedHeapBase)), out);
    EXPECT_EQ(mcu.stats().laneAccesses, 32u);
    EXPECT_EQ(mcu.stats().generatedAccesses, 1u);
    EXPECT_DOUBLE_EQ(mcu.stats().reductionFactor(), 32.0);
}

TEST(Dram, QueueingUnderBurst)
{
    Dram d({1, 1.0, 100, 32});  // 1 B/cycle -> 32 cycles per line
    uint32_t first = d.access(0, 0);
    uint32_t second = d.access(0, 64);
    EXPECT_EQ(first, 100u);
    EXPECT_EQ(second, 132u) << "second access queues behind the first";
    EXPECT_GT(d.stats().avgQueueDelay(), 0.0);
}

TEST(Dram, ChannelsSpreadLoad)
{
    Dram d({2, 1.0, 100, 32});
    // Adjacent lines hit different channels: no queueing.
    EXPECT_EQ(d.access(0, 0), 100u);
    EXPECT_EQ(d.access(0, 32), 100u);
}

TEST(Noc, MeshVsCrossbar)
{
    Noc mesh({NocKind::Mesh, 9, 2, 4, 32});
    Noc xbar({NocKind::Crossbar, 9, 2, 4, 32});
    EXPECT_GT(mesh.transfer(32), xbar.transfer(32));
    EXPECT_EQ(xbar.avgHops(), 1u);
    EXPECT_GT(mesh.avgHops(), 4u);
    EXPECT_GT(mesh.stats().flitHops, xbar.stats().flitHops);
}

TEST(Hierarchy, AtomicsBypassToL3)
{
    MemPathConfig cfg;
    cfg.l1 = smallCache(64, 8, 8);
    cfg.l2 = smallCache(512, 8, 1);
    cfg.l3 = smallCache(256, 16, 1);
    cfg.atomicsAtL3 = true;
    AddressMap m(true, 32);
    MemoryHierarchy h(cfg, m);

    MemAccess a;
    a.paddr = 0x1000;
    a.isAtomic = true;
    h.accessOne(0, a);
    EXPECT_EQ(h.stats().atomicsAtL3, 1u);
    EXPECT_EQ(h.l1().stats().accesses, 0u) << "private caches bypassed";
    EXPECT_EQ(h.l3().stats().accesses, 1u);
}

TEST(Hierarchy, MshrMergesSameLine)
{
    MemPathConfig cfg;
    cfg.l1 = smallCache(64, 8, 8);
    cfg.l2 = smallCache(512, 8, 1);
    cfg.l3 = smallCache(256, 16, 1);
    AddressMap m(false, 1);
    MemoryHierarchy h(cfg, m);

    MemAccess a;
    a.paddr = 0x4000;
    uint32_t lat1 = h.accessOne(0, a);
    a.paddr = 0x4008;  // same line, one cycle later
    uint32_t lat2 = h.accessOne(1, a);
    EXPECT_GT(lat1, cfg.l1HitLatency);
    EXPECT_LT(lat2, lat1) << "merged into the outstanding miss";
    EXPECT_EQ(h.stats().mshrMerges, 1u);
}

TEST(Hierarchy, BankConflictSerializes)
{
    MemPathConfig cfg;
    cfg.l1 = smallCache(64, 8, 8);
    cfg.l2 = smallCache(512, 8, 1);
    cfg.l3 = smallCache(256, 16, 1);
    AddressMap m(false, 1);
    MemoryHierarchy h(cfg, m);

    // Warm two lines in the same bank (stride 8 banks x 32B).
    MemAccess a;
    a.paddr = 0x8000;
    h.accessOne(0, a);
    a.paddr = 0x8000 + 8 * 32;
    h.accessOne(0, a);
    uint64_t before = h.stats().l1BankConflictCycles;

    std::vector<MemAccess> group = {{0x8000, false, false},
                                    {0x8000 + 8 * 32, false, false}};
    h.accessGroup(100, group, CoalesceKind::Divergent);
    EXPECT_GT(h.stats().l1BankConflictCycles, before);
}

TEST(Hierarchy, GroupLatencyIsWorstCase)
{
    MemPathConfig cfg;
    cfg.l1 = smallCache(64, 8, 8);
    cfg.l2 = smallCache(512, 8, 1);
    cfg.l3 = smallCache(256, 16, 1);
    AddressMap m(false, 1);
    MemoryHierarchy h(cfg, m);

    // Warm one line; leave the other cold.
    MemAccess warm{0x100, false, false};
    h.accessOne(0, warm);
    std::vector<MemAccess> group = {{0x100, false, false},
                                    {0xabcd00, false, false}};
    uint32_t lat = h.accessGroup(50, group, CoalesceKind::Divergent);
    EXPECT_GT(lat, cfg.l1HitLatency) << "cold lane dominates";
}

TEST(AddressSpace, Classification)
{
    EXPECT_EQ(AddressSpace::classify(AddressSpace::kCodeBase),
              Segment::Code);
    EXPECT_EQ(AddressSpace::classify(AddressSpace::kDataBase + 8),
              Segment::SharedData);
    EXPECT_EQ(AddressSpace::classify(AddressSpace::kSharedHeapBase + 8),
              Segment::SharedHeap);
    EXPECT_EQ(AddressSpace::classify(AddressSpace::kPrivateHeapBase + 8),
              Segment::PrivateHeap);
    EXPECT_EQ(AddressSpace::classify(AddressSpace::kStackBase + 8),
              Segment::Stack);
    EXPECT_EQ(AddressSpace::classify(0x10), Segment::Other);
}

TEST(CacheConfigValidation, RejectsBadGeometry)
{
    // Construction-time validation: a bad geometry must die loudly at
    // the config boundary, not corrupt set indexing later.
    CacheConfig c = smallCache();
    c.lineBytes = 48;  // not a power of two
    EXPECT_DEATH(Cache{c}, "lineBytes");

    c = smallCache();
    c.assoc = 0;
    EXPECT_DEATH(Cache{c}, "assoc >= 1");

    c = smallCache();
    c.banks = 0;
    EXPECT_DEATH(Cache{c}, "banks >= 1");

    c = smallCache();
    c.bankInterleave = c.lineBytes / 2;
    EXPECT_DEATH(Cache{c}, "bankInterleave >= lineBytes");
}

TEST(MemPathConfigValidation, RejectsZeroMshrs)
{
    MemPathConfig cfg;
    cfg.l1 = smallCache(64, 8, 8);
    cfg.l2 = smallCache(512, 8, 1);
    cfg.l3 = smallCache(256, 16, 1);
    cfg.mshrs = 0;
    AddressMap m(false, 1);
    // The MshrTable member asserts before MemPathConfig::validate()
    // gets its turn; either way, zero MSHRs dies at construction.
    EXPECT_DEATH((MemoryHierarchy{cfg, m}), "entries >= 1");
}

TEST(MshrTable, KeepsLiveFillsBeyondCapacity)
{
    // The fixed table spills past its nominal capacity rather than
    // dropping live fills: merge behaviour must be identical to the
    // unbounded map it replaced.
    MshrTable t(2);
    t.insert(0x1000, 100, 0);
    t.insert(0x2000, 110, 0);
    t.insert(0x3000, 120, 0);  // beyond the 2 primary slots
    t.insert(0x4000, 130, 0);
    EXPECT_EQ(t.liveFills(0), 4u);
    EXPECT_EQ(t.lookup(0x1000), 100u);
    EXPECT_EQ(t.lookup(0x2000), 110u);
    EXPECT_EQ(t.lookup(0x3000), 120u);
    EXPECT_EQ(t.lookup(0x4000), 130u);
    EXPECT_EQ(t.lookup(0x5000), 0u);
}

TEST(MshrTable, RefreshDoesNotDuplicate)
{
    MshrTable t(2);
    t.insert(0x1000, 100, 0);
    t.insert(0x1000, 150, 0);  // same line refreshed, like map[line]=
    EXPECT_EQ(t.liveFills(0), 1u);
    EXPECT_EQ(t.lookup(0x1000), 150u);
}

TEST(MshrTable, RecyclesDeadSlots)
{
    // Completed fills can never merge again; their slots are reused in
    // place and dead overflow entries are compacted away, so the table
    // stays near its live size instead of growing run-long.
    MshrTable t(1);
    t.insert(0x1000, 10, 0);   // primary
    t.insert(0x2000, 10, 0);   // overflow
    t.insert(0x3000, 10, 0);   // overflow
    EXPECT_EQ(t.liveFills(0), 3u);
    // At cycle 20 everything completed; a new fill reuses a dead slot.
    t.insert(0x4000, 30, 20);
    EXPECT_EQ(t.liveFills(20), 1u);
    EXPECT_EQ(t.lookup(0x4000), 30u);
    EXPECT_EQ(t.lookup(0x1000), 0u) << "dead entry recycled";
}

TEST(MshrTable, MatchesReferenceMapOverRandomTraffic)
{
    // Differential check against the unbounded line -> ready map the
    // table stands in for, in which a fill is absent once it completed
    // by the latest insert's `now`. The clock is monotone, lines are
    // refreshed often, and live fills run well past the table's
    // nominal capacity, forcing growth and rebuilds.
    constexpr uint32_t kEntries = 8;
    MshrTable t(kEntries);
    std::map<Addr, uint64_t> ref;
    std::mt19937_64 rng(42);
    uint64_t now = 0;
    size_t max_live = 0;
    auto expected = [&](Addr line) {
        auto it = ref.find(line);
        return it != ref.end() && it->second > now ? it->second : 0;
    };
    const int kOps = 200000;
    for (int i = 0; i < kOps; ++i) {
        Addr line = (rng() % 512) * 32;
        if (rng() % 3 != 0) {
            now += rng() % 3;
            // Mostly future fills; a few already complete on arrival.
            uint64_t ready = rng() % 32 == 0 ? now - std::min(now, rng() % 4)
                                             : now + 1 + rng() % 300;
            t.insert(line, ready, now);
            ref[line] = ready;
        }
        ASSERT_EQ(t.lookup(line), expected(line)) << "op " << i;
        Addr other = (rng() % 512) * 32;
        ASSERT_EQ(t.lookup(other), expected(other)) << "op " << i;
        if (i % 4096 == 0) {
            size_t live = 0;
            for (const auto &[l, ready] : ref)
                live += ready > now ? 1 : 0;
            ASSERT_EQ(t.liveFills(now), live) << "op " << i;
            max_live = std::max(max_live, live);
        }
    }
    EXPECT_GT(max_live, 4u * kEntries);
}

TEST(Hierarchy, MshrMergesPreservedOverCapacity)
{
    // With a single nominal MSHR, two outstanding misses to different
    // lines must still both merge follow-on accesses (the spill list
    // keeps the second fill); the rewrite must not change merge counts.
    MemPathConfig cfg;
    cfg.l1 = smallCache(64, 8, 8);
    cfg.l2 = smallCache(512, 8, 1);
    cfg.l3 = smallCache(256, 16, 1);
    cfg.mshrs = 1;
    AddressMap m(false, 1);
    MemoryHierarchy h(cfg, m);

    MemAccess a;
    a.paddr = 0x10000;
    uint32_t lat1 = h.accessOne(0, a);
    a.paddr = 0x20000;  // different line and bank, also a miss
    uint32_t lat2 = h.accessOne(0, a);
    ASSERT_GT(lat1, cfg.l1HitLatency);
    ASSERT_GT(lat2, cfg.l1HitLatency);

    a.paddr = 0x10008;
    h.accessOne(1, a);
    a.paddr = 0x20008;
    h.accessOne(1, a);
    EXPECT_EQ(h.stats().mshrMerges, 2u)
        << "over-capacity fill lost its merge window";
}
