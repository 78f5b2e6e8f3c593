#include "core/config.h"

#include <cstdint>

#include "common/logging.h"

namespace simr::core
{

namespace
{

mem::CacheConfig
cacheCfg(const char *name, uint64_t kb, uint32_t assoc, uint32_t banks)
{
    mem::CacheConfig c;
    c.name = name;
    c.sizeBytes = kb * 1024;
    c.assoc = assoc;
    c.lineBytes = 32;
    c.banks = banks;
    c.bankInterleave = 32;
    return c;
}

} // namespace

void
CoreConfig::validate() const
{
    simr_assert(smtThreads >= 1 && smtThreads <= UINT16_MAX,
                "bad SMT degree");
    simr_assert(robEntries >= smtThreads, "ROB too small");
    // Per-stream completion state is a ring of 8192 ops (the
    // dependence horizon, see TimingCore::kMaxDepDistance); a
    // partition may not outgrow it.
    simr_assert(robEntries / smtThreads <= 8192,
                "ROB partition larger than the dependence horizon");
    simr_assert(schedWindow >= 1 && schedWindow <= robEntries,
                "scheduling window must be in [1, robEntries]");
    simr_assert(fetchWidth >= 1, "fetch width must be >= 1");
    simr_assert(issueWidth >= 1, "issue width must be >= 1");
    simr_assert(commitWidth >= 1, "commit width must be >= 1");
    simr_assert(lanes >= 1, "need at least one SIMT lane");
    simr_assert(aluLat >= 1 && complexAluLat >= 1 && mulLat >= 1 &&
                divLat >= 1 && faluLat >= 1 && simdLat >= 1 &&
                branchLat >= 1 && syscallLat >= 1,
                "every op latency must be >= 1");
    // A memory op completes no sooner than an L1 hit, or, for an
    // atomic executed at the L3, than an L3 hit.
    simr_assert(mem.l1HitLatency >= 1 && mem.l3HitLatency >= 1,
                "every op latency must be >= 1");
}

CoreConfig
makeCpuConfig()
{
    CoreConfig c;
    c.name = "cpu";
    c.chipCores = 98;

    c.mem.l1 = cacheCfg("l1d", 64, 8, 1);
    c.mem.tlb = {48, 1, 2 * 1024 * 1024};
    c.mem.l2 = cacheCfg("l2", 512, 8, 1);
    // Per-core slice of the shared 32MB L3.
    c.mem.l3 = cacheCfg("l3", 256, 16, 1);
    c.mem.noc.kind = mem::NocKind::Mesh;
    c.mem.noc.dim = 9;
    c.mem.l1HitLatency = 3;
    c.mem.l2HitLatency = 12;
    c.mem.l3HitLatency = 30;
    c.mem.mshrs = 16;
    c.mem.atomicsAtL3 = false;
    // 200 GB/s chip / 98 cores at 2.5 GHz ~ 0.8 B/cycle/core.
    c.mem.dram.channels = 1;
    c.mem.dram.bytesPerCycle = 0.8;
    c.mem.dram.latencyCycles = 150;
    return c;
}

CoreConfig
makeSmt8Config()
{
    CoreConfig c = makeCpuConfig();
    c.name = "cpu-smt8";
    c.smtThreads = 8;
    c.chipCores = 80;

    // SMT keeps total threads and per-thread memory resources in line
    // with the RPU (Table IV): same L1 size but banked, bigger TLB,
    // larger DRAM share per core.
    c.mem.l1 = cacheCfg("l1d", 64, 8, 8);
    c.mem.tlb = {64, 1, 2 * 1024 * 1024};
    c.mem.l3 = cacheCfg("l3", 512, 16, 1);
    c.mem.noc.dim = 11;
    // 576 GB/s chip / 80 cores at 2.5 GHz ~ 2.9 B/cycle/core.
    c.mem.dram.bytesPerCycle = 2.9;
    return c;
}

CoreConfig
makeRpuConfig(int batch_width)
{
    CoreConfig c;
    c.name = "rpu";
    c.chipCores = 20;
    c.batchWidth = batch_width;
    c.lanes = 8;

    // Wider datapath and the majority-voting circuit lengthen the ALU
    // and branch pipes; the banked L1 + MCU lengthen the hit path.
    // The 4-cycle ALU/branch stage (Table IV) is execution-stage
    // depth, not dependent-issue latency: forwarding keeps dependent
    // ALU ops back-to-back (each lane owns its ALU/multiplier), branch
    // resolution sees the full voting pipe, and the extra depth shows
    // up in the mispredict refill penalty.
    c.aluLat = 1;
    c.complexAluLat = 3;
    c.branchLat = 4;
    c.frontendDepth = 14;
    c.stackInterleave = true;
    c.majorityVoteBp = true;

    c.mem.l1 = cacheCfg("l1d", 256, 8, 8);
    c.mem.tlb = {256, 8, 2 * 1024 * 1024};
    c.mem.l2 = cacheCfg("l2", 2048, 8, 2);
    c.mem.l3 = cacheCfg("l3", 2048, 16, 1);
    c.mem.noc.kind = mem::NocKind::Crossbar;
    c.mem.l1HitLatency = 8;
    c.mem.l2HitLatency = 20;
    c.mem.l3HitLatency = 30;
    c.mem.mshrs = 64;
    c.mem.atomicsAtL3 = true;
    // 576 GB/s chip / 20 cores at 2.5 GHz ~ 11.5 B/cycle/core.
    c.mem.dram.channels = 8;
    c.mem.dram.bytesPerCycle = 1.45;
    c.mem.dram.latencyCycles = 150;
    c.chipStaticWatts = 53.0;
    return c;
}

CoreConfig
makeGpuConfig(int batch_width)
{
    CoreConfig c = makeRpuConfig(batch_width);
    c.name = "gpu";
    // Ampere-like design point: in-order, no speculation, lower clock,
    // longer memory path; same software optimizations as the RPU.
    c.inOrder = true;
    c.freqGhz = 1.4;
    c.chipCores = 108;
    // Warp-level multithreading: several batches share the core, which
    // is where the GPU's utilization (and its latency pain) comes from.
    c.smtThreads = 6;
    c.robEntries = 64;
    c.schedWindow = 8;
    c.fetchWidth = 4;
    c.issueWidth = 4;
    c.commitWidth = 4;
    c.aluLat = 1;
    c.complexAluLat = 3;
    c.branchLat = 4;
    c.simdLat = 4;
    c.mem.l1HitLatency = 28;
    c.mem.l2HitLatency = 40;
    c.mem.l3HitLatency = 120;
    c.mem.dram.latencyCycles = 250;
    c.chipStaticWatts = 60.0;
    return c;
}

} // namespace simr::core
