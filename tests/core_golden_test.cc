/**
 * @file
 * Golden fixture for the timing core: every modelled CoreResult field
 * of the 14 services under the four Table IV design points and the
 * three Sec. V-A1 RPU variants, hashed and compared against constants.
 *
 * The event-driven gate compares two loop modes of one build, so a
 * change to the fetch/issue/commit stages or the memory path that both
 * modes share moves both sides together and still passes. These
 * constants pin the model's output itself: a speed-only change to the
 * core must leave every one of them unchanged. They were recorded once
 * and must not be edited to make a change pass; a deliberate model
 * change re-records them in its own commit and says why.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "cells.h"
#include "golden_hash.h"

using namespace simr;
using namespace simr::core;

namespace
{

constexpr int kRequests = 16;

using golden::Fnv;

/** Hash of every modelled field; skip counters are loop diagnostics. */
uint64_t
hashResult(const CoreResult &r)
{
    Fnv f;
    f.add(r.configName);
    f.add(r.freqGhz);
    for (uint64_t v : {r.cycles, r.batchOps, r.scalarInsts, r.requests})
        f.add(v);
    f.add(r.reqLatency.count());
    for (double s : r.reqLatency.sorted())
        f.add(s);
    for (const auto &[name, count] : r.counters.all()) {
        f.add(name);
        f.add(count);
    }
    for (uint64_t v : {r.l1Stats.accesses, r.l1Stats.misses,
                       r.l1Stats.storeAccesses, r.l1Stats.writebacks})
        f.add(v);
    for (uint64_t v : {r.mcuStats.batchMemInsts, r.mcuStats.laneAccesses,
                       r.mcuStats.generatedAccesses, r.mcuStats.sameWord,
                       r.mcuStats.stackCoalesced, r.mcuStats.consecutive,
                       r.mcuStats.divergent})
        f.add(v);
    for (uint64_t v : {r.hierStats.l1BankConflictCycles,
                       r.hierStats.mshrMerges, r.hierStats.atomicsAtL3,
                       r.hierStats.totalAccesses, r.hierStats.totalLatency})
        f.add(v);
    for (uint64_t v : {r.tlbStats.lookups, r.tlbStats.misses})
        f.add(v);
    for (uint64_t v : {r.bpStats.lookups, r.bpStats.mispredicts,
                       r.bpStats.majorityVotes,
                       r.bpStats.minorityLaneFlushes})
        f.add(v);
    return f.value();
}

constexpr size_t kNumVariants = 7;
constexpr size_t kNumServices = 14;

/** Recorded per design point (rows, in bench::designPoints() order)
 *  and per service (columns, in svc::serviceNames() order). */
constexpr uint64_t kGolden[kNumVariants][kNumServices] = {
    {  // cpu
        0xeeef22ba1bd4255eULL,
        0x7439e854ac5a79adULL,
        0x0bc830112fc3c2e1ULL,
        0x09e952de738887fbULL,
        0x25ffbb54304eb45fULL,
        0x5fe9e18832c6f12bULL,
        0xd383e705b1089cb7ULL,
        0xffd7fcc59205562bULL,
        0xc5a94246029dcdeaULL,
        0x72d7a2047a4a8642ULL,
        0xa14997e4671f821eULL,
        0x6b0575c9c2b212e3ULL,
        0x79245974fe4407c7ULL,
        0x9581373129b86b38ULL,
    },
    {  // cpu-smt8
        0x4351fab909fb1550ULL,
        0x89c411634a7594c2ULL,
        0x5e8a58bd23943c38ULL,
        0x0e1ece12f00a3582ULL,
        0x0cc30cc88ca51979ULL,
        0xc79a4800743a1d5dULL,
        0x50d196fca8b9dd51ULL,
        0x739efe17398b32e2ULL,
        0x631eadd9f2b8c885ULL,
        0x4b3c76ace2f60914ULL,
        0x4a7282e3d3814192ULL,
        0x9ab8d64e2bbc9725ULL,
        0x46e98361b61683abULL,
        0x1a098d50cd062e4eULL,
    },
    {  // rpu
        0x0b701efb8f2aefb8ULL,
        0xf84af5c2b53ea582ULL,
        0x781970aa14cd2799ULL,
        0x436eab778c0f7bdaULL,
        0xc34440c9f12f0fa1ULL,
        0xda02d564d8695b3fULL,
        0x97794eefbe5b29c7ULL,
        0xb29f8328c60f8120ULL,
        0x25285fda328a31e1ULL,
        0x4c52c2fc19bcdc58ULL,
        0x8eedeebab349015fULL,
        0xc9dbc95801414969ULL,
        0x87876452064aa2a6ULL,
        0x5e65d4b9f96dcb30ULL,
    },
    {  // gpu
        0x1678c614be576279ULL,
        0x21f1b476942449deULL,
        0x320199d9e72eb6efULL,
        0x4f6f55e985e74e01ULL,
        0x986a790c8c1ebc0cULL,
        0x5ffd407cacbfcb8fULL,
        0x2805b8eea38869d2ULL,
        0x1f67e717373f1291ULL,
        0xc2225fe592d4b25fULL,
        0x88eb88d1a2fe4f11ULL,
        0xfd3a3bbc84522e2eULL,
        0xa33976fee44bc6b1ULL,
        0x2873541e1acd9daeULL,
        0x2fbd93cc1e2451f3ULL,
    },
    {  // rpu-lanes32
        0xe09313a983b5e05dULL,
        0x0b242a3d23e6250aULL,
        0x428c43e6a5fd89a6ULL,
        0x436eab778c0f7bdaULL,
        0x0285b5c3c2734bc5ULL,
        0xda02d564d8695b3fULL,
        0xb57e6557e812544eULL,
        0x5b0b5a91738c6714ULL,
        0x25285fda328a31e1ULL,
        0x93f590f796c41f97ULL,
        0x2cba06d04868e963ULL,
        0xe087d749927383d1ULL,
        0x87876452064aa2a6ULL,
        0xdae44cc6356dfa99ULL,
    },
    {  // rpu-atomics-l1
        0x0b701efb8f2aefb8ULL,
        0x9d8641859df00cbfULL,
        0x781970aa14cd2799ULL,
        0x436eab778c0f7bdaULL,
        0xc34440c9f12f0fa1ULL,
        0xda02d564d8695b3fULL,
        0x97794eefbe5b29c7ULL,
        0xb29f8328c60f8120ULL,
        0x5c117989faf9d013ULL,
        0x4c52c2fc19bcdc58ULL,
        0x83959fa1f1499e1bULL,
        0x54e7975070e47fe2ULL,
        0xfd7bc2a649d33cf6ULL,
        0x5b8ea04f8d502301ULL,
    },
    {  // rpu-lane0-bp
        0x5b56218048d18972ULL,
        0x50a10ef12640d76dULL,
        0x86df94bbe2b52cceULL,
        0x3e18cada95d94f00ULL,
        0x0c74477fb5a268ffULL,
        0xa5883951a6cb6839ULL,
        0x61a8f02abbc62231ULL,
        0x3158f7e875729642ULL,
        0x5bd9376b682f9569ULL,
        0x5f29b03f680b24c6ULL,
        0x042c2818a700db12ULL,
        0xa0c18a0304313f3fULL,
        0xc667ef62da9532e5ULL,
        0xc770ea0689515af8ULL,
    },
};

} // namespace

TEST(CoreGolden, EveryModelledFieldMatchesRecordedHashes)
{
    const auto &names = svc::serviceNames();
    const auto vars = bench::designPoints();
    ASSERT_EQ(names.size(), kNumServices);
    ASSERT_EQ(vars.size(), kNumVariants);

    TimingOptions opt;
    opt.requests = kRequests;
    uint64_t got[kNumVariants][kNumServices] = {};
    for (size_t s = 0; s < kNumServices; ++s) {
        auto svc = svc::buildService(names[s]);
        for (size_t v = 0; v < kNumVariants; ++v) {
            const TimingRun run = runTiming(*svc, vars[v].cfg, opt);
            ASSERT_EQ(run.core.requests, static_cast<uint64_t>(kRequests))
                << names[s] << "/" << vars[v].label;
            got[v][s] = hashResult(run.core);
        }
    }

    bool all = true;
    for (size_t v = 0; v < kNumVariants; ++v)
        for (size_t s = 0; s < kNumServices; ++s) {
            EXPECT_EQ(got[v][s], kGolden[v][s])
                << names[s] << "/" << vars[v].label;
            all = all && got[v][s] == kGolden[v][s];
        }
    if (!all) {
        std::printf("measured hashes:\n");
        for (size_t v = 0; v < kNumVariants; ++v) {
            std::printf("    {  // %s\n", vars[v].label);
            for (size_t s = 0; s < kNumServices; ++s)
                std::printf("        0x%016" PRIx64 "ULL,\n", got[v][s]);
            std::printf("    },\n");
        }
    }
}
