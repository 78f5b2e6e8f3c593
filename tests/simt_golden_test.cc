/**
 * @file
 * Golden fixture for the lockstep SIMT engine: every field of every
 * DynOp the engine emits and every modelled SimtStats field, hashed per
 * cell and compared against constants.
 *
 * trace_replay_gate compares the engine with itself (live vs replayed
 * lanes), and simt_test compares per-thread streams, which no
 * scheduling order changes. These constants pin the batch stream
 * itself: which lanes run together, in which order, with which masks,
 * dependences and addresses. A speed-only change to the scheduler or
 * the interpreter must leave every one of them unchanged. They were
 * recorded once and must not be edited to make a change pass; a
 * deliberate model change re-records them in its own commit and says
 * why.
 *
 * Cells, every service each:
 *  - the four SIMT-efficiency points of a cold reproduction (Figs. 4
 *    and 11): naive and per-API batching under MinSP-PC, per-API+arg
 *    batching under stack-IPDOM and MinSP-PC, 32 wide;
 *  - MinSP-PC at widths 8 and 4, the Fig. 15 cache-study shapes;
 *  - an RPU-shaped engine drained twice over one TraceCache; the warm
 *    drain mixes replaying lanes with lane-major batch-kernel batches.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <memory>
#include <vector>

#include "analysis/cache.h"
#include "golden_hash.h"
#include "simr/runner.h"
#include "trace/compile.h"

using namespace simr;
using golden::Fnv;
using simt::ReconvPolicy;

namespace
{

constexpr int kRequests = 75;
constexpr uint64_t kSeed = 1;
constexpr size_t kNumServices = 14;

struct Point
{
    const char *label;
    batch::Policy policy;
    ReconvPolicy reconv;
    int width;
};

/** The efficiency grid, 32 wide. */
constexpr Point kEffPoints[] = {
    {"naive/minsp", batch::Policy::Naive, ReconvPolicy::MinSpPc, 32},
    {"per-api/minsp", batch::Policy::PerApi, ReconvPolicy::MinSpPc, 32},
    {"per-api-arg/stack", batch::Policy::PerApiArgSize,
     ReconvPolicy::StackIpdom, 32},
    {"per-api-arg/minsp", batch::Policy::PerApiArgSize,
     ReconvPolicy::MinSpPc, 32},
};
constexpr size_t kNumEff = std::size(kEffPoints);

/** The narrow cache-study shapes. */
constexpr Point kStudyPoints[] = {
    {"study/8", batch::Policy::PerApiArgSize, ReconvPolicy::MinSpPc, 8},
    {"study/4", batch::Policy::PerApiArgSize, ReconvPolicy::MinSpPc, 4},
};
constexpr size_t kNumStudy = std::size(kStudyPoints);

/** What one drain produced, beyond its hash. */
struct Drain
{
    uint64_t hash = 0;
    simt::SimtStats stats;
    trace::ReuseStats reuse;
};

/**
 * Drain `e`, hashing every DynOp field (the lane/addr arrays up to
 * addrCount, the static instruction as its flat index after checking
 * the pointer), every SimtStats field but the exposition-only
 * hintedKernelBatches, and the completed-request count.
 */
Drain
drainHashed(simt::LockstepEngine &e, const isa::Program &prog)
{
    const trace::ProgramIndex pi(prog);
    Fnv f;
    trace::DynOp op;
    while (e.next(op)) {
        const uint32_t flat = pi.flatOf(op.pc);
        EXPECT_EQ(op.si, pi.inst(flat)) << "static inst does not match pc";
        f.add(static_cast<uint64_t>(flat));
        f.add(static_cast<uint64_t>(op.pc));
        f.add(static_cast<uint64_t>(op.mask));
        f.add(static_cast<uint64_t>(op.takenMask));
        f.add(static_cast<uint64_t>(op.callDepth));
        f.add(static_cast<uint64_t>(op.dep1));
        f.add(static_cast<uint64_t>(op.dep2));
        f.add(static_cast<uint64_t>(op.accessSize));
        f.add(static_cast<uint64_t>(op.addrCount));
        for (uint8_t i = 0; i < op.addrCount; ++i) {
            f.add(static_cast<uint64_t>(op.lane[i]));
            f.add(op.addr[i]);
        }
        f.add(static_cast<uint64_t>(op.pathSwitch));
        f.add(static_cast<uint64_t>(op.endMask));
        f.add(static_cast<uint64_t>(op.batchStart));
    }
    const simt::SimtStats &s = e.stats();
    for (uint64_t v : {s.batchOps, s.scalarOps, s.maskedSlots,
                       s.divergeEvents, s.reconvMerges, s.pathSwitches,
                       s.spinEscapes, s.batches, s.hintViolations,
                       static_cast<uint64_t>(s.width),
                       e.requestsCompleted()})
        f.add(v);
    return {f.value(), s, e.reuseStats()};
}

/** One engine over `svc`'s requests, batched like the runner does. */
std::unique_ptr<simt::LockstepEngine>
makeEngine(const svc::Service &svc, const Point &p,
           trace::TraceCache *cache = nullptr)
{
    auto reqs = genRequests(svc, kRequests, kSeed);
    batch::BatchingServer server(p.policy, p.width);
    auto e = std::make_unique<simt::LockstepEngine>(
        svc.program(), p.reconv, p.width,
        makeBatchProvider(svc, server.formBatches(reqs)),
        simt::SpinEscapeConfig(), cache);
    e->setStaticProof(analysis::gateAndProve(svc.program())->proof);
    return e;
}

/** Recorded per point (rows) and per service (columns, in
 *  svc::serviceNames() order). */
constexpr uint64_t kGoldenEff[kNumEff][kNumServices] = {
    {  // naive/minsp
        0x36de08a98dc4d65dULL,
        0x1ea7b2d2f8db736fULL,
        0x1c03579f39af1befULL,
        0x2bed6010e4e61cc6ULL,
        0x800c18fc16bb65e2ULL,
        0x07e033b68ae9f503ULL,
        0xfdafcbea307042e8ULL,
        0x38f13b1b19607258ULL,
        0xad5c59f7701c3100ULL,
        0xa10798ec77ae8104ULL,
        0x4db01dfdb041f06dULL,
        0x44b7100a295ec305ULL,
        0x8f873135491b17bbULL,
        0x764465063edb0a6cULL,
    },
    {  // per-api/minsp
        0x36de08a98dc4d65dULL,
        0xdbf8dfc14c37f779ULL,
        0x1c03579f39af1befULL,
        0x2bed6010e4e61cc6ULL,
        0x800c18fc16bb65e2ULL,
        0x07e033b68ae9f503ULL,
        0xfdafcbea307042e8ULL,
        0x38f13b1b19607258ULL,
        0x63479493532f3157ULL,
        0xa10798ec77ae8104ULL,
        0xb1c6f2105efdb842ULL,
        0x44b7100a295ec305ULL,
        0x2e3e7540c6b41fb5ULL,
        0x586b19c177d0c16bULL,
    },
    {  // per-api-arg/stack
        0xd77d80b6c91665e0ULL,
        0x5aa94b8e59d308c3ULL,
        0xf81641662c684bbeULL,
        0x608d35a7f52277feULL,
        0xd17c6b63634694c1ULL,
        0xbb95104325d7f347ULL,
        0x7cf0576f0c72571dULL,
        0xa1097333a2fda3e0ULL,
        0x09d8f69977be36fdULL,
        0xb2f71628f8e5b0c1ULL,
        0x1b7b7b4ae5e4c47dULL,
        0x44b7100a295ec305ULL,
        0xd5cd8cd59325d63aULL,
        0xadb16e2f59d4b838ULL,
    },
    {  // per-api-arg/minsp
        0x99d8d523455d27bfULL,
        0xa04587452c724747ULL,
        0x318ac3b04bfc6306ULL,
        0x4fd437b0c02abbd9ULL,
        0x6eff7ab3089196b6ULL,
        0xfb5c91f1ed69c46fULL,
        0x837f5357eab76147ULL,
        0xb4bec2c9850bbf76ULL,
        0x80f465c9a8bb5031ULL,
        0x0f812f0c41a27e66ULL,
        0x22002611b10f6482ULL,
        0x44b7100a295ec305ULL,
        0xa753cc614b15d7efULL,
        0x257767a3813270d5ULL,
    },
};
constexpr uint64_t kGoldenStudy[kNumStudy][kNumServices] = {
    {  // study/8
        0x506e3b68d5eccde4ULL,
        0x0be2df34be090b8eULL,
        0xee886f14ff0ef4a7ULL,
        0xad0e618f266d1242ULL,
        0x3a218c62b120e5c0ULL,
        0x71012ce6b4c04b60ULL,
        0x00ab9356e03384b8ULL,
        0x616220c7347cf611ULL,
        0xf5533f9792771c89ULL,
        0xa6d0c9c406cae835ULL,
        0x3c25f62d085f0462ULL,
        0x22b42a8af8aa92cbULL,
        0x3c2a1201281180a4ULL,
        0x1d3d41df0b3ebd6aULL,
    },
    {  // study/4
        0x8b11686042d4a988ULL,
        0xa69ad5d20b5927bfULL,
        0x2bef614c100179ceULL,
        0xd57343bbb9ec3bf5ULL,
        0x009da8e4378a5933ULL,
        0xb4ea7d144be4f6a3ULL,
        0x95dd16501188babcULL,
        0x36e4ea01c1954decULL,
        0xe7c8f829f04f070cULL,
        0xc64d35cda7f078d5ULL,
        0x98ab33b425af58f4ULL,
        0xec19d5d01d5335d5ULL,
        0x0ed46a89c0e1bf52ULL,
        0x2ab90484c6dfdaa0ULL,
    },
};
/** The warm RPU-shaped drain, per service. */
constexpr uint64_t kGoldenWarm[kNumServices] = {
    0x99d8d523455d27bfULL,
    0xa04587452c724747ULL,
    0x318ac3b04bfc6306ULL,
    0xad0e618f266d1242ULL,
    0x6eff7ab3089196b6ULL,
    0x71012ce6b4c04b60ULL,
    0x837f5357eab76147ULL,
    0xb4bec2c9850bbf76ULL,
    0x80f465c9a8bb5031ULL,
    0x0f812f0c41a27e66ULL,
    0x22002611b10f6482ULL,
    0x44b7100a295ec305ULL,
    0xa753cc614b15d7efULL,
    0x257767a3813270d5ULL,
};

void
printRow(const char *label, const uint64_t *row)
{
    std::printf("    {  // %s\n", label);
    for (size_t s = 0; s < kNumServices; ++s)
        std::printf("        0x%016" PRIx64 "ULL,\n", row[s]);
    std::printf("    },\n");
}

} // namespace

TEST(SimtGolden, EveryEmittedOpMatchesRecordedHashes)
{
    const auto &names = svc::serviceNames();
    ASSERT_EQ(names.size(), kNumServices);

    uint64_t eff[kNumEff][kNumServices] = {};
    uint64_t study[kNumStudy][kNumServices] = {};
    uint64_t warm[kNumServices] = {};
    simt::SimtStats total;
    uint64_t naiveEscapes = 0;
    uint64_t replayHits = 0;
    uint64_t kernelOps = 0;

    for (size_t s = 0; s < kNumServices; ++s) {
        auto svc = svc::buildService(names[s]);
        for (size_t p = 0; p < kNumEff; ++p) {
            auto e = makeEngine(*svc, kEffPoints[p]);
            const Drain d = drainHashed(*e, svc->program());
            ASSERT_EQ(e->requestsCompleted(),
                      static_cast<uint64_t>(kRequests))
                << names[s] << "/" << kEffPoints[p].label;
            eff[p][s] = d.hash;
            total += d.stats;
            if (kEffPoints[p].policy == batch::Policy::Naive)
                naiveEscapes += d.stats.spinEscapes;
        }
        for (size_t p = 0; p < kNumStudy; ++p) {
            auto e = makeEngine(*svc, kStudyPoints[p]);
            const Drain d = drainHashed(*e, svc->program());
            study[p][s] = d.hash;
            total += d.stats;
        }

        // RPU shape: the tuned batch, capped at the RPU's batch width.
        const Point rpu{"rpu", batch::Policy::PerApiArgSize,
                        ReconvPolicy::MinSpPc,
                        std::min(core::makeRpuConfig().batchWidth,
                                 svc->traits().tunedBatch)};
        trace::TraceCache cache;
        auto cold = makeEngine(*svc, rpu, &cache);
        const Drain c = drainHashed(*cold, svc->program());
        const uint64_t ops0 = trace::compileCounters().compiledOps;
        auto hot = makeEngine(*svc, rpu, &cache);
        const Drain w = drainHashed(*hot, svc->program());
        kernelOps += trace::compileCounters().compiledOps - ops0;
        replayHits += w.reuse.hits;
        EXPECT_EQ(w.hash, c.hash)
            << names[s] << ": warm drain differs from the cold one";
        warm[s] = w.hash;
    }

    // A fixture that never exercised the scheduler's rules pins nothing.
    EXPECT_GT(naiveEscapes, 0u);
    EXPECT_GT(total.spinEscapes, 0u);
    EXPECT_GT(total.reconvMerges, 0u);
    EXPECT_GT(total.pathSwitches, 0u);
    EXPECT_GT(total.divergeEvents, 0u);
    EXPECT_EQ(total.hintViolations, 0u);
    EXPECT_GT(replayHits, 0u) << "warm drain replayed no lane";
    EXPECT_GT(kernelOps, 0u) << "warm drain ran no batch-kernel batch";

    bool all = true;
    for (size_t s = 0; s < kNumServices; ++s) {
        for (size_t p = 0; p < kNumEff; ++p) {
            EXPECT_EQ(eff[p][s], kGoldenEff[p][s])
                << names[s] << "/" << kEffPoints[p].label;
            all = all && eff[p][s] == kGoldenEff[p][s];
        }
        for (size_t p = 0; p < kNumStudy; ++p) {
            EXPECT_EQ(study[p][s], kGoldenStudy[p][s])
                << names[s] << "/" << kStudyPoints[p].label;
            all = all && study[p][s] == kGoldenStudy[p][s];
        }
        EXPECT_EQ(warm[s], kGoldenWarm[s]) << names[s] << "/rpu warm";
        all = all && warm[s] == kGoldenWarm[s];
    }
    if (!all) {
        std::printf("measured hashes (naive/minsp spin escapes: %" PRIu64
                    "):\n", naiveEscapes);
        for (size_t p = 0; p < kNumEff; ++p)
            printRow(kEffPoints[p].label, eff[p]);
        for (size_t p = 0; p < kNumStudy; ++p)
            printRow(kStudyPoints[p].label, study[p]);
        printRow("rpu warm", warm);
    }
}
