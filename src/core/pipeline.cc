#include "core/pipeline.h"

#include <algorithm>

#include "common/logging.h"
#include "core/counters.h"

namespace simr::core
{

using trace::DynOp;

namespace
{

/** CounterSet names of the StallKind scratch slots, in enum order. */
constexpr const char *kStallNames[] = {
    "stall.dep",       // kStallDep
    "stall.lsq",       // kStallLsq
    "stall.port",      // kStallPort
    "stall.fe_branch", // kStallFeBranch
    "stall.fe_refill", // kStallFeRefill
    "stall.rob_full",  // kStallRobFull
};

/** CounterSet names of the HotCtr slots, in enum order. */
constexpr const char *kHotNames[] = {
    ctr::kFetch,            // kHotFetch
    ctr::kDecode,           // kHotDecode
    ctr::kRename,           // kHotRename
    ctr::kRobWrite,         // kHotRobWrite
    ctr::kSimtSelect,       // kHotSimtSelect
    ctr::kPathSwitch,       // kHotPathSwitch
    ctr::kBpLookup,         // kHotBpLookup
    ctr::kBpMispredict,     // kHotBpMispredict
    "frontend.icache_miss", // kHotIcacheMiss
    ctr::kIqWakeup,         // kHotIqWakeup
    ctr::kRegRead,          // kHotRegRead
    ctr::kRegWrite,         // kHotRegWrite
    ctr::kIntOps,           // kHotIntOps
    ctr::kMulOps,           // kHotMulOps
    ctr::kDivOps,           // kHotDivOps
    ctr::kFpOps,            // kHotFpOps
    ctr::kSimdOps,          // kHotSimdOps
    ctr::kBranchOps,        // kHotBranchOps
    ctr::kSyscalls,         // kHotSyscalls
    ctr::kLsqInsert,        // kHotLsqInsert
    ctr::kMcuInsts,         // kHotMcuInsts
    ctr::kRobCommit,        // kHotRobCommit
};

/** Set bits of x; SWAR, as the portable build has no POPCNT. */
inline uint64_t
popcount64(uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return (x * 0x0101010101010101ULL) >> 56;
}

/** Bits of word `wi` that fall in [lo, hi); lo < hi. */
inline uint64_t
rangeBits(size_t wi, size_t lo, size_t hi)
{
    uint64_t m = ~0ULL;
    if (wi == lo >> 6)
        m &= ~0ULL << (lo & 63);
    if (wi == (hi - 1) >> 6 && (hi & 63) != 0)
        m &= (1ULL << (hi & 63)) - 1;
    return m;
}

/** Position of the n-th (n >= 1) set bit of x, which has at least n. */
inline size_t
selectBit(uint64_t x, uint64_t n)
{
    size_t pos = 0;
    for (unsigned half = 32; half > 0; half >>= 1) {
        uint64_t low = x & ((1ULL << half) - 1);
        uint64_t c = popcount64(low);
        if (n > c) {
            n -= c;
            x >>= half;
            pos += half;
        } else {
            x = low;
        }
    }
    return pos;
}

} // namespace

void
TimingCore::SlotMask::takeFrom(SlotMask &o)
{
    for (size_t i = 0; i < w_.size(); ++i) {
        w_[i] |= o.w_[i];
        o.w_[i] = 0;
    }
}

uint64_t
TimingCore::SlotMask::count(size_t lo, size_t hi) const
{
    uint64_t n = 0;
    for (size_t wi = lo >> 6; lo < hi && (wi << 6) < hi; ++wi)
        n += popcount64(w_[wi] & rangeBits(wi, lo, hi));
    return n;
}

uint64_t
TimingCore::SlotMask::countAndNot(const SlotMask &o, size_t lo,
                                  size_t hi) const
{
    uint64_t n = 0;
    for (size_t wi = lo >> 6; lo < hi && (wi << 6) < hi; ++wi)
        n += popcount64(w_[wi] & ~o.w_[wi] & rangeBits(wi, lo, hi));
    return n;
}

size_t
TimingCore::SlotMask::select(size_t lo, uint64_t n) const
{
    size_t wi = lo >> 6;
    uint64_t x = w_[wi] & (~0ULL << (lo & 63));
    for (uint64_t c = popcount64(x); n > c; c = popcount64(x)) {
        n -= c;
        x = w_[++wi];
    }
    return (wi << 6) + selectBit(x, n);
}

TimingCore::TimingCore(const CoreConfig &cfg)
    : cfg_(cfg),
      map_(cfg.stackInterleave, cfg.batchWidth),
      mcu_(map_, cfg.mem.l1.lineBytes),
      hier_(cfg.mem, map_)
{
    static_assert(sizeof(RobEntry) == 64,
                  "the ROB header should fill exactly one cache line");
    cfg_.validate();
    rob_.resize(static_cast<size_t>(cfg_.robEntries));
    payload_.resize(rob_.size());
    size_t ring = 1;
    while (ring < rob_.size())
        ring *= 2;
    seqMask_ = ring - 1;
    waiting_.init(rob_.size());
    ready_.init(rob_.size());
    nextReady_.init(rob_.size());
    inOrderNext_.init(rob_.size());
    intPorts_.assign(static_cast<size_t>(cfg_.intAluPorts), 0);
    mulPorts_.assign(static_cast<size_t>(cfg_.mulDivPorts), 0);
    simdPorts_.assign(static_cast<size_t>(cfg_.simdPorts), 0);
    memPorts_.assign(static_cast<size_t>(cfg_.memPorts), 0);
    brPorts_.assign(static_cast<size_t>(cfg_.branchPorts), 0);
    fpPorts_.assign(static_cast<size_t>(cfg_.simdPorts), 0);
    // The MCU emits at most one access per lane, plus one for a
    // straddling scalar access; reserving up front keeps the per-op
    // coalesce path allocation-free.
    scratchAccesses_.reserve(
        static_cast<size_t>(std::max(cfg_.batchWidth, 2)) + 1);
}

TimingCore::~TimingCore() = default;

bool
TimingCore::allDrained() const
{
    if (robCount_ != 0)
        return false;
    for (const auto &s : streams_)
        if (!s.exhausted)
            return false;
    return true;
}

bool
TimingCore::claimPort(uint64_t cycle, isa::FuClass fu, uint32_t occupancy)
{
    std::vector<uint64_t> *ports = nullptr;
    switch (fu) {
      case isa::FuClass::IntAlu: ports = &intPorts_; break;
      case isa::FuClass::IntMul:
      case isa::FuClass::IntDiv: ports = &mulPorts_; break;
      case isa::FuClass::FpAlu: ports = &fpPorts_; break;
      case isa::FuClass::SimdUnit: ports = &simdPorts_; break;
      case isa::FuClass::LoadStore: ports = &memPorts_; break;
      case isa::FuClass::BranchUnit: ports = &brPorts_; break;
      case isa::FuClass::SysUnit: ports = &brPorts_; break;
      case isa::FuClass::None: return true;
    }
    uint64_t soonest = UINT64_MAX;
    for (auto &free_at : *ports) {
        if (free_at <= cycle) {
            free_at = cycle + occupancy;
            return true;
        }
        soonest = std::min(soonest, free_at);
    }
    // Port-starved: remember when this class frees up so the
    // event-driven loop knows the next cycle issue can make progress.
    portNextFree_ = std::min(portNextFree_, soonest);
    return false;
}

void
TimingCore::stallRef(StallKind k, uint64_t n)
{
    res_.counters.add(kStallNames[k], n);
}

void
TimingCore::hotRef(HotCtr k, uint64_t n)
{
    res_.counters.add(kHotNames[k], n);
}

uint32_t
TimingCore::executeAt(uint64_t cycle, const RobEntry &e, size_t slot)
{
    const uint64_t active = e.active;

    switch (e.op) {
      case isa::Op::IAlu:
        hot(kHotIntOps, active);
        return static_cast<uint32_t>(e.complexAlu ? cfg_.complexAluLat
                                                  : cfg_.aluLat);
      case isa::Op::IMul:
        hot(kHotMulOps, active);
        return static_cast<uint32_t>(cfg_.mulLat);
      case isa::Op::IDiv:
        hot(kHotDivOps, active);
        return static_cast<uint32_t>(cfg_.divLat);
      case isa::Op::FAlu:
        hot(kHotFpOps, active);
        return static_cast<uint32_t>(cfg_.faluLat);
      case isa::Op::Simd:
        hot(kHotSimdOps, active);
        return static_cast<uint32_t>(cfg_.simdLat);
      case isa::Op::Branch:
      case isa::Op::Jump:
      case isa::Op::Call:
      case isa::Op::Ret:
        hot(kHotBranchOps, active);
        return static_cast<uint32_t>(cfg_.branchLat);
      case isa::Op::Syscall:
        hot(kHotSyscalls, active);
        return static_cast<uint32_t>(cfg_.syscallLat);
      case isa::Op::Fence:
      case isa::Op::Nop:
        return 1;
      case isa::Op::Load:
      case isa::Op::Store:
      case isa::Op::Atomic: {
        hot(kHotLsqInsert);
        hot(kHotMcuInsts);
        mem::CoalesceKind kind =
            mcu_.coalesce(payload_[slot], scratchAccesses_);
        uint32_t lat = hier_.accessGroup(cycle, scratchAccesses_, kind);
        memInFlight_.push(cycle + lat);
        if (e.op == isa::Op::Store) {
            // Stores retire through the store buffer; latency is hidden
            // from the dependence chain.
            return 1;
        }
        return lat;
      }
      default:
        simr_panic("unhandled op in executeAt");
    }
}

void
TimingCore::schedule(size_t slot, uint64_t ready_at, uint64_t cycle)
{
    if (ready_at <= cycle + 1) {
        nextReady_.set(slot);
        ++nextReadyCount_;
    } else {
        wakeups_.push({ready_at, static_cast<uint32_t>(slot)});
    }
}

bool
TimingCore::ringDepReady(const StreamCtx &s, uint64_t seq, uint16_t dep,
                         uint64_t cycle) const
{
    if (!hasDep(seq, dep))
        return true;
    // The latest fetched op of the producer's residue. In flight spans
    // at most one partition <= kMaxDepDistance ops, so it is the
    // producer or the one op a horizon younger.
    uint64_t p = seq - dep;
    if (s.fetchedSeq - p >= kMaxDepDistance)
        p += kMaxDepDistance;
    if (p <= s.committedSeq)
        return true;  // retired, so complete before this cycle
    return rob_[s.slotOf[p & seqMask_]].doneCycle <= cycle;
}

void
TimingCore::linkProducers(const DynOp &op, size_t slot, StreamCtx &s,
                          uint64_t cycle)
{
    RobEntry &e = rob_[slot];
    e.readyAt = 0;
    e.pending = 0;
    const uint16_t deps[2] = {op.dep1, op.dep2};
    for (int k = 0; k < 2; ++k) {
        const uint16_t dep = deps[k];
        e.wakeNext[k] = -1;
        if (!hasDep(e.seq, dep))
            continue;
        const uint64_t pseq = e.seq - dep;
        if (pseq <= s.committedSeq)
            continue;  // retired, so complete before this cycle
        RobEntry &p = rob_[s.slotOf[pseq & seqMask_]];
        if (p.doneCycle != kNotIssued) {
            e.readyAt = std::max(e.readyAt, p.doneCycle);
            continue;
        }
        e.wakeNext[k] = p.wakeHead;
        p.wakeHead = static_cast<int32_t>(slot * 2 + static_cast<size_t>(k));
        ++e.pending;
    }
    if (e.pending == 0)
        schedule(slot, e.readyAt, cycle);
}

void
TimingCore::wakeWaiters(RobEntry &p, uint64_t cycle)
{
    for (int32_t node = p.wakeHead; node >= 0;) {
        const size_t slot = static_cast<size_t>(node >> 1);
        RobEntry &d = rob_[slot];
        node = d.wakeNext[node & 1];
        d.readyAt = std::max(d.readyAt, p.doneCycle);
        if (--d.pending == 0)
            schedule(slot, d.readyAt, cycle);
    }
    p.wakeHead = -1;
}

int
TimingCore::fetch(uint64_t cycle)
{
    int budget = cfg_.fetchWidth;
    int n = static_cast<int>(streams_.size());
    // SMT partitions the frontend: each hardware thread gets its slice
    // of the fetch bandwidth per cycle (Table IV: 1-wide per thread at
    // SMT-8), which is what costs SMT its single-thread latency.
    int per_stream = std::max(1, cfg_.fetchWidth / n);
    int fetched = 0;

    for (int i = 0; i < n && budget > 0; ++i) {
        int si = rrCursor_ + i;
        if (si >= n)
            si -= n;
        StreamCtx &s = streams_[static_cast<size_t>(si)];
        int stream_budget = std::min(budget, per_stream);
        while (stream_budget > 0) {
            if (s.exhausted)
                break;
            if (s.waitingBranch || cycle < s.stallUntil) {
                stall(s.waitingBranch ? kStallFeBranch : kStallFeRefill);
                break;
            }
            if (robCount_ >= rob_.size() || s.inFlight() >= partition_) {
                stall(kStallRobFull);
                break;
            }

            DynOp &op = s.pending;
            if (!s.stream->next(op)) {
                s.exhausted = true;
                break;
            }
            if (op.batchStart)
                s.reqStart = cycle;

            // Instruction-supply stalls: fixed-point accumulate the
            // per-fetched-op i-miss rate; on overflow, charge a refill.
            s.icacheAccum += icacheStep_;
            if (s.icacheAccum >= 1000000) {
                s.icacheAccum -= 1000000;
                s.stallUntil = cycle +
                    static_cast<uint64_t>(cfg_.icacheMissPenalty);
                hot(kHotIcacheMiss);
            }

            // Frontend accounting: once per (batch) instruction.
            hot(kHotFetch);
            hot(kHotDecode);
            hot(kHotRename);
            hot(kHotRobWrite);
            if (cfg_.batchWidth > 1) {
                hot(kHotSimtSelect);
                if (op.pathSwitch)
                    hot(kHotPathSwitch);
            }

            bool blocks_fetch = false;
            bool mispred = false;
            if (op.isBranch()) {
                hot(kHotBpLookup);
                if (cfg_.inOrder) {
                    // No speculation: every branch stalls fetch until
                    // it resolves.
                    blocks_fetch = true;
                } else {
                    mispred = s.bpred->predictAndTrain(op);
                    blocks_fetch = mispred;
                }
            }

            size_t slot = robHead_ + robCount_;
            if (slot >= rob_.size())
                slot -= rob_.size();
            RobEntry &e = rob_[slot];
            e.seq = ++s.fetchedSeq;
            e.doneCycle = kNotIssued;
            e.reqStart = s.reqStart;
            e.op = op.si->op;
            e.complexAlu = op.si->alu == isa::AluKind::Mix ||
                op.si->alu == isa::AluKind::ModImm;
            e.endMask = op.endMask;
            e.stream = static_cast<uint16_t>(si);
            e.active = static_cast<uint8_t>(std::max(op.activeLanes(), 1));
            e.mispredicted = blocks_fetch;
            e.wakeHead = -1;
            e.polled = isFarDep(e.seq, op.dep1) || isFarDep(e.seq, op.dep2);
            if (e.polled || isa::opInfo(e.op).isMem)
                payload_[slot].copyFrom(op);
            s.slotOf[e.seq & seqMask_] = static_cast<uint32_t>(slot);
            waiting_.set(slot);
            ++waitingCount_;
            if (e.polled)
                polled_.push_back(slot);
            else
                linkProducers(op, slot, s, cycle);
            ++robCount_;
            --budget;
            --stream_budget;
            ++fetched;

            if (blocks_fetch) {
                s.waitingBranch = true;
                if (mispred)
                    hot(kHotBpMispredict);
                break;
            }
        }
    }
    if (++rrCursor_ == n)
        rrCursor_ = 0;
    return fetched;
}

int
TimingCore::issue(uint64_t cycle)
{
    // Retire completed memory transactions from the LSQ occupancy.
    while (!memInFlight_.empty() && memInFlight_.top() <= cycle)
        memInFlight_.pop();

    // Readiness is settled before the walk: every latency is at least
    // one cycle (CoreConfig::validate), so nothing issued this cycle
    // completes this cycle and no op turns ready mid-walk.
    if (nextReadyCount_ > 0) {
        ready_.takeFrom(nextReady_);
        readyCount_ += nextReadyCount_;
        nextReadyCount_ = 0;
    }
    while (!wakeups_.empty() && wakeups_.top().at <= cycle) {
        ready_.set(wakeups_.top().slot);
        ++readyCount_;
        wakeups_.pop();
    }
    for (size_t slot : polled_) {
        const RobEntry &e = rob_[slot];
        const StreamCtx &s = streams_[e.stream];
        const DynOp &op = payload_[slot];
        const bool now = ringDepReady(s, e.seq, op.dep1, cycle) &&
            ringDepReady(s, e.seq, op.dep2, cycle);
        if (now != ready_.test(slot)) {
            if (now) {
                ready_.set(slot);
                ++readyCount_;
            } else {
                ready_.clear(slot);
                --readyCount_;
            }
        }
    }

    size_t lo[2], hi[2];

    // The scheduling window: the schedWindow oldest un-issued entries,
    // i.e. ages up to just past the schedWindow-th waiting one.
    const size_t window = static_cast<size_t>(cfg_.schedWindow);
    size_t limit = robCount_;
    if (waitingCount_ > window) {
        uint64_t need = window;
        const int nr = ringRanges(robCount_, lo, hi);
        for (int r = 0; r < nr; ++r) {
            const uint64_t c = waiting_.count(lo[r], hi[r]);
            if (need <= c) {
                limit = ageOf(waiting_.select(lo[r], need)) + 1;
                break;
            }
            need -= c;
        }
    }

    // Out of order, the walk visits only the ready entries; in order,
    // only each stream's next op, whose successor joins once it issues.
    // Either way it visits them oldest first, exactly as a scan of the
    // whole window would reach them.
    if (cfg_.inOrder) {
        inOrderNext_.reset();
        for (const StreamCtx &s : streams_) {
            if (s.issuedSeq == s.fetchedSeq)
                continue;
            const size_t slot = s.slotOf[(s.issuedSeq + 1) & seqMask_];
            if (ageOf(slot) < limit)
                inOrderNext_.set(slot);
        }
    }
    const SlotMask &visit = cfg_.inOrder ? inOrderNext_ : ready_;

    int budget = cfg_.issueWidth;
    int issued = 0;
    size_t end = limit;  // ages the scan examined
    const int nr = ringRanges(limit, lo, hi);
    for (int r = 0; r < nr && budget > 0; ++r) {
        for (size_t slot = visit.next(lo[r], hi[r]); slot < hi[r];
             slot = visit.next(slot + 1, hi[r])) {
            RobEntry &e = rob_[slot];
            StreamCtx &s = streams_[e.stream];

            if (cfg_.inOrder && !ready_.test(slot)) {
                stall(kStallDep);  // a stream's blocked next op
                continue;
            }

            const isa::OpInfo &info = isa::opInfo(e.op);
            if (info.isMem && memInFlight_.size() >=
                    static_cast<size_t>(cfg_.lsqEntries)) {
                stall(kStallLsq);
                continue;
            }

            // Sub-batch interleaving: a per-lane computation occupies
            // its FU for ceil(active / lanes) issue slots; inactive
            // lanes are skipped (Fig. 8a). Pure control transfers
            // (handled by the convergence optimizer), fences and memory
            // ops take one slot: the LSQ allocates a single 8-wide row
            // per batch instruction (Fig. 9) and the banked L1 models
            // any access serialization.
            uint32_t occupancy = 1;
            switch (e.op) {
              case isa::Op::IAlu:
              case isa::Op::IMul:
              case isa::Op::IDiv:
              case isa::Op::FAlu:
              case isa::Op::Simd:
              case isa::Op::Branch:
                occupancy = static_cast<uint32_t>(
                    (e.active + cfg_.lanes - 1) / cfg_.lanes);
                break;
              default:
                break;
            }
            if (!claimPort(cycle, info.fu, occupancy)) {
                stall(kStallPort);
                continue;
            }

            uint32_t lat = executeAt(cycle, e, slot);
            e.doneCycle = cycle + occupancy - 1 + lat;
            // A completion at cycle+1 can never bound a skip: the
            // earliest possible no-progress cycle is already cycle+1
            // (this cycle issued something), where that completion is
            // in the past. So single-cycle ops -- the bulk of the mix
            // -- skip the heap.
            if (cfg_.eventDriven && e.doneCycle > cycle + 1)
                completions_.push(e.doneCycle);
            waiting_.clear(slot);
            ready_.clear(slot);
            --waitingCount_;
            --readyCount_;
            if (e.polled) {
                auto it = std::find(polled_.begin(), polled_.end(), slot);
                *it = polled_.back();
                polled_.pop_back();
            }
            wakeWaiters(e, cycle);
            if (cfg_.inOrder) {
                s.issuedSeq = e.seq;
                if (e.seq != s.fetchedSeq) {
                    const size_t next = s.slotOf[(e.seq + 1) & seqMask_];
                    if (ageOf(next) < limit)
                        inOrderNext_.set(next);
                }
            }
            ++issued;
            hot(kHotIqWakeup);

            // Register file activity (per active lane).
            hot(kHotRegRead, 2 * static_cast<uint64_t>(e.active));
            if (info.writesReg)
                hot(kHotRegWrite, e.active);

            if (e.mispredicted) {
                // Fetch resumes after resolution plus the refill depth.
                s.stallUntil = e.doneCycle +
                    static_cast<uint64_t>(cfg_.frontendDepth);
                s.waitingBranch = false;
            }

            if (--budget == 0) {
                end = ageOf(slot) + 1;
                break;
            }
        }
    }

    // Out of order, every un-issued entry the scan reached and found
    // not ready is a dependence stall, counted in bulk. (In order the
    // scan skips all but each stream's next op; those counted above.)
    if (!cfg_.inOrder) {
        uint64_t not_ready = waitingCount_ - readyCount_;
        if (end != robCount_) {
            not_ready = 0;
            const int ne = ringRanges(end, lo, hi);
            for (int r = 0; r < ne; ++r)
                not_ready += waiting_.countAndNot(ready_, lo[r], hi[r]);
        }
        stall(kStallDep, not_ready);
    }
    return issued;
}

int
TimingCore::commit(uint64_t cycle)
{
    int budget = cfg_.commitWidth;
    int committed = 0;
    while (robCount_ > 0 && budget > 0) {
        RobEntry &e = rob_[robHead_];
        if (e.doneCycle > cycle)
            break;  // not issued (kNotIssued) or still executing
        StreamCtx &s = streams_[e.stream];

        hot(kHotRobCommit);
        ++res_.batchOps;
        res_.scalarInsts += e.active;

        if (e.endMask) {
            int ended = trace::popcount(e.endMask);
            res_.reqLatency.addN(static_cast<double>(cycle - e.reqStart),
                                 static_cast<uint64_t>(ended));
            res_.requests += static_cast<uint64_t>(ended);
        }

        s.committedSeq = e.seq;
        if (++robHead_ == rob_.size())
            robHead_ = 0;
        --robCount_;
        --budget;
        ++committed;
    }
    return committed;
}

uint64_t
TimingCore::nextEventCycle(uint64_t cycle)
{
    uint64_t next = UINT64_MAX;

    // Completion of an issued, in-flight op: wakes its dependents and,
    // at the ROB head, the committer. Un-issued entries cannot change
    // state before one of the other events fires first. The heap is
    // lazy: drop heads that already completed (their event is in the
    // past, and the clock is monotone, so they can never matter again).
    while (!completions_.empty() && completions_.top() <= cycle)
        completions_.pop();
    if (!completions_.empty())
        next = completions_.top();

    // Frontend refill expiry re-enables fetch. A stream parked on an
    // unresolved branch ignores its stallUntil (resolution happens at
    // issue, which one of the other events gates).
    for (const auto &s : streams_) {
        if (!s.exhausted && !s.waitingBranch && s.stallUntil > cycle)
            next = std::min(next, s.stallUntil);
    }

    // LSQ drain matters only when something stalled on a full LSQ this
    // cycle; the head of memInFlight_ is the first retirement.
    if (cycleStalls_[kStallLsq] > 0 && !memInFlight_.empty())
        next = std::min(next, memInFlight_.top());

    // FU-port release matters only when something port-starved this
    // cycle; claimPort recorded the earliest release among those FUs.
    if (cycleStalls_[kStallPort] > 0)
        next = std::min(next, portNextFree_);

    return next;
}

CoreResult
TimingCore::run(const std::vector<trace::DynStream *> &streams,
                uint64_t max_cycles)
{
    simr_assert(!streams.empty(), "no streams attached");
    simr_assert(cfg_.smtThreads == static_cast<int>(streams.size()),
                "stream count must equal the SMT degree");

    res_ = CoreResult();
    res_.configName = cfg_.name;
    res_.freqGhz = cfg_.freqGhz;
    hier_.reset();
    mcu_.resetStats();

    streams_.clear();
    streams_.resize(streams.size());
    for (size_t i = 0; i < streams.size(); ++i) {
        streams_[i].stream = streams[i];
        streams_[i].bpred =
            std::make_unique<BatchBpred>(cfg_.majorityVoteBp);
        streams_[i].slotOf.assign(seqMask_ + 1, 0);
    }
    robHead_ = 0;
    robCount_ = 0;
    rrCursor_ = 0;
    waiting_.reset();
    ready_.reset();
    nextReady_.reset();
    waitingCount_ = 0;
    readyCount_ = 0;
    nextReadyCount_ = 0;
    polled_.clear();
    while (!wakeups_.empty())
        wakeups_.pop();
    partition_ = static_cast<uint64_t>(cfg_.robEntries) / streams_.size();
    // A dependence can alias a younger in-flight op when the producer's
    // horizon twin fits in one ROB partition (see kMaxDepDistance).
    farDep_ = static_cast<uint16_t>(kMaxDepDistance + 1 - partition_);
    {
        // Same expression the per-op path used to evaluate, hoisted:
        // the accumulator step is a run constant.
        double mpki = cfg_.icacheMpki *
            (cfg_.smtThreads > 1 ? cfg_.smtIcacheFactor : 1.0);
        icacheStep_ = static_cast<uint64_t>(mpki * 1000.0);
    }
    std::fill(intPorts_.begin(), intPorts_.end(), 0);
    std::fill(mulPorts_.begin(), mulPorts_.end(), 0);
    std::fill(simdPorts_.begin(), simdPorts_.end(), 0);
    std::fill(memPorts_.begin(), memPorts_.end(), 0);
    std::fill(brPorts_.begin(), brPorts_.end(), 0);
    std::fill(fpPorts_.begin(), fpPorts_.end(), 0);
    while (!memInFlight_.empty())
        memInFlight_.pop();
    while (!completions_.empty())
        completions_.pop();
    std::fill(std::begin(stallTotals_), std::end(stallTotals_), 0);
    std::fill(std::begin(hotCtrs_), std::end(hotCtrs_), 0);

    const uint64_t nstreams = streams_.size();
    uint64_t cycle = 0;
    if (!cfg_.eventDriven) {
        // The per-cycle reference loop: tick every simulated cycle,
        // stall counters recorded straight into the CounterSet as they
        // occur. The determinism gate compares the event-driven loop
        // below against this, so it stays deliberately plain.
        for (; cycle < max_cycles && !allDrained(); ++cycle) {
            commit(cycle);
            issue(cycle);
            fetch(cycle);
        }
    } else {
        while (cycle < max_cycles && !allDrained()) {
            std::fill(std::begin(cycleStalls_), std::end(cycleStalls_),
                      0);
            portNextFree_ = UINT64_MAX;

            int work = commit(cycle);
            work += issue(cycle);
            work += fetch(cycle);

            // Event-driven cycle skipping. A cycle with no commit, no
            // issue and no fetch changes nothing but the clock: every
            // ROB entry keeps its stall reason and every stream its
            // fetch-stall reason until the next event fires
            // (dependence/commit wake-ups are bounded by the earliest
            // doneCycle, LSQ occupancy by memInFlight_'s head, port
            // starvation by the earliest release, refills by
            // stallUntil). So the per-cycle reference loop would
            // re-record exactly this cycle's stall pattern on every
            // skipped cycle -- which is what makes replaying it `span`
            // times bit-identical, including the round-robin cursor
            // advance.
            uint64_t span = 1;
            if (work == 0) {
                uint64_t next = nextEventCycle(cycle);
                if (next <= cycle || next == UINT64_MAX)
                    next = cycle + 1;  // nothing pending: crawl
                next = std::min(next, max_cycles);
                span = next - cycle;
                res_.skippedCycles += span - 1;
                if (span > 1) {
                    ++res_.skipJumps;
                    rrCursor_ = static_cast<int>(
                        (static_cast<uint64_t>(rrCursor_) +
                         (span - 1) % nstreams) % nstreams);
                }
                cycle = next;
            } else {
                ++cycle;
            }
            // stall() already counted this cycle once; replay its
            // pattern over the skipped ones.
            if (span > 1)
                for (int k = 0; k < kNumStallKinds; ++k)
                    stallTotals_[k] += cycleStalls_[k] * (span - 1);
        }
    }
    if (!allDrained())
        simr_warn("core '%s' hit the cycle bound", cfg_.name.c_str());

    res_.cycles = cycle;

    // Totals reach the CounterSet once per run, not once per event; a
    // name appears iff it fired, like direct per-occurrence add().
    for (int k = 0; k < kNumHotCtrs; ++k)
        if (hotCtrs_[k] > 0)
            res_.counters.add(kHotNames[k], hotCtrs_[k]);
    for (int k = 0; k < kNumStallKinds; ++k)
        if (stallTotals_[k] > 0)
            res_.counters.add(kStallNames[k], stallTotals_[k]);

    // Snapshot the memory path and predictor state.
    res_.l1Stats = hier_.l1().stats();
    res_.mcuStats = mcu_.stats();
    res_.hierStats = hier_.stats();
    res_.tlbStats = hier_.tlb().stats();
    for (const auto &s : streams_) {
        res_.bpStats.lookups += s.bpred->stats().lookups;
        res_.bpStats.mispredicts += s.bpred->stats().mispredicts;
        res_.bpStats.majorityVotes += s.bpred->stats().majorityVotes;
        res_.bpStats.minorityLaneFlushes +=
            s.bpred->stats().minorityLaneFlushes;
    }

    auto &c = res_.counters;
    c.add(ctr::kBpMinorityFlush, res_.bpStats.minorityLaneFlushes);
    c.add(ctr::kMajorityVote, res_.bpStats.majorityVotes);
    c.add(ctr::kL1Access, hier_.l1().stats().accesses);
    c.add(ctr::kL1Miss, hier_.l1().stats().misses);
    c.add(ctr::kL2Access, hier_.l2().stats().accesses);
    c.add(ctr::kL2Miss, hier_.l2().stats().misses);
    c.add(ctr::kL3Access, hier_.l3().stats().accesses);
    c.add(ctr::kTlbLookup, hier_.tlb().stats().lookups);
    c.add(ctr::kNocFlitHops, hier_.noc().stats().flitHops);
    c.add(ctr::kDramAccess, hier_.dram().stats().accesses);

    return res_;
}

} // namespace simr::core
