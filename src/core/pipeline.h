/**
 * @file
 * TimingCore: the trace-driven, cycle-level core model.
 *
 * One model covers all four design points of the paper by configuration:
 *
 *  - scalar CPU: 1 stream, 1 lane, OoO;
 *  - SMT-8 CPU: 8 streams share the pipeline, partitioned ROB,
 *    round-robin fetch;
 *  - RPU: 1 batch stream (from the lockstep engine), 8 SIMT lanes with
 *    sub-batch interleaving, MCU + banked L1, majority-voting BP,
 *    longer ALU/branch/L1 latencies (Table IV);
 *  - GPU-like: in-order issue, no speculation, lower clock, longer
 *    memory path.
 *
 * The model is dependency-accurate: an instruction issues when its
 * producers (by dynamic dependency distance) have completed, an FU port
 * is free, and -- in order mode -- all older instructions of its stream
 * have issued. Branch mispredictions stall the fetch of their stream
 * until resolution plus the frontend refill depth. Memory instructions
 * run through the MCU and the cache hierarchy at issue time.
 */

#ifndef SIMR_CORE_PIPELINE_H
#define SIMR_CORE_PIPELINE_H

#include <algorithm>
#include <memory>
#include <queue>
#include <vector>

#include "common/stats.h"
#include "core/bpred.h"
#include "core/config.h"
#include "mem/coalescer.h"
#include "mem/hierarchy.h"
#include "trace/stream.h"

namespace simr::core
{

/** Everything a run produces; inputs to the energy model and figures. */
struct CoreResult
{
    std::string configName;
    double freqGhz = 2.5;
    uint64_t cycles = 0;
    uint64_t batchOps = 0;       ///< (batch) instructions retired
    uint64_t scalarInsts = 0;    ///< lane-level instructions retired
    uint64_t requests = 0;
    Histogram reqLatency;        ///< per-request latency in cycles
    CounterSet counters;

    /**
     * Simulator diagnostics, not reported statistics: how many of
     * `cycles` the event-driven loop jumped over instead of ticking,
     * and in how many jumps. Zero in the per-cycle reference mode --
     * deliberately excluded from the mode-equivalence gate, which
     * compares every *modeled* number above and below this block.
     */
    uint64_t skippedCycles = 0;
    uint64_t skipJumps = 0;

    // Memory-path snapshots for the figures.
    mem::CacheStats l1Stats;
    mem::McuStats mcuStats;
    mem::HierarchyStats hierStats;
    mem::TlbStats tlbStats;
    BpredStats bpStats;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(scalarInsts) /
            static_cast<double>(cycles) : 0.0;
    }

    double
    seconds() const
    {
        return static_cast<double>(cycles) / (freqGhz * 1e9);
    }

    /** Requests/second for one core at the configured clock. */
    double
    throughputPerCore() const
    {
        double s = seconds();
        return s > 0 ? static_cast<double>(requests) / s : 0.0;
    }

    /**
     * Convert a latency measured in this core's cycles to seconds. The
     * single definition of the cycles->seconds conversion: ratios
     * between cores at different clocks must go through this (dividing
     * raw cycle counts compares apples to oranges).
     */
    double
    cyclesToSeconds(double latency_cycles) const
    {
        return latency_cycles / (freqGhz * 1e9);
    }

    /** Mean request latency in seconds. */
    double
    meanLatencySeconds() const
    {
        return cyclesToSeconds(reqLatency.mean());
    }

    /** Mean request latency in microseconds. */
    double
    meanLatencyUs() const
    {
        return meanLatencySeconds() * 1e6;
    }
};

/** The cycle-level core. */
class TimingCore
{
  public:
    explicit TimingCore(const CoreConfig &cfg);
    ~TimingCore();

    /**
     * Run the attached streams to exhaustion.
     * @param streams one stream per hardware thread (1 for CPU/RPU/GPU,
     *        smtThreads for SMT)
     * @param max_cycles safety bound
     */
    CoreResult run(const std::vector<trace::DynStream *> &streams,
                   uint64_t max_cycles = 2000000000ULL);

    const CoreConfig &config() const { return cfg_; }

  private:
    /** doneCycle of an entry that has not issued yet. */
    static constexpr uint64_t kNotIssued = UINT64_MAX;

    /**
     * The dependence horizon: each stream's completion state is a ring
     * of this many ops indexed by seq, so a distance at or beyond it is
     * treated as satisfied, and the slot of seq - dep holds the latest
     * fetched op of that residue -- for a distance within one ROB
     * partition of the horizon, a younger op still in flight rather
     * than the long-retired producer. Ops with such "far" dependences
     * are polled against that rule each cycle (see ringDepReady);
     * every other op is woken by its producers.
     */
    static constexpr uint16_t kMaxDepDistance = 8192;

    /**
     * The hot header of one ROB entry: everything fetch, issue and
     * commit touch, in one cache line. A memory op's lane addresses
     * live in `payload_` at the same slot and are copied only for
     * memory ops.
     */
    struct alignas(64) RobEntry
    {
        uint64_t seq = 0;            ///< per-stream sequence number
        uint64_t doneCycle = 0;      ///< kNotIssued until issue
        /**
         * Latest doneCycle among the producers that have issued; final
         * (the cycle the op can issue at) once `pending` reaches 0.
         */
        uint64_t readyAt = 0;
        uint64_t reqStart = 0;       ///< latency clock of this op's request
        trace::Mask endMask = 0;     ///< requests ending at commit
        /** Waiter list of this op as producer: node = slot * 2 + k. */
        int32_t wakeHead = -1;
        /** Next node in the list of this op's k-th producer. */
        int32_t wakeNext[2] = {-1, -1};
        uint16_t stream = 0;
        isa::Op op = isa::Op::Nop;
        bool complexAlu = false;     ///< hash/modulo IAlu (complexAluLat)
        uint8_t active = 1;          ///< active lanes, at least 1
        uint8_t pending = 0;         ///< producers not yet issued
        bool mispredicted = false;
        bool polled = false;         ///< has a far dependence
    };

    /**
     * One bit per ROB slot. Issue walks entries by age; ages [0, n)
     * are at most two slot ranges of the ring (see ringRanges).
     */
    class SlotMask
    {
      public:
        void init(size_t bits) { w_.assign((bits + 63) / 64, 0); }
        void reset() { std::fill(w_.begin(), w_.end(), 0); }
        void set(size_t i) { w_[i >> 6] |= 1ULL << (i & 63); }
        void clear(size_t i) { w_[i >> 6] &= ~(1ULL << (i & 63)); }
        bool test(size_t i) const { return (w_[i >> 6] >> (i & 63)) & 1; }

        /** First set bit in [i, end), or `end` if there is none. */
        size_t
        next(size_t i, size_t end) const
        {
            if (i >= end)
                return end;
            size_t wi = i >> 6;
            uint64_t word = w_[wi] & (~0ULL << (i & 63));
            while (word == 0) {
                if ((++wi << 6) >= end)
                    return end;
                word = w_[wi];
            }
            size_t at = (wi << 6) + static_cast<size_t>(__builtin_ctzll(word));
            return at < end ? at : end;
        }

        /** this |= o, then o = 0. */
        void takeFrom(SlotMask &o);

        /** Set bits in [lo, hi). */
        uint64_t count(size_t lo, size_t hi) const;

        /** Set bits of (this & ~o) in [lo, hi). */
        uint64_t countAndNot(const SlotMask &o, size_t lo, size_t hi) const;

        /** The n-th (n >= 1) set bit at or after `lo`; there must be one. */
        size_t select(size_t lo, uint64_t n) const;

      private:
        std::vector<uint64_t> w_;
    };

    /** A dependent whose operands complete at `at`, in ROB `slot`. */
    struct Wakeup
    {
        uint64_t at;
        uint32_t slot;

        bool operator>(const Wakeup &o) const { return at > o.at; }
    };

    struct StreamCtx
    {
        trace::DynStream *stream = nullptr;
        std::unique_ptr<BatchBpred> bpred;
        uint64_t fetchedSeq = 0;      ///< ops fetched so far
        uint64_t issuedSeq = 0;       ///< in-order issue cursor
        uint64_t committedSeq = 0;    ///< ops retired so far
        std::vector<uint32_t> slotOf; ///< ROB slot by seq, for in-flight ops
        bool exhausted = false;
        bool waitingBranch = false;   ///< unresolved blocking branch
        uint64_t stallUntil = 0;
        uint64_t reqStart = 0;
        uint64_t icacheAccum = 0;     ///< scaled i-miss accumulator
        trace::DynOp pending;         ///< the op being fetched

        /** ROB partition occupancy. */
        uint64_t inFlight() const { return fetchedSeq - committedSeq; }
    };

    bool allDrained() const;

    /** @name Per-cycle stages. Each returns the ops it processed. */
    /// @{
    int fetch(uint64_t cycle);
    int issue(uint64_t cycle);
    int commit(uint64_t cycle);
    /// @}

    /** Compute execution latency and perform side effects at issue. */
    uint32_t executeAt(uint64_t cycle, const RobEntry &e, size_t slot);

    /** Claim an FU port of class `fu`; false if none this cycle. */
    bool claimPort(uint64_t cycle, isa::FuClass fu, uint32_t occupancy);

    /**
     * Register the op in `slot` (just fetched at `cycle`) as a waiter
     * on its producers that have not issued; fold the doneCycles of
     * those that have into its readyAt.
     */
    void linkProducers(const trace::DynOp &op, size_t slot,
                       StreamCtx &s, uint64_t cycle);

    /** The producer in `slot` issued at `cycle`: wake its waiters. */
    void wakeWaiters(RobEntry &p, uint64_t cycle);

    /**
     * Whether dependence `dep` of op `seq` is complete at `cycle`
     * under the completion-ring rule (see kMaxDepDistance).
     */
    bool ringDepReady(const StreamCtx &s, uint64_t seq, uint16_t dep,
                      uint64_t cycle) const;

    /** Whether `dep` names a producer of op `seq` within the horizon. */
    static bool
    hasDep(uint64_t seq, uint16_t dep)
    {
        return dep != 0 && dep < kMaxDepDistance && seq > dep;
    }

    /** Whether `dep` of op `seq` can alias a younger op in flight. */
    bool
    isFarDep(uint64_t seq, uint16_t dep) const
    {
        return hasDep(seq, dep) && dep >= farDep_;
    }

    /**
     * The op in `slot` can issue from `ready_at` on; schedule its
     * ready bit. Called during `cycle`'s issue or fetch, so the next
     * issue is at cycle + 1 at the earliest.
     */
    void schedule(size_t slot, uint64_t ready_at, uint64_t cycle);

    size_t
    ageOf(size_t slot) const
    {
        return slot >= robHead_ ? slot - robHead_
                                : slot + rob_.size() - robHead_;
    }

    /**
     * The ROB slots of ages [0, n) as `lo[r], hi[r]` ranges, oldest
     * first; returns their number (1, or 2 when the span wraps).
     */
    int
    ringRanges(size_t n, size_t lo[2], size_t hi[2]) const
    {
        lo[0] = robHead_;
        if (robHead_ + n <= rob_.size()) {
            hi[0] = robHead_ + n;
            return 1;
        }
        hi[0] = rob_.size();
        lo[1] = 0;
        hi[1] = robHead_ + n - rob_.size();
        return 2;
    }

    /**
     * Stall-counter kinds. In event-driven mode these add into flat
     * whole-run totals and into a per-cycle scratch array, so a
     * no-progress cycle's pattern can be replayed N times in O(1) when
     * the loop skips N identical cycles (and the hot loop never touches
     * the CounterSet map; totals land in `res_.counters` once, at the
     * end of run()). The per-cycle reference loop adds straight into
     * the CounterSet -- same final counts.
     */
    enum StallKind {
        kStallDep = 0,   ///< operand not complete
        kStallLsq,       ///< LSQ full
        kStallPort,      ///< FU ports busy
        kStallFeBranch,  ///< fetch parked on an unresolved branch
        kStallFeRefill,  ///< fetch parked on a frontend refill
        kStallRobFull,   ///< ROB (or SMT partition) full
        kNumStallKinds,
    };

    /**
     * Per-op event counters touched on the fetch/issue/commit hot path.
     * In event-driven mode they accumulate in a flat array (one add per
     * event instead of one string-keyed map lookup per event, tens of
     * millions per run) and fold into `res_.counters` once at the end
     * of run(); a name appears in the CounterSet iff its total is
     * nonzero, exactly as if it had been added per occurrence. The
     * per-cycle reference keeps the original per-occurrence add -- same
     * final counts, seed cost profile (see StallKind).
     */
    enum HotCtr {
        kHotFetch = 0, kHotDecode, kHotRename, kHotRobWrite,
        kHotSimtSelect, kHotPathSwitch, kHotBpLookup, kHotBpMispredict,
        kHotIcacheMiss,
        kHotIqWakeup, kHotRegRead, kHotRegWrite,
        kHotIntOps, kHotMulOps, kHotDivOps, kHotFpOps, kHotSimdOps,
        kHotBranchOps, kHotSyscalls, kHotLsqInsert, kHotMcuInsts,
        kHotRobCommit,
        kNumHotCtrs,
    };

    /** Count `n` stall events of kind `k` (n may be 0). */
    void
    stall(StallKind k, uint64_t n = 1)
    {
        if (cfg_.eventDriven) {
            cycleStalls_[k] += n;
            stallTotals_[k] += n;
        } else if (n > 0) {
            stallRef(k, n);
        }
    }

    /** Count a HotCtr event: flat array (event mode) or map (ref). */
    void
    hot(HotCtr k, uint64_t n = 1)
    {
        if (cfg_.eventDriven)
            hotCtrs_[k] += n;
        else
            hotRef(k, n);
    }

    /** @name The reference mode's CounterSet adds. */
    /// @{
    void stallRef(StallKind k, uint64_t n);
    void hotRef(HotCtr k, uint64_t n);
    /// @}

    /**
     * First cycle after `cycle` at which a stalled core can change
     * state: the earliest completion among issued in-flight ops (from
     * the lazy `completions_` heap), the earliest frontend-refill
     * expiry, the earliest LSQ retirement (when something stalled on
     * the LSQ this cycle) and the earliest FU-port release (when
     * something port-starved this cycle). UINT64_MAX when nothing is
     * pending (the caller crawls one cycle, exactly like the reference
     * loop would).
     */
    uint64_t nextEventCycle(uint64_t cycle);

    CoreConfig cfg_;
    mem::AddressMap map_;
    mem::Mcu mcu_;
    mem::MemoryHierarchy hier_;

    std::vector<StreamCtx> streams_;
    std::vector<RobEntry> rob_;        ///< ring buffer of hot headers
    std::vector<trace::DynOp> payload_; ///< lane addresses, memory ops only
    size_t robHead_ = 0;
    size_t robCount_ = 0;
    size_t seqMask_ = 0;               ///< StreamCtx::slotOf ring mask
    int rrCursor_ = 0;
    uint64_t icacheStep_ = 0;  ///< per-op i-miss accumulator increment

    /** @name Issue bookkeeping, by ROB slot. */
    /// @{
    SlotMask waiting_;     ///< fetched, not yet issued
    SlotMask ready_;       ///< waiting, operands complete by this cycle
    SlotMask nextReady_;   ///< operands complete by the next issue
    SlotMask inOrderNext_; ///< in-order: each stream's next op to issue
    size_t waitingCount_ = 0;    ///< bits set in waiting_
    size_t readyCount_ = 0;      ///< bits set in ready_
    size_t nextReadyCount_ = 0;  ///< bits set in nextReady_
    std::vector<size_t> polled_;  ///< slots of un-issued far-dep ops
    uint64_t partition_ = 0;      ///< ROB entries per stream
    uint16_t farDep_ = 0;         ///< smallest far dependence distance
    /** Waiters whose operands complete after the next issue. */
    std::priority_queue<Wakeup, std::vector<Wakeup>,
                        std::greater<Wakeup>> wakeups_;
    /// @}

    std::vector<uint64_t> intPorts_, mulPorts_, simdPorts_, memPorts_,
        brPorts_, fpPorts_;
    std::priority_queue<uint64_t, std::vector<uint64_t>,
                        std::greater<uint64_t>> memInFlight_;
    /**
     * Lazy min-heap of issued ops' doneCycles, pushed at issue and
     * popped when stale (past). Only read by nextEventCycle(): the
     * head is the earliest in-flight completion, without an O(ROB)
     * sweep on every no-progress cycle.
     */
    std::priority_queue<uint64_t, std::vector<uint64_t>,
                        std::greater<uint64_t>> completions_;
    std::vector<mem::MemAccess> scratchAccesses_;

    uint64_t cycleStalls_[kNumStallKinds] = {};  ///< this cycle's pattern
    uint64_t stallTotals_[kNumStallKinds] = {};  ///< whole-run totals
    uint64_t hotCtrs_[kNumHotCtrs] = {};         ///< whole-run totals
    uint64_t portNextFree_ = 0;  ///< earliest release among starved FUs

    CoreResult res_;
};

} // namespace simr::core

#endif // SIMR_CORE_PIPELINE_H
