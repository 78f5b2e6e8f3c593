/**
 * @file
 * Request-trace capture: interpret each request once, replay everywhere.
 *
 * The paper's SIMTec flow traces each request binary once and
 * post-processes the same trace under many timing configurations. This
 * module gives the repo the same trace-once/replay-many structure: a
 * CapturedTrace stores one request's full dynamic stream in columnar
 * (SoA) form -- flat static-PC indices, a packed flags byte (branch
 * outcome + address-relocation kind), dependence distances, call
 * depths and canonical memory addresses -- captured in the frame the
 * request first ran in and *relocated* on replay to any other hardware
 * slot.
 *
 * Relocation is not assumed, it is proved. While a request is being
 * captured, a TaintTracker runs an abstract interpretation next to the
 * real one, tracking for every register
 *
 *   - its linear coefficients on the stack and private-heap bases
 *     (the segmented address space makes addresses base + invariant
 *     offset; Add/AddImm/Sub preserve the form, anything nonlinear
 *     poisons it),
 *   - whether it depends on the request *identity* (R_REQID / R_TID,
 *     atomic results, syscall results -- everything salted with
 *     threadSalt), and
 *   - whether it depends on the *frame* (values loaded from
 *     stack/heap addresses hash the address itself, so they change
 *     when the frame moves).
 *
 * A branch outcome or memory address touched by identity taint marks
 * the trace identity-dependent; one touched by frame taint (or an
 * address that is not exactly base + offset) marks it frame-dependent.
 * The TraceCache keys each trace by the strongest tier its proof
 * supports:
 *
 *   tier 1 (canonical):  (program, api, argLen, key)            -- clean
 *   tier 2 (per-frame):  tier 1 + (stackTop, heapBase)          -- frame-dep
 *   tier 3 (exact):      tier 2 + (reqId, tid)                  -- identity-dep
 *
 * Tier-1 traces replay in any slot under any allocator policy with a
 * pure segment rebase; tier-2 traces replay for any request identity
 * parked in the same frame; tier-3 traces replay only the exact
 * request (which still covers the dominant redundancy: the same sweep
 * re-running a request under many core configurations). Lookups try
 * tiers strongest-first, so duplicate requests (same API + argument
 * length + key, common under the services' zipf key popularity)
 * deduplicate onto one refcount-shared canonical trace.
 */

#ifndef SIMR_TRACE_CAPTURE_H
#define SIMR_TRACE_CAPTURE_H

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "isa/program.h"
#include "trace/interp.h"
#include "trace/proof.h"

namespace simr::trace
{

/**
 * Flat static-instruction index over one laid-out Program instance.
 * PCs are contiguous by layout(), so the flat index of an instruction
 * is (pc - codeBase) / kInstBytes; this class adds the reverse maps a
 * replay cursor needs (flat index -> StaticInst / block / idx-in-block).
 *
 * The index also computes a content fingerprint of the program. The
 * fingerprint keys the process-wide TraceCache (Program instances are
 * rebuilt per sweep cell, so pointers cannot be keys), while the
 * StaticInst pointers served to the timing core always come from the
 * *local* instance this index was built over.
 */
class ProgramIndex
{
  public:
    explicit ProgramIndex(const isa::Program &prog);

    const isa::Program &program() const { return *prog_; }

    /** Content hash of the program (cache key component). */
    uint64_t fingerprint() const { return fingerprint_; }

    size_t instCount() const { return insts_.size(); }

    uint32_t
    flatOf(isa::Pc pc) const
    {
        return static_cast<uint32_t>((pc - codeBase_) / isa::kInstBytes);
    }

    isa::Pc
    pcOf(uint32_t flat) const
    {
        return codeBase_ + static_cast<isa::Pc>(flat) * isa::kInstBytes;
    }

    const isa::StaticInst *inst(uint32_t flat) const { return insts_[flat]; }
    int blockOf(uint32_t flat) const { return blockOf_[flat]; }
    uint32_t idxInBlock(uint32_t flat) const { return idxInBlock_[flat]; }

    /** Access size of a memory instruction; 0 for any other op. */
    uint16_t memSize(uint32_t flat) const { return memSize_[flat]; }

    /** Raw flat-index -> StaticInst table (replay hot path). */
    const isa::StaticInst *const *instTable() const { return insts_.data(); }
    isa::Pc codeBase() const { return codeBase_; }

  private:
    const isa::Program *prog_;
    isa::Pc codeBase_;
    std::vector<const isa::StaticInst *> insts_;
    std::vector<int32_t> blockOf_;
    std::vector<uint32_t> idxInBlock_;
    std::vector<uint16_t> memSize_;
    uint64_t fingerprint_ = 0;
};

/** How a captured memory address relocates when the frame moves. */
enum class AddrKind : uint8_t {
    Invariant = 0,  ///< same in every frame (shared segments)
    StackRel = 1,   ///< rebases by (new stackTop - captured stackTop)
    HeapRel = 2,    ///< rebases by (new heapBase - captured heapBase)
};

/**
 * One request's dynamic stream in columnar form. Immutable once
 * finished; shared (refcounted) between every consumer replaying it.
 *
 * The columns are replay-ready: besides what the op sequence *is*
 * (static index, flags byte) they hold what replay would otherwise
 * have to recompute -- dependence distances, call depth and canonical
 * addresses -- so ReplayCursor::step is a handful of sequential array
 * reads with no lastWriter mirroring (measured ~4x cheaper than a live
 * interpreter step).
 */
class CapturedTrace
{
  public:
    /** Flags-byte layout (one byte per op). */
    static constexpr uint8_t kTakenBit = 0x1;
    static constexpr uint8_t kAddrKindShift = 1;
    static constexpr uint8_t kAddrKindMask = 0x3;
    /** Set on memory ops, so replay never consults the OpInfo table. */
    static constexpr uint8_t kMemBit = 0x8;

    uint64_t opCount() const { return staticIdx_.size(); }

    /** The ThreadInit the trace was captured under (relocation origin). */
    const ThreadInit &frame() const { return frame_; }

    /** Program fingerprint the trace belongs to. */
    uint64_t fingerprint() const { return fingerprint_; }

    /** Branch outcome or address depended on reqId / tid. */
    bool identityDependent() const { return idDep_; }

    /** Branch outcome or address depended on stack/heap placement. */
    bool frameDependent() const { return frameDep_; }

    /** Resident bytes of the columnar payload (cache accounting). */
    size_t
    byteSize() const
    {
        return sizeof(*this) +
            staticIdx_.capacity() * sizeof(uint32_t) +
            flags_.capacity() +
            dep1_.capacity() * sizeof(uint16_t) +
            dep2_.capacity() * sizeof(uint16_t) +
            callDepth_.capacity() +
            addr_.capacity() * sizeof(uint64_t);
    }

    const std::vector<uint32_t> &staticIdx() const { return staticIdx_; }
    const std::vector<uint8_t> &flags() const { return flags_; }
    const std::vector<uint16_t> &dep1() const { return dep1_; }
    const std::vector<uint16_t> &dep2() const { return dep2_; }
    const std::vector<uint8_t> &callDepth() const { return callDepth_; }
    /** Canonical-frame absolute addresses, one entry per memory op. */
    const std::vector<uint64_t> &memAddr() const { return addr_; }

  private:
    friend class CaptureBuilder;

    ThreadInit frame_;
    uint64_t fingerprint_ = 0;
    bool idDep_ = false;
    bool frameDep_ = false;

    // One entry per dynamic op. addr_ holds canonical-frame absolute
    // addresses (memory ops only, in stream order); replay adds the
    // per-AddrKind relocation shift.
    std::vector<uint32_t> staticIdx_;
    std::vector<uint8_t> flags_;
    std::vector<uint16_t> dep1_;
    std::vector<uint16_t> dep2_;
    std::vector<uint8_t> callDepth_;
    std::vector<uint64_t> addr_;
};

/**
 * Abstract interpretation run alongside capture; proves which cache
 * tier a trace supports. See the file comment for the lattice.
 */
class TaintTracker
{
  public:
    /** (Re)start for a request. */
    void reset();

    /**
     * Account one executed instruction. For memory ops, returns the
     * relocation kind of `r.addr`; Invariant otherwise.
     */
    AddrKind step(const isa::StaticInst &si, const StepResult &r);

    /** A branch outcome or address depended on reqId / tid. */
    bool identityDependent() const { return idDep_; }

    /** A branch outcome or address depended on frame placement. */
    bool frameDependent() const { return frameDep_; }

  private:
    /** Per-register abstract value: linear base coefficients + taint. */
    struct Abs
    {
        int8_t cs = 0;     ///< coefficient on the stack base
        int8_t ch = 0;     ///< coefficient on the private-heap base
        bool id = false;   ///< depends on reqId / tid / salted results
        bool fr = false;   ///< depends nonlinearly on frame placement
    };

    Abs aluAbs(const isa::StaticInst &si) const;
    void write(isa::RegId r, Abs v);

    Abs regs_[isa::kNumRegs];
    bool idDep_ = false;
    bool frameDep_ = false;
};

/**
 * Accumulates one request's capture: columnar encoding plus the taint
 * proof. Drive it with every StepResult the live interpreter produces,
 * then finish() once the thread is done.
 */
class CaptureBuilder
{
  public:
    explicit CaptureBuilder(const ProgramIndex &pi) : pi_(&pi) {}

    /**
     * Attach a static dataflow proof. When it admits the canonical
     * tier (taintTierBound == 1) for this exact program, subsequent
     * captures skip the per-op dynamic taint interpretation and read
     * each memory op's relocation kind from the proof's flat table —
     * bit-identical to the dynamic result, since a tier-1 bound means
     * every address kind is exact on every path.
     */
    void setStaticProof(std::shared_ptr<const StaticProof> proof)
    {
        proof_ = std::move(proof);
    }

    void reset(const ThreadInit &init);

    /** True when the current capture runs on the static-proof path. */
    bool staticFastPath() const { return static_; }

    /** Record one executed instruction. */
    void onStep(const StepResult &r);

    /** Seal and hand off the finished trace. */
    std::shared_ptr<const CapturedTrace> finish();

  private:
    const ProgramIndex *pi_;
    TaintTracker taint_;
    std::shared_ptr<const StaticProof> proof_;
    bool static_ = false;
    std::unique_ptr<CapturedTrace> out_;
};

/** Per-stream trace-reuse statistics (deterministic per cell). */
struct ReuseStats
{
    uint64_t hits = 0;          ///< requests served from the cache
    uint64_t misses = 0;        ///< requests interpreted (and captured)
    uint64_t dedupHits = 0;     ///< hits on a trace captured from a
                                ///  *different* request (dedup wins)
    uint64_t replayedOps = 0;   ///< dynamic ops materialized from traces
    uint64_t capturedOps = 0;   ///< dynamic ops recorded live
    uint64_t streamHits = 0;    ///< front-end units served whole from
                                ///  the stream cache (no interpretation,
                                ///  no lockstep machinery)
    uint64_t streamMisses = 0;  ///< front-end units computed live (and
                                ///  captured when a stream cache is on)
    uint64_t staticCaptures = 0;  ///< captures that skipped the dynamic
                                  ///  taint walk on a static tier-1 proof

    ReuseStats &
    operator+=(const ReuseStats &o)
    {
        hits += o.hits;
        misses += o.misses;
        dedupHits += o.dedupHits;
        replayedOps += o.replayedOps;
        capturedOps += o.capturedOps;
        streamHits += o.streamHits;
        streamMisses += o.streamMisses;
        staticCaptures += o.staticCaptures;
        return *this;
    }
};

/**
 * Process-wide, thread-safe trace cache. Shared by every runCells
 * worker: one worker captures a request, every later cell -- any
 * config, any thread -- replays it. All operations take one mutex;
 * entries are immutable shared_ptrs, so replay never holds the lock,
 * and eviction (LRU by lookup/insert recency against a byte budget)
 * can never free a trace a cursor still walks.
 */
class TraceCache
{
  public:
    explicit TraceCache(size_t budget_bytes = kDefaultBudget);
    ~TraceCache();

    TraceCache(const TraceCache &) = delete;
    TraceCache &operator=(const TraceCache &) = delete;

    /**
     * Find a replayable trace for a request about to run under `init`.
     * Tries the canonical tier first, then per-frame, then exact.
     * Sets `*dedup` when the hit was captured from a different request
     * than `init` describes.
     */
    std::shared_ptr<const CapturedTrace>
    lookup(uint64_t fingerprint, const ThreadInit &init, bool *dedup);

    /**
     * Insert a finished capture under the strongest tier its taint
     * proof supports. If a concurrent worker already inserted the same
     * key, the first trace wins (maximizing sharing) and the new one
     * is dropped.
     */
    void insert(uint64_t fingerprint, const ThreadInit &init,
                std::shared_ptr<const CapturedTrace> trace);

    /** Drop everything (benches use this to measure cold vs warm). */
    void clear();

    uint64_t bytesResident() const;
    uint64_t entries() const;
    size_t budgetBytes() const { return budget_; }
    uint64_t evictions() const;

    /** @name Whole-cache reuse totals (every lookup ever made). */
    /// @{
    uint64_t hits() const;
    uint64_t misses() const;
    uint64_t dedupRequests() const;
    /// @}

    /** The process-wide cache, with the default budget. */
    static TraceCache *process();

    static constexpr size_t kDefaultBudget = size_t(1024) << 20;

  private:
    struct Key
    {
        uint64_t fingerprint;
        int64_t api;
        int64_t argLen;
        uint64_t key;
        uint64_t sharedBase;
        uint64_t dataSeed;
        // Tier >= 2 (zero in the canonical tier):
        uint64_t stackTop;
        uint64_t heapBase;
        // Tier == 3 (zero otherwise):
        int64_t reqId;
        int64_t tid;
        uint8_t tier;

        bool operator==(const Key &o) const;
    };

    struct KeyHash
    {
        size_t operator()(const Key &k) const;
    };

    struct Entry
    {
        std::shared_ptr<const CapturedTrace> trace;
        std::list<Key>::iterator lru;
    };

    static Key makeKey(uint64_t fingerprint, const ThreadInit &init,
                       int tier);
    void touch(Entry &e);
    void evictOverBudget();

    mutable std::mutex mu_;
    std::unordered_map<Key, Entry, KeyHash> map_;
    std::list<Key> lru_;   ///< front = coldest
    size_t budget_;
    size_t bytes_ = 0;
    uint64_t evictions_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t dedupHits_ = 0;
};

} // namespace simr::trace

#endif // SIMR_TRACE_CAPTURE_H
