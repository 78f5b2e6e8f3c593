/**
 * @file
 * The µISA interpreter: one lane-major executor for every front end.
 *
 * A LaneFile executes up to kMaxBatch request threads (lanes) through
 * one service Program, exposing the dynamic stream a PIN tool would
 * capture: static PC, opcode, memory addresses, branch outcomes and
 * call depth. It holds every lane's architectural state as
 * structure-of-arrays sized by its width: registers ([reg][lane]),
 * atomic and syscall counters, load seeds, and the call stack
 * ([depth][lane]). Each lane's position is one packed key (posKey)
 * whose integer order is MinSP-PC order.
 *
 * step(mask, op) executes the one instruction every lane of `mask`
 * sits at: it decodes it once, applies it over the mask in one loop per
 * op kind, and writes addresses, the taken mask, dependence distances
 * and the lanes it retired straight into a DynOp. The lockstep engine
 * steps it at its batch width and the scalar stream at width 1;
 * ThreadState is the width-1 case with a per-thread StepResult surface.
 * A LaneFile built over a TraceCache also replays or captures request
 * traces per lane (replay.h), which two lane masks select.
 *
 * Data values are synthetic but deterministic: loads return a hash of the
 * accessed address, so data-dependent control flow (e.g. a memcached
 * hit/miss test on a loaded value) is repeatable per key without having to
 * model memory contents.
 */

#ifndef SIMR_TRACE_INTERP_H
#define SIMR_TRACE_INTERP_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "isa/program.h"
#include "trace/dynop.h"

namespace simr::trace
{

/** Initial architectural context for one request thread. */
struct ThreadInit
{
    int64_t api = 0;         ///< request API id (register R_API)
    int64_t argLen = 1;      ///< argument length (R_ARGLEN)
    uint64_t key = 0;        ///< request key hash (R_KEY)
    int64_t reqId = 0;       ///< request sequence id (R_REQID)
    int64_t tid = 0;         ///< lane within the batch (R_TID)
    uint64_t sharedBase = 0; ///< shared data segment base (R_SHARED)
    uint64_t stackTop = 0;   ///< top of this thread's stack (R_SP)
    uint64_t heapBase = 0;   ///< private heap arena base (R_HEAP)
    uint64_t dataSeed = 0;   ///< service data seed for load values
};

/** One thread's view of executing a single instruction. */
struct StepResult
{
    const isa::StaticInst *si = nullptr;
    isa::Pc pc = 0;
    bool taken = false;       ///< Branch outcome
    uint64_t addr = 0;        ///< effective address (mem ops)
    uint16_t accessSize = 0;  ///< bytes (mem ops)
    uint8_t callDepth = 0;    ///< depth *before* executing the op
    uint16_t dep1 = 0;        ///< distance to src1 producer, 0 = none
    uint16_t dep2 = 0;        ///< distance to src2 producer, 0 = none
};

// ---------------------------------------------------------------------------
// Position keys: inverted call depth in bits 44-63, block id in bits
// 16-43, index in the block in bits 0-15. Their integer order is
// MinSP-PC order: deeper call levels first, then lower PCs.
// Program::layout() assigns PCs in block-id order and a lane never
// rests in an empty block or past a block's end, so (block, idx)
// orders exactly as the PC does.

constexpr uint64_t kDepthTop = (uint64_t{1} << 20) - 1;
constexpr int kDepthShift = 44;
constexpr int kBlockShift = 16;
constexpr uint64_t kBlockLimit = uint64_t{1} << 28;
constexpr uint64_t kIdxLimit = uint64_t{1} << kBlockShift;
constexpr uint64_t kDepthBits = ~((uint64_t{1} << kDepthShift) - 1);
/** Key of a retired lane: above every live key, never picked. */
constexpr uint64_t kRetiredKey = ~uint64_t{0};

/** The depth bits of a key at call depth `depth`. */
inline uint64_t
depthKey(uint64_t depth)
{
    simr_dassert(depth <= kDepthTop, "call depth %llu outside the key",
                 static_cast<unsigned long long>(depth));
    return (kDepthTop - depth) << kDepthShift;
}

/** Pack (depth, block, idx) into a position key. */
inline uint64_t
posKey(int depth, int block, size_t idx)
{
    return depthKey(static_cast<uint64_t>(depth)) |
        (static_cast<uint64_t>(block) << kBlockShift) |
        static_cast<uint64_t>(idx);
}

inline int
keyDepth(uint64_t key)
{
    return static_cast<int>(kDepthTop - (key >> kDepthShift));
}

inline int
keyBlock(uint64_t key)
{
    return static_cast<int>((key >> kBlockShift) & (kBlockLimit - 1));
}

inline size_t
keyIdx(uint64_t key)
{
    return static_cast<size_t>(key & (kIdxLimit - 1));
}

/** The key of `block`'s first instruction at `key`'s call depth. */
inline uint64_t
blockEntryKey(uint64_t key, int block)
{
    return (key & kDepthBits) |
        (static_cast<uint64_t>(block) << kBlockShift);
}

struct CacheLanes;
class ProgramIndex;
class TraceCache;
struct ReuseStats;
struct StaticProof;

/** Structure-of-arrays state of `width` lanes, stepped group by group. */
class LaneFile
{
  public:
    /** `width` lanes over `prog`; every request is interpreted live. */
    LaneFile(const isa::Program &prog, int width);

    /**
     * `width` lanes over `pi`'s program whose requests replay from
     * `cache` on a hit and are captured into it on a miss (replay.cc);
     * a null cache interprets every request live.
     */
    LaneFile(const ProgramIndex &pi, int width, TraceCache *cache);

    ~LaneFile();
    LaneFile(LaneFile &&) noexcept;
    LaneFile &operator=(LaneFile &&) noexcept;

    const isa::Program &program() const { return *prog_; }

    /**
     * Start a batch: lane i < n runs the request `inits[i]` from main's
     * entry (or its cached trace); lanes n and up retire. Returns the
     * lanes with an instruction to execute.
     */
    Mask launch(const ThreadInit *inits, int n);

    /**
     * Execute the instruction all of `mask`'s lanes sit at, filling
     * `op`'s si, pc, callDepth, accessSize, takenMask, addresses (in
     * ascending lane order), dep1/dep2 and endMask (the lanes whose
     * request returned from main). dep1/dep2 count group ops since the
     * source register's last write, and are 0 unless some lane of
     * `mask` wrote it since launch; at width 1 they are the thread's
     * own distances. The caller owns mask, pathSwitch and batchStart.
     */
    void step(Mask mask, DynOp &op);

    /** A lane's position key (kRetiredKey once retired). */
    uint64_t key(int lane) const { return key_[static_cast<size_t>(lane)]; }
    const uint64_t *keys() const { return key_.data(); }
    bool retired(int lane) const { return key(lane) == kRetiredKey; }

    /** PC and instruction a live lane sits at. */
    isa::Pc pc(int lane) const;
    const isa::StaticInst &inst(int lane) const;

    /** Group ops stepped since launch. */
    uint64_t opCount() const { return opIdx_; }

    int64_t
    reg(isa::RegId r, int lane) const
    {
        return regs_[slot(r, lane)];
    }

    uint64_t
    atomicCount(int lane) const
    {
        return atomics_[static_cast<size_t>(lane)];
    }

    /** Static proof for capture's tier-1 fast path (may be null). */
    void setStaticProof(std::shared_ptr<const StaticProof> proof);

    /** Trace-reuse accounting since construction (zero without cache). */
    ReuseStats reuseStats() const;

  private:
    /** Per-block decode and successor table. */
    struct Block
    {
        const isa::StaticInst *insts = nullptr;
        isa::Pc pc = 0;
        uint32_t size = 0;
        /** Low key bits of the instruction (b, 0) lands on. */
        uint64_t entry = 0;
        /** Low key bits of where falling off the block lands. */
        uint64_t fall = 0;
    };

    /** A landing that no instruction is reached by (empty-block cycle). */
    static constexpr uint64_t kNoPos = ~uint64_t{0};

    size_t
    slot(isa::RegId r, int lane) const
    {
        return static_cast<size_t>(r) * static_cast<size_t>(width_) +
            static_cast<size_t>(lane);
    }

    /** Skip empty blocks from (b, 0) to a real instruction. */
    uint64_t land(int block) const;

    // The trace-cache lanes (replay.cc).
    /** Pick replay or capture for each of the n launched requests. */
    void launchCached(const ThreadInit *inits, int n);
    /**
     * Step the replaying lanes of the group `mask` through their
     * cursors, merging their addresses into `op` in lane order; sets
     * the lanes whose trace recorded a dependence in `dep1`/`dep2`.
     */
    void stepReplaying(Mask mask, DynOp &op, Mask *dep1, Mask *dep2);
    /** Hand the capturing lanes of the group `mask` their steps. */
    void stepCapturing(Mask mask, const DynOp &op);

    const isa::Program *prog_;
    int width_;
    std::vector<Block> blocks_;
    std::vector<uint64_t> funcEntry_;
    int mainFn_ = -1;

    // Lane state, structure-of-arrays.
    std::vector<int64_t> regs_;      ///< [reg][lane]
    std::vector<uint64_t> key_;
    std::vector<uint64_t> atomics_;
    std::vector<uint64_t> syscalls_;
    std::vector<uint64_t> seed_;     ///< ThreadInit::dataSeed
    std::vector<uint64_t> salt_;     ///< per-request atomic/syscall salt
    std::vector<uint64_t> frames_;   ///< [depth][lane] return positions

    // Group state since launch: ops stepped, each register's last
    // writing op, and the lanes that wrote it.
    uint64_t opIdx_ = 0;
    uint64_t lastWriter_[isa::kNumRegs] = {};
    Mask written_[isa::kNumRegs] = {};

    // Trace-cache lanes: a replaying lane steps its ReplayCursor, a
    // capturing lane runs live and feeds its CaptureBuilder.
    Mask replaying_ = 0;
    Mask capturing_ = 0;
    std::unique_ptr<CacheLanes> cache_;
};

/**
 * One request thread: the width-1 LaneFile with a per-thread stepping
 * surface (tests, gates, single-request capture).
 */
class ThreadState
{
  public:
    /** Bind to a program; call reset() before stepping. */
    explicit ThreadState(const isa::Program &prog) : lane_(prog, 1) {}

    /** (Re)start execution of the program's "main" for a new request. */
    void reset(const ThreadInit &init) { lane_.launch(&init, 1); }

    /** True once main has returned. */
    bool done() const { return lane_.retired(0); }

    /** Current position (valid while !done()). */
    isa::Pc curPc() const { return lane_.pc(0); }
    int curBlock() const { return keyBlock(live()); }
    size_t curIdx() const { return keyIdx(live()); }
    int callDepth() const { return keyDepth(lane_.key(0)); }  ///< 0 once done

    /** The instruction about to execute (valid while !done()). */
    const isa::StaticInst &curInst() const { return lane_.inst(0); }

    /** Execute exactly one instruction. */
    void step(StepResult &out);

    /** Dynamic instructions executed since reset. */
    uint64_t dynCount() const { return lane_.opCount(); }

    /** Atomic ops executed since reset (spin-detection input). */
    uint64_t atomicCount() const { return lane_.atomicCount(0); }

    const isa::Program &program() const { return lane_.program(); }

    /** Register read (tests / debugging). */
    int64_t reg(isa::RegId r) const { return lane_.reg(r, 0); }

  private:
    uint64_t
    live() const
    {
        simr_assert(!done(), "position of a finished thread");
        return lane_.key(0);
    }

    LaneFile lane_;
};

} // namespace simr::trace

#endif // SIMR_TRACE_INTERP_H
