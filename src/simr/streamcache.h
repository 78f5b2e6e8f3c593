/**
 * @file
 * Process-wide cache of whole front-end DynOp streams.
 *
 * The request-level trace::TraceCache removes the interpreter from a
 * warm run; this cache removes everything in front of the timing core.
 * A cell's front end -- the batching, lockstep grouping, divergence
 * and dependence machinery that turns requests into one DynOp stream
 * per engine / hardware context -- is a pure function of the cell's
 * identity (service, program, batching policy, reconvergence scheme,
 * widths, allocator policy, request count and seed). When an identical
 * cell re-runs, the sweep re-run case every figure bench and tuner
 * probe hits, its streams can be served straight from the captured
 * columnar form (trace::StreamTrace) instead of being recomputed.
 *
 * Keys are explicit strings built by the runner from exactly the
 * inputs that determine the stream (the same contract cellSeed
 * documents), plus the program content fingerprint. Values pair the
 * captured stream with the producing engine's SimtStats, which are
 * equally a pure function of the stream and must be replayed with it.
 *
 * Replay is gated the same way as request-level replay: the tier-1
 * trace_replay_gate proves warm runs bit-identical to live ones over
 * every service and core config.
 */

#ifndef SIMR_SIMR_STREAMCACHE_H
#define SIMR_SIMR_STREAMCACHE_H

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "simt/lockstep.h"
#include "trace/replay.h"

namespace simr
{

/** One cached front-end unit: the stream plus its producer's stats. */
struct StreamEntry
{
    std::shared_ptr<const trace::StreamTrace> trace;
    /** Superop kernel over `trace`, built on the entry's second hit. */
    std::shared_ptr<const trace::CompiledStream> compiled;
    /** Engine stats at capture (zero-valued for scalar/SMT streams). */
    simt::SimtStats stats{};
};

/**
 * Thread-safe LRU cache of StreamEntry keyed by cell-identity strings.
 * Same structure as trace::TraceCache: one mutex around the index,
 * immutable refcounted payloads, byte-budget LRU eviction that never
 * frees a stream a consumer still walks.
 */
class StreamCache
{
  public:
    explicit StreamCache(size_t budget_bytes = kDefaultBudget);
    ~StreamCache();

    StreamCache(const StreamCache &) = delete;
    StreamCache &operator=(const StreamCache &) = delete;

    /** Find a cached stream; nullopt-like empty entry on miss. */
    bool lookup(const std::string &key, StreamEntry *out);

    /**
     * Insert a finished capture. First insert wins on concurrent
     * captures of the same key (maximizing sharing).
     */
    void insert(const std::string &key, StreamEntry entry);

    /** Drop everything (benches use this to measure cold vs warm). */
    void clear();

    uint64_t bytesResident() const;
    uint64_t entries() const;
    size_t budgetBytes() const { return budget_; }
    uint64_t evictions() const;
    uint64_t hits() const;
    uint64_t misses() const;

    /** @name Superop-kernel residency (subset of the totals above). */
    /// @{
    uint64_t compiledEntries() const;
    uint64_t compiledBytes() const;
    /// @}

    /**
     * The process-wide cache, or nullptr when trace reuse is disabled
     * via SIMR_TRACE_CACHE=0. Budget: SIMR_STREAM_CACHE_MB (default
     * 2048).
     */
    static StreamCache *process();

    static constexpr size_t kDefaultBudget = size_t(2048) << 20;

  private:
    struct Entry
    {
        StreamEntry payload;
        uint32_t hits = 0;
        std::list<std::string>::iterator lru;
    };

    void touch(Entry &e);
    void evictOverBudget();

    mutable std::mutex mu_;
    std::unordered_map<std::string, Entry> map_;
    std::list<std::string> lru_;   ///< front = coldest
    size_t budget_;
    size_t bytes_ = 0;
    uint64_t evictions_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t compiledEntries_ = 0;
    uint64_t compiledBytes_ = 0;
};

} // namespace simr

#endif // SIMR_SIMR_STREAMCACHE_H
