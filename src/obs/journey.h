/**
 * @file
 * Per-request causal journeys: the tail-latency observability layer of
 * the system simulator.
 *
 * Every simulated request can accumulate a compact event log -- arrival,
 * batch formation, per-tier enqueue/start/done, memcached hit/miss,
 * batch split/retry, reconvergence stalls, completion -- with causal
 * parent edges (each event's parent is the previous event of the same
 * request; cross-request causes such as "blocked at the reconvergence
 * point behind a batch mate's storage visit" are flagged foreign and
 * carry the causing batch id). The anatomy engine (obs/anatomy.h) turns
 * these journeys into critical paths and per-bucket latency
 * decompositions.
 *
 * Exactness: event times are recorded in integer ticks of 2^-10 us
 * (~0.98 ns). Segment durations are differences of consecutive event
 * ticks, so the per-bucket decomposition of a journey telescopes to
 * exactly its end-to-end tick count -- an integer identity asserted by
 * tests, immune to floating-point reassociation.
 *
 * Overhead: recording is two-phase. A request first offers only its
 * identity and latency; the recorder decides membership with one hash
 * and one comparison (latency-biased reservoir sampling, A-ES keys:
 * key = latency / Exp(1), deterministic per reqId), and only accepted
 * requests pay for building the event log. The always-on sampled mode
 * stays under the 2% overhead budget (gated by bench_obs);
 * SIMR_JOURNEYS=all captures every request for deep drill-downs.
 *
 * Determinism: sampling keys depend only on (reqId, latency, seed),
 * never on thread scheduling; each shard keeps its local top-K and
 * snapshot() takes the global top-K of the union (a superset of every
 * shard's local top-K), so the sampled set is identical at any thread
 * count. Recording never perturbs the simulation: the recorder draws
 * nothing from the scenario's Rng and SysResult is bit-identical with
 * journeys off, sampled or full (ctest journey_determinism_gate).
 */

#ifndef SIMR_OBS_JOURNEY_H
#define SIMR_OBS_JOURNEY_H

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"

namespace simr::obs
{

/** Journey capture mode (SIMR_JOURNEYS=off|sampled|all). */
enum class JourneyMode : uint8_t {
    Off,      ///< recorder inert, zero per-request work
    Sampled,  ///< latency-biased reservoir (the always-on default)
    All,      ///< full capture of every request (debug drill-downs)
};

/**
 * Parse SIMR_JOURNEYS (unset or empty means `fallback`; "0" is an
 * alias for off). Any other value is fatal.
 */
JourneyMode journeyModeFromEnv(JourneyMode fallback = JourneyMode::Sampled);

const char *journeyModeName(JourneyMode m);

/** Journey time base: integer ticks of 2^-10 us. */
constexpr double kJourneyTicksPerUs = 1024.0;

inline int64_t
journeyTicks(double us)
{
    return static_cast<int64_t>(std::llround(us * kJourneyTicksPerUs));
}

inline double
journeyUs(int64_t ticks)
{
    return static_cast<double>(ticks) / kJourneyTicksPerUs;
}

/**
 * Event kinds. Every non-instant kind closes the segment since the
 * previous event; the kind decides which latency bucket (anatomy.h)
 * that segment lands in.
 */
enum class JStage : uint8_t {
    Arrival,      ///< request entered the system (opens the journey)
    BatchFormed,  ///< its batch emitted            (closes: batch-wait)
    TierEnqueue,  ///< arrived at a tier            (closes: network hop)
    TierStart,    ///< tier began service           (closes: queueing)
    TierDone,     ///< tier finished service        (closes: service)
    ReconvJoin,   ///< unsplit batch rejoined       (closes: batch-wait,
                  ///  foreign: caused by a batch mate's slow path)
    Completion,   ///< reply delivered              (closes: network hop)
    CacheOutcome, ///< instant: memcached hit/miss (aux: 1 = miss)
    SplitRetry,   ///< instant: split orphan re-executes alone
};

const char *stageName(JStage s);

/** One journey event. 24 bytes; `parent` edges are implicit (previous
 *  event of the same journey) except where `foreign` marks a
 *  cross-request cause identified by `aux` (the causing batch id). */
struct JourneyEvent
{
    int64_t tick = 0;       ///< event time in 2^-10 us ticks
    uint64_t aux = 0;       ///< kind-specific payload (batch id, miss flag)
    JStage kind = JStage::Arrival;
    int8_t tier = -1;       ///< tier index for Tier* kinds, -1 otherwise
    bool foreign = false;   ///< segment caused by another request
};

/** One request's causal journey through the cluster. */
struct Journey
{
    uint64_t reqId = 0;
    uint64_t batchId = 0;
    uint32_t batchSize = 0;
    bool miss = false;            ///< visited storage (memcached miss)
    bool orphan = false;          ///< re-executed alone after a split
    bool blockedOnBatch = false;  ///< stalled at a reconvergence point
    std::vector<JourneyEvent> events;  ///< causal chain, time-ordered

    int64_t arrivalTick() const
    {
        return events.empty() ? 0 : events.front().tick;
    }

    int64_t completionTick() const
    {
        return events.empty() ? 0 : events.back().tick;
    }

    /** End-to-end latency in ticks (the decomposition's exact total). */
    int64_t e2eTicks() const { return completionTick() - arrivalTick(); }

    double e2eUs() const { return journeyUs(e2eTicks()); }
};

/**
 * Latency-biased journey reservoir with per-thread shards.
 *
 * Two-phase protocol for the hot path:
 *
 *   uint64_t key;
 *   if (rec.offer(reqId, e2eUs, &key)) {
 *       Journey j = buildJourney(...);   // only for accepted requests
 *       rec.admit(std::move(j), key);
 *   }
 *
 * offer() costs one hash and one comparison against the calling
 * shard's current admission threshold; admit() inserts into the
 * shard's bounded reservoir, evicting its minimum-key entry. In All
 * mode offer() always accepts. In Off mode it always declines.
 */
class JourneyRecorder
{
  public:
    /**
     * @param mode      capture mode; defaults to SIMR_JOURNEYS (or
     *                  Sampled when unset)
     * @param capacity  reservoir size (per shard and for the merged
     *                  snapshot); ignored in All mode
     * @param seed      sampling-key salt (deterministic per reqId)
     */
    explicit JourneyRecorder(JourneyMode mode = journeyModeFromEnv(),
                             size_t capacity = 512,
                             uint64_t seed = 0x1009e5);
    ~JourneyRecorder();
    JourneyRecorder(const JourneyRecorder &) = delete;
    JourneyRecorder &operator=(const JourneyRecorder &) = delete;

    JourneyMode mode() const { return mode_; }
    size_t capacity() const { return capacity_; }

    /**
     * Phase 1: would a request with this identity and latency be kept?
     * Counts the request as seen either way. On acceptance fills
     * `key` for the admit() call. Lock-free: one hash plus a relaxed
     * load of the calling shard's admission threshold (the shard is
     * only written by its own thread, so the threshold it reads is
     * exact, not approximate).
     *
     * Hot loops should hoist cursor() and offer through that instead:
     * this entry point re-resolves the calling thread's shard each
     * call.
     */
    bool offer(uint64_t req_id, double e2e_us, uint64_t *key);

    /** Phase 2: store an accepted journey under its sampling key. */
    void admit(Journey &&j, uint64_t key);

    /** Requests offered (kept or not). */
    uint64_t seen() const;

    /** Journeys currently resident across shards. */
    uint64_t kept() const;

    /**
     * Merged view: the global top-`capacity` journeys by sampling key
     * (every journey in All mode), sorted by reqId. Deterministic for
     * a given offered population at any thread count.
     */
    std::vector<Journey> snapshot() const;

    void clear();

  private:
    struct Entry
    {
        uint64_t key;
        Journey journey;
    };

    /** Bounded min-heap-by-key reservoir (one per recording thread). */
    struct Shard
    {
        std::mutex mu;            ///< uncontended except vs. snapshot()
        std::vector<Entry> heap;  ///< min-heap on key (Sampled mode)
        std::vector<Journey> log; ///< append log (All mode)

        /** Offers routed to this shard (owner-written, racily read). */
        std::atomic<uint64_t> seen{0};

        /**
         * Admission threshold: 0 while the heap has room, else the
         * heap's minimum key. offer() reads it without the mutex.
         */
        std::atomic<uint64_t> threshold{0};
    };

  public:
    /**
     * Per-thread offer cursor. Resolving the calling thread's shard
     * costs a TLS lookup plus an acquire load, and counting a request
     * or reading the admission threshold touches the shard's cache
     * line -- cheap once, but real money when paid per request next to
     * a ~100ns simulation step. A cursor caches the shard, and
     * beginGroup(n) amortizes the seen-counter bump and the threshold
     * snapshot over a whole batch, so the per-request path is fully
     * inline: one hash, two multiplies, an add and a comparison.
     * Obtain a cursor once per work region, outside the request loop;
     * a default-constructed cursor (or one from an Off-mode recorder)
     * declines every offer.
     *
     * A threshold snapshot can only be stale in the conservative
     * direction (the true threshold only rises), so staleness causes
     * spurious accepts -- which admit() re-checks under the shard lock
     * -- never wrongful rejects. The sampled set stays exactly the
     * global top-K by key.
     */
    class Cursor
    {
      public:
        Cursor() = default;

        /**
         * Announce a run of `n` requests about to be offered: counts
         * them as seen and snapshots the shard's admission threshold
         * for the cheap per-request pre-test.
         */
        void beginGroup(uint64_t n)
        {
            if (!shard_)
                return;
            Shard &s = *shard_;
            // Owner-written counter: plain load+store instead of a
            // lock-prefixed RMW (seen() tolerates a racy read).
            s.seen.store(s.seen.load(std::memory_order_relaxed) + n,
                         std::memory_order_relaxed);
            // The admission threshold moves only on (rare) admits, so
            // skip the divide when it hasn't. The poison value
            // UINT64_MAX can never equal a real threshold -- it is a
            // NaN bit pattern, and keys are finite non-negative
            // doubles.
            uint64_t t = s.threshold.load(std::memory_order_relaxed);
            if (t != thr_) {
                thr_ = t;
                inv53_ =
                    t ? 0x1.0p53 / std::bit_cast<double>(t) : 0.0;
            }
        }

        /** Same contract as JourneyRecorder::offer(); requests must
         *  have been announced by beginGroup(). */
        bool offer(uint64_t req_id, double e2e_us, uint64_t *key)
        {
            if (mode_ == JourneyMode::All) {
                *key = req_id;
                return true;
            }
            if (thr_ != 0) {
                // Conservative pre-reject, division- and log-free.
                // Accepting needs E < r where E = -ln(u) and
                // r = e2e/thr; since 1 - r <= e^-r, any u below
                // 1 - r cannot accept. The test runs scaled by 2^53 so
                // the hash's mantissa compares directly against
                // kPreC - e2e * (2^53/thr), one multiply and one
                // subtract per request. The 1e-9 relative margin in
                // kPreC swallows floating-point rounding, the +1 in
                // uniformFor's mantissa and the fact that keyFor's
                // chord-approximated log never underestimates E, so
                // the pre-test only rejects requests whose key is
                // certainly at or below the snapshotted threshold.
                //
                // A default-constructed (or Off-mode) cursor lands
                // here too, with thr_ = UINT64_MAX and inv53_ = +inf:
                // the pre-test never fires (kPreC - e2e * inf is
                // -inf or NaN, both incomparable below), and the final
                // k > UINT64_MAX comparison declines every offer --
                // the decline path costs no extra branch on the
                // sampled hot path.
                uint64_t h = hashFor(req_id, seed_);
                if (static_cast<double>(h >> 11) <
                    kPreC - e2e_us * inv53_)
                    return false;
            }
            uint64_t k = keyFor(req_id, e2e_us, seed_);
            *key = k;
            // thr_ == 0 means the heap still has room (or its minimum
            // is the zero-latency key, where a spurious accept is
            // harmless: admit() re-checks under the lock).
            return thr_ == 0 || k > thr_;
        }

      private:
        friend class JourneyRecorder;

        /** (1 - 1e-9) * 2^53: the scaled pre-reject cutoff. */
        static constexpr double kPreC = 0.999999999 * 0x1.0p53;

        Shard *shard_ = nullptr;
        JourneyMode mode_ = JourneyMode::Off;
        uint64_t seed_ = 0;

        /** UINT64_MAX until beginGroup() snapshots a real threshold:
         *  an unannounced or Off-mode cursor declines everything. */
        uint64_t thr_ = UINT64_MAX;
        double inv53_ =
            std::numeric_limits<double>::infinity();
    };

    /** Cursor bound to the calling thread's shard (null in Off mode). */
    Cursor cursor();

  private:
    Shard &localShard();

    /** Single-multiply stateless mix (Fibonacci hashing, not full
     *  mix64): this sits on the per-request hot path of the system
     *  simulator. Only the top 53 bits are consumed, and the top bits
     *  of an odd-constant product are well distributed -- for
     *  sequential request ids they behave like a low-discrepancy
     *  sequence, which is if anything better coverage for a sampling
     *  variate than i.i.d. uniforms. */
    static uint64_t hashFor(uint64_t req_id, uint64_t seed)
    {
        return (req_id ^ seed) * 0x9e3779b97f4a7c15ULL;
    }

    /** Deterministic uniform variate in (0, 1] for a request id. */
    static double uniformFor(uint64_t req_id, uint64_t seed)
    {
        uint64_t h = hashFor(req_id, seed);
        return static_cast<double>((h >> 11) + 1) * 0x1.0p-53;
    }

    /** Deterministic A-ES sampling key for (reqId, latency). */
    static uint64_t keyFor(uint64_t req_id, double e2e_us,
                           uint64_t seed)
    {
        // A-ES weighted reservoir key: score = weight / Exp(1), with
        // the exponential variate derived from a stateless hash of the
        // request identity -- the decision depends only on (reqId,
        // latency, seed), never on thread scheduling or arrival order.
        //
        // -ln(u) is approximated by the classic bit-level linear-log
        // trick: reading the raw bits of a positive double as an
        // integer gives a piecewise-linear, strictly monotone
        // approximation of log2 (max error ~0.09), plenty for a
        // sampling variate and far cheaper than libm next to a ~100ns
        // simulation step. log2 is concave, so the chord never
        // overestimates it and the approximate E never underestimates
        // the true -ln(u) -- the property Cursor's pre-reject relies
        // on.
        double u = uniformFor(req_id, seed);
        double log2u = static_cast<double>(std::bit_cast<uint64_t>(u)) *
                           0x1.0p-52 -
                       1023.0;
        double e = -log2u * 0.6931471805599453; // ~ -ln(u) >= 0
        if (e < 0x1.0p-60)
            e = 0x1.0p-60;
        double score = e2e_us / e;
        // Order-preserving map of a non-negative double to key space.
        return std::bit_cast<uint64_t>(score);
    }

    JourneyMode mode_;
    size_t capacity_;
    uint64_t seed_;

    static constexpr int kMaxShards = 128;
    mutable std::atomic<Shard *> shards_[kMaxShards] = {};
};

} // namespace simr::obs

#endif // SIMR_OBS_JOURNEY_H
