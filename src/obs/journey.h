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
 * stays under the 2% overhead budget (gated by bench_obs); All mode
 * captures every request for deep drill-downs.
 *
 * Determinism: sampling keys depend only on (reqId, latency, seed),
 * never on thread scheduling. A recorder has one writer; the cluster
 * gives each PDES shard its own and merges them after the run, and
 * merge() keeps the top-K of the union (every global winner survives
 * its own reservoir), so the sampled set is identical however the
 * requests were split. Recording never perturbs the simulation: the
 * recorder draws nothing from the scenario's Rng and SysResult is
 * bit-identical with journeys off, sampled or full (ctest
 * journey_determinism_gate).
 */

#ifndef SIMR_OBS_JOURNEY_H
#define SIMR_OBS_JOURNEY_H

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace simr::obs
{

/** Journey capture mode. */
enum class JourneyMode : uint8_t {
    Off,      ///< recorder inert: the system simulator treats it as
              ///  no recorder, so zero per-request work
    Sampled,  ///< latency-biased reservoir (the always-on default)
    All,      ///< full capture of every request (debug drill-downs)
};

/**
 * Parse a mode name: "off", "sampled" or "all". Anything else is
 * fatal, naming the value.
 */
JourneyMode journeyModeFromName(const std::string &name);

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

    bool operator==(const JourneyEvent &) const = default;
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

    bool operator==(const Journey &) const = default;
};

/**
 * Latency-biased journey reservoir with a single writer.
 *
 * Two-phase protocol for the hot path:
 *
 *   uint64_t key;
 *   if (rec.offer(reqId, e2eUs, &key)) {
 *       Journey j = buildJourney(...);   // only for accepted requests
 *       rec.admit(std::move(j), key);
 *   }
 *
 * offer() costs one hash and one comparison against the current
 * admission threshold; admit() inserts into the bounded reservoir,
 * evicting its minimum-key entry. In All mode offer() always accepts.
 * In Off mode it always declines. One thread at a time may use a
 * recorder: the cluster gives each PDES shard its own and merges them
 * on the caller after the run.
 */
class JourneyRecorder
{
  public:
    /**
     * @param mode      capture mode
     * @param capacity  reservoir size; ignored in All mode
     * @param seed      sampling-key salt (deterministic per reqId)
     */
    explicit JourneyRecorder(JourneyMode mode, size_t capacity = 512,
                             uint64_t seed = 0x1009e5);
    JourneyRecorder(const JourneyRecorder &) = delete;
    JourneyRecorder &operator=(const JourneyRecorder &) = delete;

    JourneyMode mode() const { return mode_; }
    size_t capacity() const { return capacity_; }
    uint64_t seed() const { return seed_; }

    /**
     * Phase 1: would a request with this identity and latency be kept?
     * Counts the request as seen either way (Off mode counts nothing).
     * On acceptance fills `key` for the admit() call. Inline: one hash,
     * two multiplies, an add and a comparison for most requests.
     */
    bool
    offer(uint64_t req_id, double e2e_us, uint64_t *key)
    {
        if (mode_ != JourneyMode::Sampled) {
            if (mode_ == JourneyMode::Off)
                return false;
            ++seen_;
            *key = req_id;
            return true;
        }
        ++seen_;
        if (thr_ != 0) {
            // Conservative pre-reject, division- and log-free.
            // Accepting needs E < r where E = -ln(u) and r = e2e/thr;
            // since 1 - r <= e^-r, any u below 1 - r cannot accept. The
            // test runs scaled by 2^53 so the hash's mantissa compares
            // directly against kPreC - e2e * (2^53/thr), one multiply
            // and one subtract per request. The 1e-9 relative margin in
            // kPreC swallows floating-point rounding, the +1 in
            // uniformFor's mantissa and the fact that keyFor's
            // chord-approximated log never underestimates E, so the
            // pre-test only rejects requests whose key is certainly at
            // or below the threshold.
            uint64_t h = hashFor(req_id, seed_);
            if (static_cast<double>(h >> 11) < kPreC - e2e_us * inv53_)
                return false;
        }
        uint64_t k = keyFor(req_id, e2e_us, seed_);
        *key = k;
        // thr_ == 0 means the reservoir still has room (or its minimum
        // is the zero-latency key, where a spurious accept is harmless:
        // admit() re-checks).
        return thr_ == 0 || k > thr_;
    }

    /** Phase 2: store an accepted journey under its sampling key. */
    void admit(Journey &&j, uint64_t key);

    /**
     * Fold another recorder of the same mode and seed into this one,
     * emptying it: seen counts add; in Sampled mode the reservoir
     * keeps the top-`capacity` keys of the union, in All mode the logs
     * append. Merging reservoirs that split one offered population
     * gives the set a single recorder offered all of it would keep.
     */
    void merge(JourneyRecorder &&o);

    /** Requests offered (kept or not). */
    uint64_t seen() const { return seen_; }

    /** Journeys currently resident. */
    uint64_t kept() const { return heap_.size() + log_.size(); }

    /**
     * The kept journeys -- the top-`capacity` by sampling key in
     * Sampled mode, every journey in All mode -- sorted by reqId.
     * Deterministic for a given offered population.
     */
    std::vector<Journey> snapshot() const;

    void clear();

  private:
    struct Entry
    {
        uint64_t key;
        Journey journey;
    };

    /** Sampled-mode insert: push while there is room, else replace the
     *  minimum key when `key` beats it; keeps the threshold current. */
    void keep(Entry &&e);

    /** (1 - 1e-9) * 2^53: the scaled pre-reject cutoff. */
    static constexpr double kPreC = 0.999999999 * 0x1.0p53;

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
        // sampling variate and far cheaper than libm next to a ~200ns
        // simulation step. log2 is concave, so the chord never
        // overestimates it and the approximate E never underestimates
        // the true -ln(u) -- the property offer()'s pre-reject relies
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

    std::vector<Entry> heap_;   ///< min-heap on key (Sampled mode)
    std::vector<Journey> log_;  ///< append log (All mode)
    uint64_t seen_ = 0;

    /** Admission threshold: 0 while the heap has room, else its
     *  minimum key; inv53_ is 2^53 over the key's double value. */
    uint64_t thr_ = 0;
    double inv53_ = 0;
};

} // namespace simr::obs

#endif // SIMR_OBS_JOURNEY_H
