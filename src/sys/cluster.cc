#include "sys/cluster.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "obs/journey.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sys/station.h"

namespace simr::sys
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

constexpr int kTiers = 5;
constexpr int kTierWeb = 0;
constexpr int kTierUser = 1;
constexpr int kTierStorage = 4;
const char *const kTierNames[kTiers] = {"web", "user", "mcrouter",
                                        "memc", "storage"};

/** Timeline layout: one process, batch formation on tid 1, then one
 *  service-occupancy track per server node. */
constexpr int kSysPid = 2;
constexpr int kTidBatchForm = 1;
constexpr int kTidFirstNode = 2;

/** Event kinds: 0..4 = batch arrival at that tier; 5 = orphan-capacity
 *  charge at the user tier. Event keys are batch * kKeyStride + kind,
 *  so every event of a run has a unique identity-derived key (a batch
 *  visits each tier at most once and is charged at most once), and the
 *  key alone names the batch and the kind. An event's aux is the
 *  batch's memcached miss count where one travels (the charge and the
 *  storage visit). */
constexpr uint64_t kKindCharge = 5;
constexpr uint64_t kKeyStride = 8;

/** A simulated server: its service station plus its share of the tier
 *  statistics. Touched only by its own events (PDES Model contract). */
struct NodeState
{
    Station station;
    RunningStat waitUs;
    RunningStat serviceUs;
};

/** Per-batch causal flight record: the service start time at each
 *  tier, consumed by journey construction at the completion point
 *  (every other tier time follows from these and the model's
 *  latencies). Allocated only when a JourneyRecorder is recording;
 *  written along the batch's causal event chain, so the kernel's
 *  barrier handoff publishes it. */
struct Flight
{
    double start[kTiers] = {};
};

/** Per-shard accumulator. Totals are folded in shard order after the
 *  run; each is partition-invariant (sums and a max, and the journey
 *  reservoirs' merge), so the fold is bit-identical at any shard
 *  count. Cache-line aligned: shards on different workers never
 *  false-share. */
struct alignas(64) ShardCtx
{
    uint64_t misses = 0;
    uint64_t orphans = 0;
    double maxCompletion = 0;
    /** This shard's own reservoir, with the scoped recorder's mode,
     *  capacity and seed; only while one is recording. */
    std::unique_ptr<obs::JourneyRecorder> journeys;
};

enum class Who { kAll, kHits, kMisses };

/** The scoped journey recorder, or null when none is in scope or it is
 *  Off: an Off-mode recorder declines every offer, so the run owes it
 *  no per-request work. */
obs::JourneyRecorder *
activeRecorder()
{
    obs::JourneyRecorder *r = obs::Scope::journeys();
    return r && r->mode() != obs::JourneyMode::Off ? r : nullptr;
}

/** Release a column's memory (clear() keeps the capacity). */
template <class T>
void
release(std::vector<T> &v)
{
    std::vector<T>().swap(v);
}

class ClusterModel : public Model
{
  public:
    ClusterModel(const ClusterConfig &cfg, int setup_threads)
        : cfg_(cfg), jrec_(activeRecorder()), tr_(obs::Scope::tracer())
    {
        webSalt_ = mix64(cfg.seed ^ 0x7765625f73727677ULL);
        missSalt_ = mix64(cfg.seed ^ 0x6d656d635f6d7373ULL);
        routeSalt_ = mix64(cfg.seed ^ 0x726f7574655f6872ULL);
        buildNodes();
        buildLoad(setup_threads);
        if (jrec_)
            flights_.resize(nBatches_);
        if (tr_)
            nameTracks();
    }

    uint32_t nodeCount() const override { return totalNodes_; }

    void
    prepare(int shards) override
    {
        ctx_.clear();
        ctx_.resize(static_cast<size_t>(shards));
        if (jrec_)
            for (ShardCtx &cx : ctx_)
                cx.journeys = std::make_unique<obs::JourneyRecorder>(
                    jrec_->mode(), jrec_->capacity(), jrec_->seed());
    }

    void apply(const Event &ev, EventSink &sink, int shard) override;

    /** Each web server's first batch. The offered load is streamed,
     *  not preloaded: every web-tier arrival schedules its server's
     *  next batch (apply), so the queues hold in-flight work only. */
    std::vector<Event>
    initialEvents() const
    {
        std::vector<Event> out;
        for (uint32_t w = 0; w < tierCount_[kTierWeb]; ++w)
            if (webBatch_[w] < webBatch_[w + 1])
                out.push_back(
                    webArrival(webBatch_[w], tierBase_[kTierWeb] + w));
        return out;
    }

    /** Fold per-shard and per-node state into the result and expose it
     *  through the scoped registry. Caller thread, after runPdes. */
    void finish(ClusterResult *res, int threads);

  private:
    void buildNodes();
    void buildLoad(int threads);
    // Timeline emission, kept out of line so the untraced hot path
    // (apply, completeBatch) stays small.
    void nameTracks() const;
    [[gnu::noinline]] void traceArrivals(uint64_t b) const;
    [[gnu::noinline]] void traceEnd(uint32_t rid, double done) const;

    uint64_t
    clientOffset(uint64_t c) const
    {
        uint64_t base = cfg_.requests / cfg_.users;
        uint64_t rem = cfg_.requests % cfg_.users;
        return c * base + std::min(c, rem);
    }

    uint64_t
    clientCount(uint64_t c) const
    {
        uint64_t base = cfg_.requests / cfg_.users;
        return base + (c < cfg_.requests % cfg_.users ? 1 : 0);
    }

    uint32_t
    webOf(uint64_t client) const
    {
        return static_cast<uint32_t>(
            mix64(webSalt_ ^ client) %
            static_cast<uint64_t>(cfg_.webServers));
    }

    /** Stateless memcached outcome: a pure hash of request identity,
     *  so every engine (and the storage-side recount) agrees without
     *  sharing a sequential Rng. u is in (0, 1]: hitRate 1 can never
     *  miss and hitRate 0 always does. */
    bool
    missOf(uint32_t rid) const
    {
        double u = static_cast<double>(
                       (mix64(missSalt_ ^ rid) >> 11) + 1) *
                   0x1.0p-53;
        return u > cfg_.base.memcHitRate;
    }

    /** Batch b reaching its home web server `web` at its emit time. */
    Event
    webArrival(uint64_t b, uint32_t web) const
    {
        return {emit_[b], b * kKeyStride + kTierWeb, web, 0};
    }

    /** Destination node of a batch at a tier past the web tier: a
     *  per-(batch, tier) hash pick. */
    uint32_t
    routeNode(uint64_t b, int tier) const
    {
        return tierBase_[tier] +
               static_cast<uint32_t>(
                   mix64(routeSalt_ ^
                         (b * kKeyStride +
                          static_cast<uint64_t>(tier))) %
                   tierCount_[tier]);
    }

    void completeBatch(uint64_t b, Who who, uint64_t misses,
                       double done, double reconv, ShardCtx &cx);
    void buildJourney(uint32_t rid, double arrival, uint64_t b,
                      uint32_t n, bool is_miss, bool blocked,
                      double done, double reconv, uint64_t key,
                      obs::JourneyRecorder &rec);

    ClusterConfig cfg_;
    obs::JourneyRecorder *jrec_;
    obs::Tracer *tr_;
    uint64_t webSalt_ = 0, missSalt_ = 0, routeSalt_ = 0;

    // Static topology.
    uint32_t tierBase_[kTiers] = {};
    uint32_t tierCount_[kTiers] = {};
    double tierLatency_[kTiers] = {};  ///< every server of a tier alike
    uint32_t totalNodes_ = 0;
    std::vector<NodeState> nodes_;

    // Offered load in flat columns: one slice per web server
    // (server-major), time-sorted within it, tiled by its batches.
    // Only timeUs_ changes during the run, one disjoint slot per
    // completing request.
    std::vector<double> timeUs_;        ///< per request: arrival, then
                                        ///  end-to-end latency
    std::vector<uint32_t> reqFlat_;     ///< per request: its reqId
    std::vector<uint32_t> batchFirst_;  ///< batch -> [first, first+1)
    std::vector<double> emit_;          ///< batch emit time
    std::vector<uint32_t> webBatch_;    ///< web server -> [first batch,
                                        ///  next server's first)
    uint64_t nBatches_ = 0;
    double minArrival_ = 0;

    std::vector<Flight> flights_; ///< per batch, only with journeys
    std::vector<ShardCtx> ctx_;
};

void
ClusterModel::buildNodes()
{
    const SysConfig &b = cfg_.base;
    double tscale = b.rpu ? b.rpuThroughputScale : 1.0;
    double lscale = b.rpu ? b.rpuLatencyScale : 1.0;
    struct TierDef
    {
        int servers;
        double rate;
        double latency;
    };
    // Storage is the paper's disk/flash tier: a real queueing station,
    // never RPU-scaled.
    const TierDef defs[kTiers] = {
        {cfg_.webServers, b.webCores / b.webSvcUs * tscale,
         b.webSvcUs * lscale},
        {cfg_.userServers, b.userCores / b.userSvcUs * tscale,
         b.userSvcUs * lscale},
        {cfg_.mcrouterServers,
         b.mcrouterCores / b.mcrouterSvcUs * tscale,
         b.mcrouterSvcUs * lscale},
        {cfg_.memcServers, b.memcCores / b.memcSvcUs * tscale,
         b.memcSvcUs * lscale},
        {cfg_.storageServers, cfg_.storageCores / b.storageSvcUs,
         b.storageSvcUs},
    };
    uint32_t base = 0;
    for (int t = 0; t < kTiers; ++t) {
        tierBase_[t] = base;
        tierCount_[t] = static_cast<uint32_t>(defs[t].servers);
        tierLatency_[t] = defs[t].latency;
        base += tierCount_[t];
    }
    totalNodes_ = base;
    nodes_.reserve(totalNodes_);
    for (int t = 0; t < kTiers; ++t)
        for (uint32_t i = 0; i < tierCount_[t]; ++i)
            nodes_.push_back(
                {Station(kTierNames[t],
                         kTidFirstNode +
                             static_cast<int>(nodes_.size()),
                         defs[t].rate, defs[t].latency),
                 {},
                 {}});
}

void
ClusterModel::nameTracks() const
{
    tr_->processName(kSysPid, "cluster (User scenario)");
    tr_->threadName(kSysPid, kTidBatchForm, "batch formation");
    for (int t = 0; t < kTiers; ++t)
        for (uint32_t i = 0; i < tierCount_[t]; ++i)
            tr_->threadName(
                kSysPid, kTidFirstNode + static_cast<int>(tierBase_[t] + i),
                std::string(kTierNames[t]) + " " + std::to_string(i));
}

/** Batch b reaching its web server: its formation span (batched
 *  systems only) and the opening async span of each of its requests. */
void
ClusterModel::traceArrivals(uint64_t b) const
{
    const uint64_t first = batchFirst_[b];
    const uint64_t last = batchFirst_[b + 1];
    if (cfg_.base.rpu && cfg_.base.batchSize > 1) {
        // Batches tile the server's time-sorted arrivals: the first
        // request opened the batch window.
        const double opened = timeUs_[first];
        tr_->complete("form batch " + std::to_string(b), "batching",
                      opened, emit_[b] - opened, kSysPid, kTidBatchForm,
                      {{"size", obs::jnum(last - first)}});
    }
    for (uint64_t i = first; i < last; ++i)
        tr_->asyncBegin("req", "request", reqFlat_[i], timeUs_[i],
                        kSysPid);
}

/** The closing async span of a request completeBatch completes. */
void
ClusterModel::traceEnd(uint32_t rid, double done) const
{
    tr_->asyncEnd("req", "request", rid, done, kSysPid);
}

void
ClusterModel::buildLoad(int threads)
{
    const uint64_t nreq = cfg_.requests;
    const uint64_t users = cfg_.users;
    const uint32_t nweb = static_cast<uint32_t>(cfg_.webServers);

    // Chunk boundaries are functions of the problem size only, so
    // every parallel pass below lands identical bits at any thread
    // count (and serial at threads == 1 -- the sequential engine).
    const size_t nchunks =
        static_cast<size_t>(std::min<uint64_t>(users, 256));
    auto clientBegin = [&](size_t k) { return users * k / nchunks; };

    // 1. Slice layout: a counting pass places each web server's slice
    // (client -> home server by hash) and, within it, each chunk's
    // clients in client order, i.e. reqId order. cur[k * nweb + w] is
    // chunk k's request count for server w, then its next slot there.
    std::vector<uint64_t> cur(nchunks * nweb, 0);
    parallelFor(
        nchunks,
        [&](size_t k) {
            uint64_t *row = &cur[k * nweb];
            for (uint64_t c = clientBegin(k); c < clientBegin(k + 1);
                 ++c)
                row[webOf(c)] += clientCount(c);
        },
        threads);
    std::vector<uint64_t> serverOff(nweb + 1, 0);
    {
        uint64_t run = 0;
        for (uint32_t w = 0; w < nweb; ++w) {
            serverOff[w] = run;
            for (size_t k = 0; k < nchunks; ++k)
                run += std::exchange(cur[k * nweb + w], run);
        }
        serverOff[nweb] = run;
    }

    // 2. Per-client open-loop Poisson streams, identity-derived seeds,
    // written with their reqIds straight into the home server's slice.
    timeUs_.resize(nreq);
    reqFlat_.resize(nreq);
    const double mean_gap = static_cast<double>(users) * 1e6 / cfg_.qps;
    std::vector<double> chunkMin(nchunks, kInf);
    parallelFor(
        nchunks,
        [&](size_t k) {
            uint64_t *row = &cur[k * nweb];
            double lo = kInf;
            for (uint64_t c = clientBegin(k); c < clientBegin(k + 1);
                 ++c) {
                const uint64_t n = clientCount(c);
                if (n == 0)
                    continue;
                Rng rng(mix64(cfg_.seed ^ 0x636c69656e747374ULL) ^
                        mix64(c));
                const uint64_t off = clientOffset(c);
                const uint32_t w = webOf(c);
                const uint64_t at = row[w];
                double t = 0;
                for (uint64_t i = 0; i < n; ++i) {
                    double g = rng.exponential(mean_gap);
                    if (cfg_.burstProb > 0 &&
                        rng.chance(cfg_.burstProb))
                        g /= cfg_.burstScale;
                    t += g;
                    timeUs_[at + i] = t;
                    reqFlat_[at + i] = static_cast<uint32_t>(off + i);
                }
                row[w] = at + n;
                lo = std::min(lo, timeUs_[at]);
            }
            chunkMin[k] = lo;
        },
        threads);
    minArrival_ = kInf;
    for (double v : chunkMin)
        minArrival_ = std::min(minArrival_, v);

    // 3. Per-server time sort, in place, then each server's batch
    // count.
    const int bsize = cfg_.base.rpu ? cfg_.base.batchSize : 1;
    const double timeout = cfg_.base.batchTimeoutUs;
    auto sliceSize = [&](size_t w) {
        return static_cast<size_t>(serverOff[w + 1] - serverOff[w]);
    };
    auto timesOf = [&](size_t w) {
        return [lo = timeUs_.data() + serverOff[w]](size_t i) {
            return lo[i];
        };
    };
    webBatch_.assign(nweb + 1, 0);
    parallelFor(
        nweb,
        [&](size_t w) {
            sortArrivals(timeUs_.data() + serverOff[w],
                         reqFlat_.data() + serverOff[w], sliceSize(w));
            uint32_t count = 0;
            forEachBatchWindow(sliceSize(w), bsize, timeout, timesOf(w),
                               [&count](size_t, size_t, double) {
                                   ++count;
                               });
            webBatch_[w + 1] = count;
        },
        threads);

    // 4. Form each server's batches again, straight into dense global
    // batch ids (server-major, time-ordered within a server): no
    // per-server window lists, which at bsize 1 (the CPU systems, one
    // batch per request) would hold one entry per request.
    for (uint32_t w = 0; w < nweb; ++w)
        webBatch_[w + 1] += webBatch_[w];
    nBatches_ = webBatch_[nweb];
    batchFirst_.resize(nBatches_ + 1);
    batchFirst_[nBatches_] = static_cast<uint32_t>(nreq);
    emit_.resize(nBatches_);
    parallelFor(
        nweb,
        [&](size_t w) {
            uint32_t gb = webBatch_[w];
            forEachBatchWindow(
                sliceSize(w), bsize, timeout, timesOf(w),
                [&](size_t begin, size_t, double emit) {
                    batchFirst_[gb] =
                        static_cast<uint32_t>(serverOff[w] + begin);
                    emit_[gb] = emit;
                    ++gb;
                });
        },
        threads);
}

void
ClusterModel::apply(const Event &ev, EventSink &sink, int shard)
{
    ShardCtx &cx = ctx_[static_cast<size_t>(shard)];
    NodeState &nd = nodes_[ev.node];
    const uint64_t b = ev.key / kKeyStride;
    const uint64_t kind = ev.key % kKeyStride;
    const double net = cfg_.base.netUs;

    if (kind == kKindCharge) {
        // Split orphans re-execute alone at low SIMT efficiency,
        // consuming extra user-tier capacity (Fig. 17b).
        nd.station.charge(static_cast<double>(ev.aux) *
                          (cfg_.base.orphanPenalty - 1.0));
        return;
    }

    int tier = static_cast<int>(kind);
    uint64_t first = batchFirst_[b];
    uint64_t last = batchFirst_[b + 1];
    int n = tier == kTierStorage ? static_cast<int>(ev.aux)
                                 : static_cast<int>(last - first);
    double start;
    double done = nd.station.process(ev.time, n, nd.waitUs,
                                     nd.serviceUs, tr_, kSysPid, &start);
    if (jrec_)
        flights_[b].start[tier] = start;
    if (tr_ && tier == kTierWeb)
        traceArrivals(b);

    if (tier == kTierWeb &&
        b + 1 < webBatch_[ev.node - tierBase_[kTierWeb] + 1]) {
        // Stream the server's next batch. Batch ids are server-major
        // and a server's emit times never decrease, so (time, key)
        // puts every later batch after this one: scheduling it now
        // changes no event's place in any node's order. It goes to
        // this same node, the one emit the kernel lets land inside
        // the current window.
        sink.emit(webArrival(b + 1, ev.node));
    }

    if (tier < 3) {
        // Forward the batch one tier down the chain; the network hop
        // is the kernel's lookahead, so this emit is always legal.
        sink.emit({done + net,
                   b * kKeyStride + static_cast<uint64_t>(tier + 1),
                   routeNode(b, tier + 1), 0});
        return;
    }

    if (tier == 3) {
        // Memcached: cache outcomes decide who must visit storage.
        int misses = 0;
        for (uint64_t i = first; i < last; ++i)
            misses += missOf(reqFlat_[i]) ? 1 : 0;
        cx.misses += static_cast<uint64_t>(misses);
        double bt = done + net;       // reply reaches the user tier
        double hit_done = bt + net;   // ... and then the client
        if (misses == 0) {
            completeBatch(b, Who::kAll, 0, hit_done, 0, cx);
            return;
        }
        bool split = !cfg_.base.rpu || cfg_.base.batchSplit;
        if (cfg_.base.rpu && cfg_.base.batchSplit) {
            cx.orphans += static_cast<uint64_t>(misses);
            sink.emit({bt, b * kKeyStride + kKindCharge,
                       routeNode(b, kTierUser),
                       static_cast<uint32_t>(misses)});
        }
        if (split && misses < n)
            completeBatch(b, Who::kHits, static_cast<uint64_t>(misses),
                          hit_done, 0, cx);
        sink.emit({bt + net, b * kKeyStride + kTierStorage,
                   routeNode(b, kTierStorage),
                   static_cast<uint32_t>(misses)});
        return;
    }

    // Storage: the misses finish their slow path; with an unsplit RPU
    // batch the hits have been waiting at the reconvergence point and
    // complete alongside them (Fig. 17a).
    double miss_done = done + 2 * net;
    bool split = !cfg_.base.rpu || cfg_.base.batchSplit;
    completeBatch(b, split ? Who::kMisses : Who::kAll, ev.aux, miss_done,
                  done + net, cx);
}

void
ClusterModel::completeBatch(uint64_t b, Who who, uint64_t misses,
                            double done, double reconv, ShardCtx &cx)
{
    uint64_t first = batchFirst_[b];
    uint64_t last = batchFirst_[b + 1];
    const bool any_miss = misses > 0;
    if (done > cx.maxCompletion)
        cx.maxCompletion = done;

    uint32_t n = static_cast<uint32_t>(last - first);
    obs::JourneyRecorder *rec = cx.journeys.get();

    for (uint64_t i = first; i < last; ++i) {
        uint32_t rid = reqFlat_[i];
        bool m = any_miss && missOf(rid);
        if (who == Who::kHits && m)
            continue;
        if (who == Who::kMisses && !m)
            continue;
        // The request's slot trades its arrival for its latency.
        const double arrival = timeUs_[i];
        const double e2e = done - arrival;
        timeUs_[i] = e2e;
        if (tr_)
            traceEnd(rid, done);
        if (rec) {
            uint64_t key;
            if (rec->offer(rid, e2e, &key))
                buildJourney(rid, arrival, b, n, m,
                             any_miss && !m && reconv > 0, done, reconv,
                             key, *rec);
        }
    }
}

void
ClusterModel::buildJourney(uint32_t rid, double arrival, uint64_t b,
                           uint32_t n, bool is_miss, bool blocked,
                           double done, double reconv, uint64_t key,
                           obs::JourneyRecorder &rec)
{
    // Tier times from the service starts, with the engine's own double
    // operations: done = start + latency, and each hop adds netUs to
    // the time the batch left the tier before (storage is two hops
    // past memcached: the reply to the user tier, then the miss).
    const Flight &fl = flights_[b];
    const double net = cfg_.base.netUs;
    double enq[kTiers], fin[kTiers];
    for (int k = 0; k < kTiers; ++k)
        fin[k] = fl.start[k] + tierLatency_[k];
    enq[kTierWeb] = emit_[b];
    for (int k = 1; k < kTierStorage; ++k)
        enq[k] = fin[k - 1] + net;
    enq[kTierStorage] = (fin[kTierStorage - 1] + net) + net;

    obs::Journey j;
    j.events.reserve(19);
    j.reqId = rid;
    j.batchId = b;
    j.batchSize = n;
    j.miss = is_miss;
    j.orphan = is_miss && cfg_.base.rpu && cfg_.base.batchSplit;
    j.blockedOnBatch = blocked;
    auto ev = [&j](obs::JStage k, double us, int tier,
                   uint64_t aux = 0, bool foreign = false) {
        j.events.push_back({obs::journeyTicks(us), aux, k,
                            static_cast<int8_t>(tier), foreign});
    };
    ev(obs::JStage::Arrival, arrival, -1);
    ev(obs::JStage::BatchFormed, emit_[b], -1, b);
    for (int k = 0; k < kTierStorage; ++k) {
        ev(obs::JStage::TierEnqueue, enq[k], k);
        ev(obs::JStage::TierStart, fl.start[k], k);
        ev(obs::JStage::TierDone, fin[k], k);
    }
    ev(obs::JStage::CacheOutcome, fin[3], 3, is_miss ? 1 : 0);
    if (is_miss) {
        if (j.orphan)
            ev(obs::JStage::SplitRetry, fin[3], 3, b);
        ev(obs::JStage::TierEnqueue, enq[kTierStorage], kTierStorage);
        ev(obs::JStage::TierStart, fl.start[kTierStorage], kTierStorage);
        ev(obs::JStage::TierDone, fin[kTierStorage], kTierStorage);
        ev(obs::JStage::Completion, done, -1);
    } else if (blocked) {
        ev(obs::JStage::ReconvJoin, reconv, -1, b, true);
        ev(obs::JStage::Completion, done, -1);
    } else {
        ev(obs::JStage::Completion, done, -1);
    }
    rec.admit(std::move(j), key);
}

void
ClusterModel::finish(ClusterResult *res, int threads)
{
    const uint64_t nreq = cfg_.requests;
    // The load's footprint by capacity, so a regrowth shows.
    auto bytes = [](const auto &v) { return v.capacity() * sizeof(v[0]); };
    const size_t load_bytes = bytes(timeUs_) + bytes(reqFlat_) +
        bytes(batchFirst_) + bytes(emit_) + bytes(webBatch_);
    res->servers = totalNodes_;
    res->batches = nBatches_;
    double max_completion = 0;
    for (ShardCtx &cx : ctx_) {        // shard order; all folds are
        res->memcMisses += cx.misses;  // partition-invariant
        res->splitOrphans += cx.orphans;
        max_completion = std::max(max_completion, cx.maxCompletion);
        if (cx.journeys)
            jrec_->merge(std::move(*cx.journeys));
    }

    res->sys.offeredQps = cfg_.qps;
    double span_us = max_completion - minArrival_;
    res->sys.achievedQps =
        span_us > 0 ? static_cast<double>(nreq) / (span_us / 1e6) : 0;

    // Tier statistics: merge per-node moments in node order -- the
    // same input-order discipline runCells uses for registries, and
    // the reason SysResult is shard-count independent.
    res->sys.tiers.reserve(kTiers);
    for (int t = 0; t < kTiers; ++t) {
        TierStat ts{kTierNames[t], {}, {}};
        for (uint32_t i = 0; i < tierCount_[t]; ++i) {
            const NodeState &nd = nodes_[tierBase_[t] + i];
            ts.waitUs.merge(nd.waitUs);
            ts.serviceUs.merge(nd.serviceUs);
        }
        res->sys.tiers.push_back(std::move(ts));
    }

    // The latencies back in reqId order. The batch columns go before
    // the scatter and the flat ones right after it, so this step
    // holds at most 20 bytes per request.
    release(batchFirst_);
    release(emit_);
    release(webBatch_);
    std::vector<double> e2e(nreq);
    const size_t rchunks =
        static_cast<size_t>(std::min<uint64_t>(nreq, 256));
    parallelFor(
        rchunks,
        [&](size_t k) {
            for (uint64_t i = nreq * k / rchunks;
                 i < nreq * (k + 1) / rchunks; ++i)
                e2e[reqFlat_[i]] = timeUs_[i];
        },
        threads);
    release(timeUs_);
    release(reqFlat_);

    // End-to-end histogram: running statistics of fixed reqId-ordered
    // chunks, merged in chunk order -- bit-identical at any thread
    // count (and between the sequential and sharded engines, which
    // both run this fold) -- over the samples adopted whole.
    const size_t hchunks =
        static_cast<size_t>(std::min<uint64_t>(nreq, 64));
    std::vector<RunningStat> parts(hchunks);
    parallelFor(
        hchunks,
        [&](size_t k) {
            for (uint64_t i = nreq * k / hchunks;
                 i < nreq * (k + 1) / hchunks; ++i)
                parts[k].add(e2e[i]);
        },
        threads);
    RunningStat e2e_stat;
    for (const RunningStat &p : parts)
        e2e_stat.merge(p);
    res->sys.e2eUs = Histogram(std::move(e2e), e2e_stat);

    // Registry exposition, caller thread.
    obs::Registry *reg = obs::Scope::registry();
    reg->counter("sys.requests")->inc(nreq);
    reg->counter("sys.batches")->inc(nBatches_);
    reg->counter("sys.memc_misses")->inc(res->memcMisses);
    reg->counter("sys.split_orphans")->inc(res->splitOrphans);
    reg->counter("sys.servers")->inc(totalNodes_);
    reg->gauge("sys.offered_qps")->set(res->sys.offeredQps);
    reg->gauge("sys.achieved_qps")->set(res->sys.achievedQps);
    reg->gauge("sys.load_bytes")->set(static_cast<double>(load_bytes));
    reg->hist("sys.e2e_us")->record(res->sys.e2eUs);
    for (const auto &tier : res->sys.tiers) {
        obs::Hist *wait =
            reg->hist("sys." + tier.name + ".wait_us");
        reg->gauge("sys." + tier.name + ".wait_mean_us")
            ->set(tier.waitUs.mean());
        reg->gauge("sys." + tier.name + ".wait_max_us")
            ->set(tier.waitUs.max());
        reg->gauge("sys." + tier.name + ".service_mean_us")
            ->set(tier.serviceUs.mean());
        wait->add(tier.waitUs.mean());
    }
}

ClusterResult
runClusterImpl(const ClusterConfig &cfg, int shards, int threads)
{
    cfg.validate();
    ClusterModel model(cfg, threads);
    PdesConfig pc;
    pc.lookaheadUs = cfg.base.netUs;
    pc.shards = shards;
    pc.threads = threads;
    ClusterResult res;
    res.pdes = runPdes(model, model.initialEvents(), pc);
    model.finish(&res, threads);
    return res;
}

} // namespace

void
SysConfig::validate() const
{
    simr_assert(batchSize >= 1, "sys batchSize must be >= 1");
    simr_assert(batchTimeoutUs >= 0,
                "sys batchTimeoutUs must be non-negative");
    simr_assert(rpuThroughputScale > 0 && rpuLatencyScale > 0,
                "sys RPU scales must be positive");
    simr_assert(orphanPenalty >= 1,
                "sys orphanPenalty must be >= 1 (a capacity factor)");
    simr_assert(webSvcUs > 0 && userSvcUs > 0 && mcrouterSvcUs > 0 &&
                    memcSvcUs > 0 && storageSvcUs > 0,
                "sys tier service latencies must be positive");
    simr_assert(netUs >= 0, "sys netUs must be non-negative");
    simr_assert(webCores >= 1 && userCores >= 1 && mcrouterCores >= 1 &&
                    memcCores >= 1,
                "sys tier capacities must be >= 1 core");
    simr_assert(memcHitRate >= 0 && memcHitRate <= 1,
                "sys memcHitRate must be a probability");
}

void
ClusterConfig::validate() const
{
    base.validate();
    simr_assert(webServers >= 1 && userServers >= 1 &&
                    mcrouterServers >= 1 && memcServers >= 1 &&
                    storageServers >= 1,
                "cluster tier needs >= 1 servers (empty graph)");
    simr_assert(storageCores >= 1, "storageCores must be >= 1");
    simr_assert(users >= 1, "cluster users must be >= 1");
    simr_assert(requests >= 1, "cluster requests must be >= 1");
    simr_assert(requests < UINT32_MAX,
                "cluster requests must fit 32-bit request ids");
    simr_assert(qps > 0, "cluster qps must be positive");
    simr_assert(burstProb >= 0 && burstProb <= 1,
                "burstProb must be a probability");
    simr_assert(burstScale >= 1, "burstScale must be >= 1");
    simr_assert(shards >= 0, "shards must be >= 0 (0 = auto)");
    simr_assert(threads >= 0, "threads must be >= 0 (0 = auto)");
}

ClusterConfig
oneReplica()
{
    ClusterConfig c;
    c.webServers = 1;
    c.userServers = 1;
    c.mcrouterServers = 1;
    c.memcServers = 1;
    c.storageServers = 1;
    c.users = 1;
    c.shards = 1;
    c.threads = 1;
    return c;
}

ClusterResult
runCluster(const ClusterConfig &cfg)
{
    int shards = cfg.shards > 0 ? cfg.shards : defaultThreads();
    int threads = cfg.threads > 0 ? cfg.threads : defaultThreads();
    return runClusterImpl(cfg, shards, threads);
}

ClusterResult
runClusterSequential(const ClusterConfig &cfg)
{
    return runClusterImpl(cfg, 1, 1);
}

} // namespace simr::sys
