#include "sys/cluster.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "obs/journey.h"
#include "obs/metrics.h"
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

/** Event kinds: 0..4 = batch arrival at that tier; 5 = orphan-capacity
 *  charge at the user tier. Event keys are batch * kKeyStride + kind,
 *  so every event of a run has a unique identity-derived key (a batch
 *  visits each tier at most once and is charged at most once). */
constexpr uint32_t kKindCharge = 5;
constexpr uint64_t kKeyStride = 8;

/** A simulated server: its service station plus its share of the tier
 *  statistics. Touched only by its own events (PDES Model contract). */
struct NodeState
{
    Station station;
    RunningStat waitUs;
    RunningStat serviceUs;
};

/** Per-batch causal flight record (tier timings consumed by journey
 *  construction at the completion point). Allocated only when a
 *  JourneyRecorder is in scope; written along the batch's causal event
 *  chain, so the kernel's mailbox/barrier handoff publishes it. */
struct Flight
{
    double enq[4] = {}, start[4] = {}, done[4] = {};
    double senq = 0, sstart = 0, sdone = 0;
};

/** Per-shard accumulator. Totals are folded in shard order after the
 *  run; each is partition-invariant (sums and a max), so the fold is
 *  bit-identical at any shard count. Cache-line sized: shards on
 *  different workers never false-share. */
struct alignas(64) ShardCtx
{
    uint64_t misses = 0;
    uint64_t orphans = 0;
    double maxCompletion = 0;
    obs::JourneyRecorder::Cursor jcur;
    bool jcurReady = false;
};

enum class Who { kAll, kHits, kMisses };

class ClusterModel : public Model
{
  public:
    ClusterModel(const ClusterConfig &cfg, int setup_threads)
        : cfg_(cfg), jrec_(obs::Scope::journeys())
    {
        webSalt_ = mix64(cfg.seed ^ 0x7765625f73727677ULL);
        missSalt_ = mix64(cfg.seed ^ 0x6d656d635f6d7373ULL);
        routeSalt_ = mix64(cfg.seed ^ 0x726f7574655f6872ULL);
        buildNodes();
        buildLoad(setup_threads);
        if (jrec_)
            flights_.resize(nBatches_);
    }

    uint32_t nodeCount() const override { return totalNodes_; }

    void
    prepare(int shards, int workers) override
    {
        (void)workers;
        ctx_.assign(static_cast<size_t>(shards), ShardCtx());
    }

    void apply(const Event &ev, EventSink &sink, int shard) override;

    /** Each web server's first batch. The offered load is streamed,
     *  not preloaded: every web-tier arrival schedules its server's
     *  next batch (apply), so the queues hold in-flight work only. */
    std::vector<Event>
    initialEvents() const
    {
        std::vector<Event> out;
        for (uint64_t b = 0; b < nBatches_; ++b)
            if (b == 0 || webOfBatch_[b] != webOfBatch_[b - 1])
                out.push_back(webArrival(b));
        return out;
    }

    /** Fold per-shard and per-node state into the result and expose it
     *  through the scoped registry. Caller thread, after runPdes. */
    void finish(ClusterResult *res, int threads);

  private:
    void buildNodes();
    void buildLoad(int threads);

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

    /** Batch b reaching its home web server at its emit time. */
    Event
    webArrival(uint64_t b) const
    {
        return {emit_[b], b * kKeyStride, webOfBatch_[b], kTierWeb, b, 0};
    }

    /** Destination node of a batch at a tier: its home web server at
     *  tier 0, a per-(batch, tier) hash pick elsewhere. */
    uint32_t
    routeNode(uint64_t b, int tier) const
    {
        if (tier == kTierWeb)
            return webOfBatch_[b];
        return tierBase_[tier] +
               static_cast<uint32_t>(
                   mix64(routeSalt_ ^
                         (b * kKeyStride +
                          static_cast<uint64_t>(tier))) %
                   tierCount_[tier]);
    }

    obs::JourneyRecorder::Cursor &
    cursorFor(ShardCtx &cx)
    {
        // Lazily bound on the owning worker thread (a PDES shard is
        // pinned to one worker, so the cursor's thread affinity holds).
        if (!cx.jcurReady) {
            cx.jcur = jrec_->cursor();
            cx.jcurReady = true;
        }
        return cx.jcur;
    }

    void completeBatch(uint64_t b, Who who, bool any_miss, double done,
                       double reconv, ShardCtx &cx);
    void buildJourney(uint32_t rid, uint64_t b, uint32_t n,
                      bool is_miss, bool blocked, double done,
                      double reconv, uint64_t key);

    ClusterConfig cfg_;
    obs::JourneyRecorder *jrec_;
    uint64_t webSalt_ = 0, missSalt_ = 0, routeSalt_ = 0;

    // Static topology.
    uint32_t tierBase_[kTiers] = {};
    uint32_t tierCount_[kTiers] = {};
    uint32_t totalNodes_ = 0;
    std::vector<NodeState> nodes_;

    // Offered load, columnar (read-only during the run).
    std::vector<double> arrival_;       ///< per request, by reqId
    std::vector<uint32_t> reqFlat_;     ///< reqIds, batch-contiguous
    std::vector<uint64_t> batchFirst_;  ///< batch -> [first, first+1)
    std::vector<double> emit_;          ///< batch emit time
    std::vector<uint32_t> webOfBatch_;  ///< batch home web node
    uint64_t nBatches_ = 0;
    double minArrival_ = 0;

    // Run outputs.
    std::vector<double> e2e_;     ///< per request; disjoint writes
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
    // Storage is the paper's disk/flash tier: a real queueing station
    // here (the single-graph model used a fixed latency), but never
    // RPU-scaled.
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
        base += tierCount_[t];
    }
    totalNodes_ = base;
    nodes_.reserve(totalNodes_);
    for (int t = 0; t < kTiers; ++t)
        for (uint32_t i = 0; i < tierCount_[t]; ++i)
            nodes_.push_back({Station(kTierNames[t], 0, defs[t].rate,
                                      defs[t].latency),
                              {},
                              {}});
}

void
ClusterModel::buildLoad(int threads)
{
    const uint64_t nreq = cfg_.requests;
    const uint64_t users = cfg_.users;
    const uint32_t nweb = static_cast<uint32_t>(cfg_.webServers);
    arrival_.resize(nreq);
    e2e_.assign(nreq, 0.0);

    // Chunk boundaries are functions of the problem size only, so
    // every parallel pass below lands identical bits at any thread
    // count (and serial at threads == 1 -- the sequential engine).
    const size_t nchunks =
        static_cast<size_t>(std::min<uint64_t>(users, 256));
    auto clientBegin = [&](size_t k) { return users * k / nchunks; };

    // 1. Per-client open-loop Poisson streams, identity-derived seeds.
    const double mean_gap = static_cast<double>(users) * 1e6 / cfg_.qps;
    std::vector<double> chunkMin(nchunks, kInf);
    parallelFor(
        nchunks,
        [&](size_t k) {
            double lo = kInf;
            for (uint64_t c = clientBegin(k); c < clientBegin(k + 1);
                 ++c) {
                uint64_t cnt = clientCount(c);
                if (cnt == 0)
                    continue;
                Rng rng(mix64(cfg_.seed ^ 0x636c69656e747374ULL) ^
                        mix64(c));
                uint64_t off = clientOffset(c);
                double t = 0;
                for (uint64_t i = 0; i < cnt; ++i) {
                    double g = rng.exponential(mean_gap);
                    if (cfg_.burstProb > 0 &&
                        rng.chance(cfg_.burstProb))
                        g /= cfg_.burstScale;
                    t += g;
                    arrival_[off + i] = t;
                }
                lo = std::min(lo, arrival_[off]);
            }
            chunkMin[k] = lo;
        },
        threads);
    minArrival_ = kInf;
    for (double v : chunkMin)
        minArrival_ = std::min(minArrival_, v);

    // 2. Deterministic counting sort of requests into web-server
    // slices (client -> home server by hash; within a server, client
    // order, i.e. reqId order, before the time sort).
    std::vector<uint64_t> cnt(nchunks * nweb, 0);
    parallelFor(
        nchunks,
        [&](size_t k) {
            uint64_t *row = &cnt[k * nweb];
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
            for (size_t k = 0; k < nchunks; ++k) {
                uint64_t v = cnt[k * nweb + w];
                cnt[k * nweb + w] = run;
                run += v;
            }
        }
        serverOff[nweb] = run;
    }
    std::vector<std::pair<double, uint32_t>> byServer(nreq);
    parallelFor(
        nchunks,
        [&](size_t k) {
            uint64_t *row = &cnt[k * nweb];
            for (uint64_t c = clientBegin(k); c < clientBegin(k + 1);
                 ++c) {
                uint32_t w = webOf(c);
                uint64_t off = clientOffset(c);
                uint64_t n = clientCount(c);
                uint64_t cur = row[w];
                for (uint64_t i = 0; i < n; ++i, ++cur)
                    byServer[cur] = {arrival_[off + i],
                                     static_cast<uint32_t>(off + i)};
                row[w] = cur;
            }
        },
        threads);

    // 3. Per-server arrival sort + batch formation.
    int bsize = cfg_.base.rpu ? cfg_.base.batchSize : 1;
    std::vector<std::vector<BatchWindow>> perServer(nweb);
    parallelFor(
        nweb,
        [&](size_t w) {
            auto lo = byServer.begin() +
                      static_cast<ptrdiff_t>(serverOff[w]);
            auto hi = byServer.begin() +
                      static_cast<ptrdiff_t>(serverOff[w + 1]);
            std::sort(lo, hi);  // (time, reqId): total, deterministic
            size_t n = static_cast<size_t>(hi - lo);
            std::vector<double> times(n);
            for (size_t i = 0; i < n; ++i)
                times[i] = lo[static_cast<ptrdiff_t>(i)].first;
            perServer[w] = formBatchWindows(
                times.data(), n, bsize, cfg_.base.batchTimeoutUs);
        },
        threads);

    // 4. Concatenate per-server batches into dense global batch ids
    // (server-major, time-ordered within a server). reqFlat_ is
    // exactly the byServer order: batches tile each server's slice.
    std::vector<uint64_t> bOff(nweb + 1, 0);
    for (uint32_t w = 0; w < nweb; ++w)
        bOff[w + 1] = bOff[w] + perServer[w].size();
    nBatches_ = bOff[nweb];
    batchFirst_.resize(nBatches_ + 1);
    batchFirst_[nBatches_] = nreq;
    emit_.resize(nBatches_);
    webOfBatch_.resize(nBatches_);
    parallelFor(
        nweb,
        [&](size_t w) {
            uint64_t gb = bOff[w];
            for (const BatchWindow &bw : perServer[w]) {
                batchFirst_[gb] = serverOff[w] + bw.begin;
                emit_[gb] = bw.emitTime;
                webOfBatch_[gb] =
                    tierBase_[kTierWeb] + static_cast<uint32_t>(w);
                ++gb;
            }
        },
        threads);
    reqFlat_.resize(nreq);
    const size_t rchunks =
        static_cast<size_t>(std::min<uint64_t>(nreq, 256));
    parallelFor(
        rchunks,
        [&](size_t k) {
            uint64_t lo = nreq * k / rchunks;
            uint64_t hi = nreq * (k + 1) / rchunks;
            for (uint64_t i = lo; i < hi; ++i)
                reqFlat_[i] = byServer[i].second;
        },
        threads);
}

void
ClusterModel::apply(const Event &ev, EventSink &sink, int shard)
{
    ShardCtx &cx = ctx_[static_cast<size_t>(shard)];
    NodeState &nd = nodes_[ev.node];
    const uint64_t b = ev.batch;
    const double net = cfg_.base.netUs;

    if (ev.kind == kKindCharge) {
        // Split orphans re-execute alone at low SIMT efficiency,
        // consuming extra user-tier capacity (Fig. 17b).
        nd.station.charge(static_cast<double>(ev.aux) *
                          (cfg_.base.orphanPenalty - 1.0));
        return;
    }

    int tier = static_cast<int>(ev.kind);
    uint64_t first = batchFirst_[b];
    uint64_t last = batchFirst_[b + 1];
    int n = tier == kTierStorage ? static_cast<int>(ev.aux)
                                 : static_cast<int>(last - first);
    double start;
    double done = nd.station.process(ev.time, n, nd.waitUs,
                                     nd.serviceUs, nullptr, 0, &start);
    Flight *fl = flights_.empty() ? nullptr : &flights_[b];
    if (fl) {
        if (tier < kTierStorage) {
            fl->enq[tier] = ev.time;
            fl->start[tier] = start;
            fl->done[tier] = done;
        } else {
            fl->senq = ev.time;
            fl->sstart = start;
            fl->sdone = done;
        }
    }

    if (tier == kTierWeb && b + 1 < nBatches_ &&
        webOfBatch_[b + 1] == ev.node) {
        // Stream the server's next batch. Batch ids are server-major
        // and a server's emit times never decrease, so (time, key)
        // puts every later batch after this one: scheduling it now
        // changes no event's place in any node's order. Same node,
        // so it never crosses a shard.
        sink.emit(webArrival(b + 1));
    }

    if (tier < 3) {
        // Forward the batch one tier down the chain; the network hop
        // is the kernel's lookahead, so this emit is always legal.
        sink.emit({done + net,
                   b * kKeyStride + static_cast<uint64_t>(tier + 1),
                   routeNode(b, tier + 1),
                   static_cast<uint32_t>(tier + 1), b, 0});
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
            completeBatch(b, Who::kAll, false, hit_done, 0, cx);
            return;
        }
        bool split = !cfg_.base.rpu || cfg_.base.batchSplit;
        if (cfg_.base.rpu && cfg_.base.batchSplit) {
            cx.orphans += static_cast<uint64_t>(misses);
            sink.emit({bt, b * kKeyStride + kKindCharge,
                       routeNode(b, kTierUser), kKindCharge, b,
                       static_cast<uint64_t>(misses)});
        }
        if (split && misses < n)
            completeBatch(b, Who::kHits, true, hit_done, 0, cx);
        sink.emit({bt + net, b * kKeyStride + kTierStorage,
                   routeNode(b, kTierStorage), kTierStorage, b,
                   static_cast<uint64_t>(misses)});
        return;
    }

    // Storage: the misses finish their slow path; with an unsplit RPU
    // batch the hits have been waiting at the reconvergence point and
    // complete alongside them (Fig. 17a).
    double miss_done = done + 2 * net;
    bool split = !cfg_.base.rpu || cfg_.base.batchSplit;
    completeBatch(b, split ? Who::kMisses : Who::kAll, true, miss_done,
                  done + net, cx);
}

void
ClusterModel::completeBatch(uint64_t b, Who who, bool any_miss,
                            double done, double reconv, ShardCtx &cx)
{
    uint64_t first = batchFirst_[b];
    uint64_t last = batchFirst_[b + 1];
    if (done > cx.maxCompletion)
        cx.maxCompletion = done;

    obs::JourneyRecorder::Cursor *cur = nullptr;
    if (jrec_) {
        uint64_t group = 0;
        for (uint64_t i = first; i < last; ++i) {
            bool m = any_miss && missOf(reqFlat_[i]);
            group += (who == Who::kAll ||
                      (who == Who::kMisses) == m) ?
                         1 :
                         0;
        }
        cur = &cursorFor(cx);
        cur->beginGroup(group);
    }

    uint32_t n = static_cast<uint32_t>(last - first);
    for (uint64_t i = first; i < last; ++i) {
        uint32_t rid = reqFlat_[i];
        bool m = any_miss && missOf(rid);
        if (who == Who::kHits && m)
            continue;
        if (who == Who::kMisses && !m)
            continue;
        double e2e = done - arrival_[rid];
        e2e_[rid] = e2e;
        if (cur) {
            uint64_t key;
            if (cur->offer(rid, e2e, &key))
                buildJourney(rid, b, n, m, any_miss && !m && reconv > 0,
                             done, reconv, key);
        }
    }
}

void
ClusterModel::buildJourney(uint32_t rid, uint64_t b, uint32_t n,
                           bool is_miss, bool blocked, double done,
                           double reconv, uint64_t key)
{
    const Flight &fl = flights_[b];
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
    ev(obs::JStage::Arrival, arrival_[rid], -1);
    ev(obs::JStage::BatchFormed, emit_[b], -1, b);
    for (int k = 0; k < 4; ++k) {
        ev(obs::JStage::TierEnqueue, fl.enq[k], k);
        ev(obs::JStage::TierStart, fl.start[k], k);
        ev(obs::JStage::TierDone, fl.done[k], k);
    }
    ev(obs::JStage::CacheOutcome, fl.done[3], 3, is_miss ? 1 : 0);
    if (is_miss) {
        if (j.orphan)
            ev(obs::JStage::SplitRetry, fl.done[3], 3, b);
        ev(obs::JStage::TierEnqueue, fl.senq, kTierStorage);
        ev(obs::JStage::TierStart, fl.sstart, kTierStorage);
        ev(obs::JStage::TierDone, fl.sdone, kTierStorage);
        ev(obs::JStage::Completion, done, -1);
    } else if (blocked) {
        ev(obs::JStage::ReconvJoin, reconv, -1, b, true);
        ev(obs::JStage::Completion, done, -1);
    } else {
        ev(obs::JStage::Completion, done, -1);
    }
    jrec_->admit(std::move(j), key);
}

void
ClusterModel::finish(ClusterResult *res, int threads)
{
    const uint64_t nreq = cfg_.requests;
    res->servers = totalNodes_;
    res->batches = nBatches_;
    double max_completion = 0;
    for (const ShardCtx &cx : ctx_) {  // shard order; all folds are
        res->memcMisses += cx.misses;  // partition-invariant
        res->splitOrphans += cx.orphans;
        max_completion = std::max(max_completion, cx.maxCompletion);
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

    // End-to-end histogram from fixed reqId-ordered chunks, merged in
    // chunk order: bit-identical at any thread count (and between the
    // sequential and sharded engines, which both run this fold).
    const size_t hchunks =
        static_cast<size_t>(std::min<uint64_t>(nreq, 64));
    if (hchunks > 0) {
        std::vector<Histogram> parts(hchunks);
        parallelFor(
            hchunks,
            [&](size_t k) {
                uint64_t lo = nreq * k / hchunks;
                uint64_t hi = nreq * (k + 1) / hchunks;
                for (uint64_t i = lo; i < hi; ++i)
                    parts[k].add(e2e_[i]);
            },
            threads);
        for (const Histogram &p : parts)
            res->sys.e2eUs.merge(p);
    }

    // Registry exposition, caller thread: same surface as the
    // single-graph scenario plus the cluster shape.
    obs::Registry *reg = obs::Scope::registry();
    reg->counter("sys.requests")->inc(nreq);
    reg->counter("sys.batches")->inc(nBatches_);
    reg->counter("sys.memc_misses")->inc(res->memcMisses);
    reg->counter("sys.split_orphans")->inc(res->splitOrphans);
    reg->counter("sys.servers")->inc(totalNodes_);
    reg->gauge("sys.offered_qps")->set(res->sys.offeredQps);
    reg->gauge("sys.achieved_qps")->set(res->sys.achievedQps);
    reg->hist("sys.e2e_us")->record(res->sys.e2eUs);
    for (const auto &tier : res->sys.tiers) {
        obs::ShardedHist *wait =
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
    pc.mailboxCapacity = cfg.mailboxCapacity;
    ClusterResult res;
    res.pdes = runPdes(model, model.initialEvents(), pc);
    model.finish(&res, threads);
    return res;
}

} // namespace

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
    simr_assert(mailboxCapacity >= 1, "mailboxCapacity must be >= 1");
}

ClusterResult
runCluster(const ClusterConfig &cfg)
{
    int shards = cfg.shards;
    if (shards <= 0)
        shards = static_cast<int>(envInt("SIMR_SYS_SHARDS", 0, 0));
    if (shards <= 0)
        shards = defaultThreads();
    int threads = cfg.threads > 0 ? cfg.threads : defaultThreads();
    return runClusterImpl(cfg, shards, threads);
}

ClusterResult
runClusterSequential(const ClusterConfig &cfg)
{
    return runClusterImpl(cfg, 1, 1);
}

} // namespace simr::sys
