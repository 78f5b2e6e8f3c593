/**
 * @file
 * The system simulator: the social-network User scenario of Fig. 3 on
 * the PDES kernel, from uqSim's single service graph (Fig. 22) up to a
 * datacenter-scale cluster.
 *
 *   clients -> web[W] -> user[U] -> mcrouter[M] -> memc[K] --hit--> reply
 *                                                      \--miss--> storage[S]
 *
 * Each tier is replicated across server nodes; oneReplica() is uqSim's
 * shape, one server per tier fed by one Poisson client stream. Every
 * server is a rate-and-latency Station: requests (or whole batches)
 * occupy service capacity 1/R at latency L, so queueing delay emerges
 * under load. The RPU system replaces the CPU tiers with machines of
 * 5x the throughput per watt at 1.2x the latency (the chip-level
 * results) and batches requests at the web tier (size 32 or timeout).
 * Batch splitting (Section III-B5) decides what happens when some
 * requests in a batch miss memcached and must visit millisecond-scale
 * storage:
 *
 *  - without splitting, every request in the batch waits for the
 *    reconvergence point after storage;
 *  - with splitting, hits return immediately and the blocked orphans
 *    continue alone, paying a SIMT-efficiency penalty on user-tier
 *    capacity.
 *
 * Open-loop users are independent Poisson client streams (optionally
 * bursty) with identity-derived seeds; a client sticks to one web
 * server (consistent-hash load balancing), where its requests are
 * batched and routed tier to tier by per-batch hashes. Storage is a
 * real queueing station, never RPU-scaled. Every tier-to-tier hop
 * crosses the network, so the minimum network latency is the PDES
 * lookahead.
 *
 * The offered load is generated up front but streamed into the engine:
 * each web server has one pending batch arrival at a time, and handling
 * it schedules the same server's next batch -- the one emit that stays
 * on its node instead of crossing the network. The event queues thus
 * hold in-flight work (PdesStats::peakQueued), not the whole run. The
 * load itself sits in flat columns, one time-sorted slice per web
 * server; a completing request's slot trades its arrival for its
 * latency. At one request per batch that is 24 bytes per request
 * (the sys.load_bytes gauge).
 *
 * Determinism: all randomness is either per-client streams with
 * identity-derived seeds (arrival processes) or stateless hashes of
 * request identity (memcached outcomes, routing), and every
 * floating-point reduction (tier-stat merges, the latency histogram)
 * folds in a fixed order independent of shard and worker counts --
 * the sharded engine is bit-identical to the sequential reference at
 * any shards x SIMR_THREADS (ctest sys_pdes_gate), including the
 * sampled journey set.
 *
 * Observability, all strictly read-only (nothing feeds back into the
 * simulation, so ClusterResult is bit-identical with or without it):
 *  - sys.* metrics go to the scoped obs::Registry, recorded by the
 *    calling thread after the run (per-shard totals folded in shard
 *    order, the input-order discipline runCells uses);
 *  - with an obs::JourneyRecorder in scope (obs::Scope's third slot,
 *    Off mode counting as none), every request is offered for
 *    per-request causal journey capture (obs/journey.h): arrival,
 *    batch formation, per-tier enqueue/start/done, memcached hit/miss,
 *    storage visits, split retries and reconvergence stalls. Each
 *    shard offers into its own reservoir (the scoped recorder's mode,
 *    capacity and seed), merged into the scoped one in shard order on
 *    the calling thread after the run;
 *  - with a tracer in scope, the run emits a Perfetto timeline in
 *    simulated microseconds on pid 2: batch-formation spans (tid 1),
 *    one service-occupancy track per server (tid 2 + node index, so
 *    web to storage are tids 2-6 at one replica) and one async span
 *    per request from arrival to completion. The tracer serializes
 *    emission, so a sharded run may record the spans in another order,
 *    never another set.
 */

#ifndef SIMR_SYS_CLUSTER_H
#define SIMR_SYS_CLUSTER_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "sys/pdes.h"

namespace simr::sys
{

/** Per-server tier parameters: platform, batching, service latencies
 *  and per-server capacities. */
struct SysConfig
{
    // Platform.
    bool rpu = false;           ///< RPU machines instead of CPU
    bool batchSplit = true;     ///< Section III-B5 technique
    int batchSize = 32;
    double batchTimeoutUs = 100.0;
    double rpuThroughputScale = 5.0;  ///< from chip-level results
    double rpuLatencyScale = 1.2;
    double orphanPenalty = 4.0; ///< capacity cost factor of split orphans

    // Tier service latencies (us) and CPU capacities (cores).
    double webSvcUs = 30.0;
    double userSvcUs = 100.0;
    double mcrouterSvcUs = 20.0;
    double memcSvcUs = 25.0;
    double storageSvcUs = 1000.0;
    double netUs = 60.0;
    int webCores = 8;
    int userCores = 2;
    int mcrouterCores = 2;
    int memcCores = 2;
    double memcHitRate = 0.9;

    /**
     * Die loudly (simr_fatal) on configurations the model cannot mean
     * anything for: an empty batch window, non-positive tier
     * capacities, negative latencies, a hit rate outside [0, 1].
     * Construction-time validation, same pattern as CacheConfig /
     * MemPathConfig: ClusterConfig::validate() calls it before every
     * run.
     */
    void validate() const;
};

/** Per-tier latency breakdown (uqSim-style model validation view). */
struct TierStat
{
    std::string name;          ///< "web", "user", "mcrouter", "memc",
                               ///  "storage"
    RunningStat waitUs;        ///< queueing delay ahead of service
    RunningStat serviceUs;     ///< service occupancy per batch

    bool operator==(const TierStat &) const = default;
};

/** Scenario outcome. */
struct SysResult
{
    double offeredQps = 0;
    double achievedQps = 0;
    Histogram e2eUs;           ///< end-to-end request latency
    std::vector<TierStat> tiers;  ///< per-tier breakdown, tier order

    double meanUs() const { return e2eUs.mean(); }
    double p99Us() const { return e2eUs.percentile(0.99); }

    /** Bit-identity of everything the run reports: the loads, the
     *  whole latency histogram and every tier statistic. */
    bool operator==(const SysResult &) const = default;
};

/** Cluster scenario + engine configuration. */
struct ClusterConfig
{
    SysConfig base;  ///< per-server tier parameters

    // Topology: replicas per tier.
    int webServers = 4;
    int userServers = 4;
    int mcrouterServers = 2;
    int memcServers = 2;
    int storageServers = 1;
    int storageCores = 16;  ///< per storage server (disk/flash tier;
                            ///  never RPU-scaled, as in the paper)

    // Load: open-loop population.
    uint64_t users = 20000;     ///< independent Poisson client streams
    uint64_t requests = 100000; ///< total requests across the cluster
    double qps = 100000;        ///< aggregate offered load
    uint64_t seed = 42;

    /** Bursty arrivals: with probability burstProb a client's next
     *  inter-arrival gap shrinks by burstScale (MMPP-flavoured
     *  open-loop bursts; 0 disables). */
    double burstProb = 0.0;
    double burstScale = 8.0;

    // Engine.
    int shards = 0;   ///< 0: defaultThreads() (SIMR_THREADS-aware)
    int threads = 0;  ///< 0: defaultThreads() (SIMR_THREADS-aware)

    /** Die loudly on zero-capacity tiers, empty graphs or loads,
     *  negative latencies and other nonsense. */
    void validate() const;

    uint32_t
    totalServers() const
    {
        return static_cast<uint32_t>(webServers + userServers +
                                     mcrouterServers + memcServers +
                                     storageServers);
    }
};

/**
 * uqSim's shape of the User scenario, the one Fig. 22 runs: one server
 * per tier, one Poisson client stream at the offered load, one shard
 * on one worker (five nodes gain nothing from sharding). Load and
 * platform fields keep their ClusterConfig defaults.
 */
ClusterConfig oneReplica();

/** Cluster run outcome: the scenario result plus engine diagnostics.
 *  `sys` is the determinism-gated payload (bit-identical across shard
 *  and worker counts); `pdes` describes how the run was executed and
 *  legitimately varies with sharding. */
struct ClusterResult
{
    SysResult sys;  ///< tiers: web, user, mcrouter, memc, storage
    uint64_t servers = 0;
    uint64_t batches = 0;
    uint64_t memcMisses = 0;
    uint64_t splitOrphans = 0;
    PdesStats pdes;
};

/** Same scenario outcome: every ClusterResult field but `pdes`, the
 *  engine diagnostics that legitimately vary with sharding. */
inline bool
sameOutput(const ClusterResult &a, const ClusterResult &b)
{
    return a.sys == b.sys && a.servers == b.servers &&
        a.batches == b.batches && a.memcMisses == b.memcMisses &&
        a.splitOrphans == b.splitOrphans;
}

/**
 * Run the cluster scenario on the sharded PDES engine. Shards resolve
 * from cfg.shards, then defaultThreads(); workers from cfg.threads,
 * then defaultThreads().
 */
ClusterResult runCluster(const ClusterConfig &cfg);

/** The sequential reference: one event heap, one thread end to end
 *  (setup included). The engine the determinism gate and the scaling
 *  bench compare against. */
ClusterResult runClusterSequential(const ClusterConfig &cfg);

} // namespace simr::sys

#endif // SIMR_SYS_CLUSTER_H
