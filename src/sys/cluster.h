/**
 * @file
 * Datacenter-scale social-network scenario on the PDES kernel: the
 * Fig. 22 experiment grown from one service graph to a cluster.
 *
 * The cluster replicates each tier of the User scenario (Fig. 3)
 * across many server nodes:
 *
 *   clients -> web[W] -> user[U] -> mcrouter[M] -> memc[K]
 *                                        \--miss--> storage[S]
 *
 * Millions of open-loop users are modeled as independent Poisson
 * client streams (optionally bursty) with identity-derived seeds; a
 * client sticks to one web server (consistent-hash load balancing),
 * where its requests are batched (RPU systems) and routed tier to
 * tier by per-batch hashes. Every server is an actor node with its
 * own Station; every tier-to-tier hop crosses the network, so the
 * minimum network latency is the PDES lookahead.
 *
 * The offered load is generated up front but streamed into the engine:
 * each web server has one pending batch arrival at a time, and handling
 * it schedules the same server's next batch -- the one emit that stays
 * on its node instead of crossing the network. The event queues thus
 * hold in-flight work (PdesStats::peakQueued), not the whole run.
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
 * Observability: sys.* metrics are recorded into the scoped
 * obs::Registry by the calling thread after the run (per-shard totals
 * folded in shard order, the same input-order discipline runCells
 * uses for per-cell registries). When an obs::JourneyRecorder is in
 * scope, every request is offered for per-request causal journey
 * capture with the same event shape as runUserScenario, so the
 * anatomy drill-down works unchanged at cluster scale. The Perfetto
 * tracer is not consulted (a cluster run has millions of spans;
 * use the single-graph runUserScenario for timelines).
 */

#ifndef SIMR_SYS_CLUSTER_H
#define SIMR_SYS_CLUSTER_H

#include <cstdint>

#include "sys/pdes.h"
#include "sys/uqsim.h"

namespace simr::sys
{

/** Cluster scenario + engine configuration. */
struct ClusterConfig
{
    /**
     * Per-server tier parameters (service latencies, per-server cores,
     * platform/batching knobs). The load fields (qps, requests, seed)
     * are superseded by the cluster-level fields below.
     */
    SysConfig base;

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
    int shards = 0;   ///< 0: SIMR_SYS_SHARDS, else defaultThreads()
    int threads = 0;  ///< 0: defaultThreads() (SIMR_THREADS-aware)
    int mailboxCapacity = 256;  ///< ring slots per shard pair

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

/**
 * Run the cluster scenario on the sharded PDES engine. Shards resolve
 * from cfg.shards, then SIMR_SYS_SHARDS, then defaultThreads();
 * workers from cfg.threads, then defaultThreads().
 */
ClusterResult runCluster(const ClusterConfig &cfg);

/** The sequential reference: one event heap, one thread end to end
 *  (setup included). The engine the determinism gate and the scaling
 *  bench compare against. */
ClusterResult runClusterSequential(const ClusterConfig &cfg);

} // namespace simr::sys

#endif // SIMR_SYS_CLUSTER_H
