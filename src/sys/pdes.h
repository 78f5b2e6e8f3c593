/**
 * @file
 * Conservative parallel discrete-event simulation (PDES) kernel for the
 * system-level cluster simulator.
 *
 * The model is a set of actor nodes (simulated servers) exchanging
 * timestamped events. Nodes are partitioned into shards; each shard
 * owns a local event queue (a binary heap ordered by (time, key)) and
 * advances inside a conservative lookahead window: with L the minimum
 * latency of any cross-shard edge (the cluster's network hop), every
 * event a remote shard can still send into the window [T, T+L) must
 * carry a timestamp >= T + L, so each shard may process its local
 * events with time < T + L without ever seeing a straggler. Windows
 * are separated by barriers at which cross-shard events -- carried by
 * bounded lock-free SPSC mailboxes with overflow-spill backpressure --
 * are drained into the destination heaps.
 *
 * Determinism contract (the sys_pdes_gate): each node processes its
 * events in global (time, key) order no matter how nodes are sharded
 * or how shards are spread over workers, because (a) keys are unique
 * and derived from event identity, never from arrival order or a
 * global counter, (b) mailbox delivery order is irrelevant -- received
 * events are re-sorted into the destination heap -- and (c) a model's
 * per-node state is touched only by that node's events. A model whose
 * apply() draws randomness from identity-derived hashes (never a
 * shared sequential Rng) therefore produces bit-identical results at
 * any shard count and any worker count, including the single-shard
 * degenerate case, which short-circuits to the plain sequential
 * event loop (runPdes with shards == 1 IS the sequential engine).
 *
 * Zero lookahead cannot be windowed conservatively, so it degrades to
 * the sequential engine (shards forced to 1) rather than to a wrong
 * answer. A positive lookahead so small that T + L rounds back to T
 * opens empty windows; the sharded kernel exits through simr_fatal
 * naming both values rather than spin on them.
 */

#ifndef SIMR_SYS_PDES_H
#define SIMR_SYS_PDES_H

#include <cstdint>
#include <vector>

namespace simr::sys
{

/**
 * One timestamped event. `key` is the deterministic total-order
 * tie-break for simultaneous events: models must make it unique per
 * event and derive it from event identity (e.g. batch id and hop
 * index), never from emission order.
 */
struct Event
{
    double time = 0;     ///< simulated microseconds
    uint64_t key = 0;    ///< unique identity-derived tie-break
    uint32_t node = 0;   ///< destination node (actor) id
    uint32_t kind = 0;   ///< model-defined event type
    uint64_t batch = 0;  ///< model payload: batch id
    uint64_t aux = 0;    ///< model payload: kind-specific word
};

/** Deterministic event order: earlier time first, then smaller key. */
inline bool
eventBefore(const Event &a, const Event &b)
{
    if (a.time != b.time)
        return a.time < b.time;
    return a.key < b.key;
}

/** Sink handed to Model::apply for emitting successor events. */
class EventSink
{
  public:
    virtual void emit(const Event &ev) = 0;

  protected:
    ~EventSink() = default;
};

/**
 * The simulated model: node count plus the event handler. apply() runs
 * on a worker thread; it may touch per-node state of ev.node, shard
 * context indexed by `shard`, and state reachable only through the
 * event's own causal chain (the kernel's mailbox/barrier handoff
 * publishes writes of causally earlier events). It must not touch
 * other nodes' state.
 */
class Model
{
  public:
    virtual ~Model() = default;

    virtual uint32_t nodeCount() const = 0;

    /** Called once before the run with the resolved shard count. */
    virtual void prepare(int shards, int workers) = 0;

    virtual void apply(const Event &ev, EventSink &sink, int shard) = 0;
};

/** Kernel knobs. */
struct PdesConfig
{
    double lookaheadUs = 0;  ///< min cross-shard edge latency; <= 0
                             ///  forces the sequential single shard
    int shards = 1;          ///< event-queue partitions (>= 1)
    int threads = 1;         ///< worker cap; effective workers =
                             ///  min(threads, shards)
    int mailboxCapacity = 256;  ///< ring slots per shard pair
};

/** Kernel diagnostics (scheduling-dependent; never model output). */
struct PdesStats
{
    uint64_t events = 0;           ///< apply() calls
    uint64_t windows = 0;          ///< lookahead windows executed
    uint64_t mailboxSends = 0;     ///< cross-shard events via rings
    uint64_t mailboxOverflows = 0; ///< ring-full spills (backpressure)
    uint64_t peakQueued = 0;       ///< most events one shard's queue
                                   ///  held at once
    int shards = 1;                ///< effective shard count
    int workers = 1;               ///< effective worker count
};

/** Shard owning a node: round-robin, the kernel's partition map. */
inline int
shardOfNode(uint32_t node, int shards)
{
    return static_cast<int>(node % static_cast<uint32_t>(shards));
}

/**
 * Run the model to completion from the initial event population.
 * Destroys `initial` (moved into the shard heaps). The heaps hold only
 * pending events, so a model that seeds its sources and lets each
 * source event schedule its successor on the same node (the cluster's
 * web servers) keeps them proportional to in-flight work rather than
 * to the run length. With cfg.shards == 1
 * (or lookahead <= 0, which forces it) this is the plain sequential
 * event loop: one heap, no windows, no mailboxes -- the reference
 * engine the determinism gate compares against.
 */
PdesStats runPdes(Model &m, std::vector<Event> initial,
                  const PdesConfig &cfg);

} // namespace simr::sys

#endif // SIMR_SYS_PDES_H
