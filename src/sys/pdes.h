/**
 * @file
 * Conservative parallel discrete-event simulation (PDES) kernel for the
 * system-level cluster simulator.
 *
 * The model is a set of actor nodes (simulated servers) exchanging
 * timestamped events. Nodes are partitioned round-robin into shards;
 * a shard keeps one small (time, key) min-heap per owned node, the
 * list of its nodes with pending events and its earliest pending
 * time, and advances inside a conservative lookahead window. The
 * lookahead L bounds every edge between two distinct nodes, not only
 * the edges that cross a shard: an event a node emits to another node
 * lands at or past the end of the current window [T, T+L) (asserted
 * at emit), and only a node's events to itself may land inside it. So
 * when a window opens, every event any node will handle inside it is
 * either already in that node's heap or one the node emits to itself
 * during the window, and the shard takes its pending nodes one at a
 * time, popping and applying each node's events with time < T + L in
 * (time, key) order; a self-emit inside the window goes back into the
 * node's own heap and is popped in its turn. A shard appends each
 * event for another shard to a plain outbox vector for that shard.
 * Two spin barriers make each window's cycle: after the first, every
 * worker reduces the same global minimum pending time and processes
 * its shards' window; after the second, every worker drains the
 * outboxes addressed to its shards into their node heaps and
 * publishes its own minimum. A window's producers and the next
 * window's consumers never run at once, so the barrier is the only
 * handoff.
 *
 * Determinism contract (the sys_pdes_gate): each node processes its
 * events in global (time, key) order no matter how nodes are sharded
 * or how shards are spread over workers, because (a) keys are unique
 * and derived from event identity, never from arrival order or a
 * global counter, (b) outbox delivery order is irrelevant -- received
 * events are re-sorted into the destination node's heap -- and (c) a
 * model's per-node state is touched only by that node's events, so
 * the order in which a shard visits its nodes inside a window is
 * irrelevant too. A model whose apply() draws randomness from
 * identity-derived hashes (never a shared sequential Rng) therefore
 * produces bit-identical results at any shard count and any worker
 * count, including the single-shard degenerate case, which
 * short-circuits to the plain sequential event loop over one heap
 * (runPdes with shards == 1 IS the sequential engine).
 *
 * Zero lookahead cannot be windowed conservatively, so it degrades to
 * the sequential engine (shards forced to 1) rather than to a wrong
 * answer. A positive lookahead so small that T + L rounds back to T
 * opens empty windows; the sharded kernel exits through simr_fatal
 * naming both values rather than spin on them (worker 0 alone reports
 * it).
 */

#ifndef SIMR_SYS_PDES_H
#define SIMR_SYS_PDES_H

#include <cstdint>
#include <vector>

namespace simr::sys
{

/**
 * One timestamped event, 24 bytes: {time, key, node, aux}. `key` is
 * the deterministic total-order tie-break for simultaneous events:
 * models must make it unique per event and derive it from event
 * identity (e.g. batch id and hop index), never from emission order.
 * Being identity, it is also where a model keeps the event's kind and
 * subject (the cluster: batch * stride + kind); `aux` carries one more
 * word of payload.
 */
struct Event
{
    double time = 0;    ///< simulated microseconds
    uint64_t key = 0;   ///< unique identity-derived tie-break
    uint32_t node = 0;  ///< destination node (actor) id
    uint32_t aux = 0;   ///< model payload: kind-specific word
};
static_assert(sizeof(Event) == 24, "Event is three 8-byte words");

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
 * event's own causal chain (the kernel's barrier handoff publishes
 * writes of causally earlier events). It must not touch
 * other nodes' state, and every event it emits to another node must
 * land at least one lookahead after ev.time; only its emits to ev.node
 * itself may come sooner.
 */
class Model
{
  public:
    virtual ~Model() = default;

    virtual uint32_t nodeCount() const = 0;

    /** Called once before the run with the resolved shard count. */
    virtual void prepare(int shards) = 0;

    virtual void apply(const Event &ev, EventSink &sink, int shard) = 0;
};

/** Kernel knobs. */
struct PdesConfig
{
    double lookaheadUs = 0;  ///< min latency of any edge between two
                             ///  distinct nodes: every cross-node
                             ///  emit lands >= the window end; <= 0
                             ///  forces the sequential single shard
    int shards = 1;          ///< event-queue partitions (>= 1)
    int threads = 1;         ///< worker cap; effective workers =
                             ///  min(threads, shards)
};

/** Kernel diagnostics (scheduling-dependent; never model output). */
struct PdesStats
{
    uint64_t events = 0;           ///< apply() calls
    uint64_t windows = 0;          ///< lookahead windows executed
    uint64_t mailboxSends = 0;     ///< cross-shard events (outbox
                                   ///  appends)
    uint64_t mailboxOverflows = 0; ///< always 0: outboxes are
                                   ///  unbounded and never spill; kept
                                   ///  because perfbench reports it as
                                   ///  sys.mailbox_spills
    uint64_t peakQueued = 0;       ///< most events one shard held
                                   ///  pending at once, over all its
                                   ///  node heaps
    int shards = 1;                ///< effective shard count
    int workers = 1;               ///< effective worker count
};

/**
 * Run the model to completion from the initial event population.
 * Destroys `initial` (moved into the node heaps). The heaps hold only
 * pending events, so a model that seeds its sources and lets each
 * source event schedule its successor on the same node (the cluster's
 * web servers) keeps them proportional to in-flight work rather than
 * to the run length. With cfg.shards == 1
 * (or lookahead <= 0, which forces it) this is the plain sequential
 * event loop: one heap, no windows, no outboxes -- the reference
 * engine the determinism gate compares against.
 */
PdesStats runPdes(Model &m, std::vector<Event> initial,
                  const PdesConfig &cfg);

} // namespace simr::sys

#endif // SIMR_SYS_PDES_H
