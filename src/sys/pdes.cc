#include "sys/pdes.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/logging.h"
#include "common/parallel.h"

namespace simr::sys
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/** The std heaps are max-heaps; invert eventBefore for min. */
struct EventAfter
{
    bool operator()(const Event &a, const Event &b) const
    {
        return eventBefore(b, a);
    }
};

using EventHeap =
    std::priority_queue<Event, std::vector<Event>, EventAfter>;

/** Sequential reference engine: one heap, pop in (time, key) order. */
PdesStats
runSequential(Model &m, std::vector<Event> initial)
{
    m.prepare(1);

    struct SeqSink : EventSink
    {
        EventHeap heap;
        void emit(const Event &ev) override { heap.push(ev); }
    } sink;
    for (const Event &ev : initial)
        sink.heap.push(ev);
    initial.clear();

    PdesStats stats;
    while (!sink.heap.empty()) {
        // The queue only grows between pops, so sampling its size
        // before each pop sees its peak.
        stats.peakQueued =
            std::max<uint64_t>(stats.peakQueued, sink.heap.size());
        Event ev = sink.heap.top();
        sink.heap.pop();
        ++stats.events;
        m.apply(ev, sink, 0);
    }
    return stats;
}

/** Push onto a node's (time, key) min-heap. */
void
pushEvent(std::vector<Event> &heap, const Event &ev)
{
    heap.push_back(ev);
    std::push_heap(heap.begin(), heap.end(), EventAfter());
}

/**
 * One shard: a min-heap per owned node, the owned nodes whose heap is
 * non-empty, and an outbox per destination shard. Nodes are dealt
 * round-robin: node n belongs to shard n % shards, whose heap
 * n / shards is its own. A window visits only the listed nodes, so a
 * shard's cost per window tracks its pending work, not its node count.
 * Cache-line aligned: the counters one worker bumps per event never
 * share a line with the heaps another worker's shard is reading.
 */
struct alignas(64) Shard
{
    std::vector<std::vector<Event>> heaps;
    std::vector<uint32_t> pending;  ///< heap indices of non-empty heaps
    double earliest = kInf;         ///< earliest pending event time
    uint64_t queued = 0;            ///< events over all the heaps

    /** Cross-shard events emitted in the current window, one vector
     *  per destination shard. Only this shard's worker appends, while
     *  it processes the window; the destination's worker drains and
     *  clears the vector after the barrier that ends the window, and
     *  that barrier publishes the plain writes. Kept on the sender so
     *  the workers appending never write to each other's vectors. */
    std::vector<std::vector<Event>> outbox;

    uint64_t events = 0;
    uint64_t sends = 0;
    uint64_t peak = 0;  ///< `queued`, sampled before each pop

    /** An event for another node than the one being applied. */
    void
    add(const Event &ev, uint32_t local)
    {
        std::vector<Event> &heap = heaps[local];
        if (heap.empty())
            pending.push_back(local);
        pushEvent(heap, ev);
        ++queued;
        earliest = std::min(earliest, ev.time);
    }
};

/** Worker-side emit routing for one shard being processed. */
class ShardSink : public EventSink
{
  public:
    ShardSink(Shard &shard, int src, int nshards, double window_end)
        : s_(shard), src_(src), nshards_(nshards), windowEnd_(window_end)
    {
    }

    /** The node whose events apply() is handling. */
    uint32_t node = 0;

    void
    emit(const Event &ev) override
    {
        const uint32_t ns = static_cast<uint32_t>(nshards_);
        const uint32_t local = ev.node / ns;
        if (ev.node == node) {
            // The node is mid-drain, so it stays listed even while its
            // heap is momentarily empty.
            pushEvent(s_.heaps[local], ev);
            ++s_.queued;
            return;
        }
        // Conservative-lookahead contract: an event for any other node
        // must land at or beyond the current window's end, so no node's
        // in-window events change while its shard drains it.
        simr_assert(ev.time >= windowEnd_,
                    "cross-node event inside the lookahead window");
        const int dst = static_cast<int>(ev.node - local * ns);
        if (dst == src_) {
            s_.add(ev, local);
            return;
        }
        ++s_.sends;
        s_.outbox[static_cast<size_t>(dst)].push_back(ev);
    }

  private:
    Shard &s_;
    int src_;
    int nshards_;
    double windowEnd_;
};

/**
 * Apply every event of shard `s` with time < window_end: each pending
 * node in turn, its events in (time, key) order. Nodes whose heap
 * empties leave the pending list; a node another node emitted to joins
 * it (at its end, so this pass visits it too). `earliest` is rebuilt
 * from the heads left behind and the emits that joined.
 */
void
drainWindow(Model &m, Shard &sh, int s, int nshards, double window_end)
{
    ShardSink sink(sh, s, nshards, window_end);
    const uint32_t ns = static_cast<uint32_t>(nshards);
    sh.earliest = kInf;
    size_t kept = 0;
    for (size_t i = 0; i < sh.pending.size(); ++i) {
        const uint32_t local = sh.pending[i];
        std::vector<Event> &heap = sh.heaps[local];
        if (heap.front().time < window_end) {
            sink.node = local * ns + static_cast<uint32_t>(s);
            do {
                sh.peak = std::max(sh.peak, sh.queued);
                std::pop_heap(heap.begin(), heap.end(), EventAfter());
                const Event ev = heap.back();
                heap.pop_back();
                --sh.queued;
                ++sh.events;
                m.apply(ev, sink, s);
            } while (!heap.empty() && heap.front().time < window_end);
            if (heap.empty())
                continue;
        }
        sh.earliest = std::min(sh.earliest, heap.front().time);
        sh.pending[kept++] = local;
    }
    sh.pending.resize(kept);
}

} // namespace

PdesStats
runPdes(Model &m, std::vector<Event> initial, const PdesConfig &cfg)
{
    simr_assert(cfg.shards >= 1, "PDES shard count must be >= 1");
    int nshards = cfg.shards;
    // Zero lookahead admits no conservative window: degenerate to the
    // sequential engine rather than to an incorrect parallel one.
    if (cfg.lookaheadUs <= 0)
        nshards = 1;
    if (nshards == 1)
        return runSequential(m, std::move(initial));

    int workers = std::max(1, std::min(cfg.threads, nshards));
    m.prepare(nshards);

    const uint32_t ns = static_cast<uint32_t>(nshards);
    std::vector<Shard> shards(static_cast<size_t>(nshards));
    for (Shard &s : shards) {
        s.heaps.resize((m.nodeCount() + ns - 1) / ns);
        s.outbox.resize(ns);
    }
    for (const Event &ev : initial)
        shards[ev.node % ns].add(ev, ev.node / ns);
    initial.clear();

    // Each worker writes its localMin entry before the first barrier of
    // a window cycle and every worker reads all of them between the
    // first and the second, so no entry is rewritten while read.
    std::vector<double> localMin(static_cast<size_t>(workers), kInf);
    uint64_t windows = 0;  // counted by worker 0 alone
    SpinBarrier barrier(workers);

    auto workerLoop = [&](int w) {
        for (;;) {
            // Phase 1: move the events the other shards sent the owned
            // ones last window into the node heaps (the barrier that
            // ended the window published them), then publish this
            // worker's earliest pending event time.
            double lmin = kInf;
            for (int s = w; s < nshards; s += workers) {
                Shard &sh = shards[static_cast<size_t>(s)];
                for (Shard &src : shards) {
                    std::vector<Event> &box =
                        src.outbox[static_cast<size_t>(s)];
                    for (const Event &ev : box)
                        sh.add(ev, ev.node / ns);
                    box.clear();
                }
                lmin = std::min(lmin, sh.earliest);
            }
            localMin[static_cast<size_t>(w)] = lmin;
            barrier.arriveAndWait();

            // Phase 2: every worker reduces the same global minimum
            // (exact: min over doubles is order-free) and opens the
            // window, then processes every owned event inside it, node
            // by node, each node's in (time, key) order. A node's emits
            // to itself may still be processed this window; cross-shard
            // emits wait in the sender's outbox for the next phase 1.
            double gmin = kInf;
            for (double v : localMin)
                gmin = std::min(gmin, v);
            if (gmin == kInf)
                return;
            const double window_end = gmin + cfg.lookaheadUs;
            if (w == 0) {
                // A lookahead under half an ulp of the simulated time
                // rounds away: the window [gmin, window_end) would hold
                // no event and the loop would reopen it forever. One
                // worker reports it, since two threads in std::exit at
                // once is undefined; the others wait for it at the
                // barrier below.
                if (!(window_end > gmin))
                    simr_fatal("PDES lookahead %g us vanishes at "
                               "simulated time %.17g us: the window "
                               "[T, T + lookahead) is empty in double "
                               "arithmetic",
                               cfg.lookaheadUs, gmin);
                ++windows;
            }
            for (int s = w; s < nshards; s += workers)
                drainWindow(m, shards[static_cast<size_t>(s)], s, nshards,
                            window_end);
            barrier.arriveAndWait();
        }
    };

    if (workers == 1) {
        workerLoop(0);
    } else {
        ThreadPool pool(workers);
        for (int w = 0; w < workers; ++w)
            pool.run([&, w] { workerLoop(w); });
        pool.wait();
    }

    PdesStats stats;
    stats.shards = nshards;
    stats.workers = workers;
    stats.windows = windows;
    for (const Shard &s : shards) {
        stats.events += s.events;
        stats.mailboxSends += s.sends;
        stats.peakQueued = std::max(stats.peakQueued, s.peak);
    }
    return stats;
}

} // namespace simr::sys
