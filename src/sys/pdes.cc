#include "sys/pdes.h"

#include <algorithm>
#include <limits>
#include <memory>
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
    m.prepare(1, 1);

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
 * non-empty, and per-source mailboxes (ring + spill). Nodes are dealt
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

    /** Inbound mailboxes, one per source shard. Ring pushes are
     *  lock-free; a full ring spills into `spill`, written by the
     *  source worker before the window barrier and drained by this
     *  shard's worker after it (the barrier publishes the writes). */
    std::vector<std::unique_ptr<SpscRing<Event>>> rings;
    std::vector<std::vector<Event>> spill;

    uint64_t events = 0;
    uint64_t sends = 0;
    uint64_t overflows = 0;
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
    ShardSink(std::vector<Shard> &shards, int src, int nshards,
              double window_end)
        : shards_(shards), src_(src), nshards_(nshards),
          windowEnd_(window_end)
    {
    }

    /** The node whose events apply() is handling. */
    uint32_t node = 0;

    void
    emit(const Event &ev) override
    {
        const uint32_t ns = static_cast<uint32_t>(nshards_);
        const uint32_t local = ev.node / ns;
        Shard &s = shards_[static_cast<size_t>(src_)];
        if (ev.node == node) {
            // The node is mid-drain, so it stays listed even while its
            // heap is momentarily empty.
            pushEvent(s.heaps[local], ev);
            ++s.queued;
            return;
        }
        // Conservative-lookahead contract: an event for any other node
        // must land at or beyond the current window's end, so no node's
        // in-window events change while its shard drains it.
        simr_assert(ev.time >= windowEnd_,
                    "cross-node event inside the lookahead window");
        const int dst = static_cast<int>(ev.node - local * ns);
        if (dst == src_) {
            s.add(ev, local);
            return;
        }
        Shard &d = shards_[static_cast<size_t>(dst)];
        ++s.sends;
        if (!d.rings[static_cast<size_t>(src_)]->push(ev)) {
            // Bounded-mailbox backpressure: spill to the per-edge
            // overflow vector (drained at the next barrier) and count
            // it. Delivery order is irrelevant -- the destination
            // re-sorts into its node heaps -- so the spill changes
            // nothing but the transport.
            d.spill[static_cast<size_t>(src_)].push_back(ev);
            ++s.overflows;
        }
    }

  private:
    std::vector<Shard> &shards_;
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
drainWindow(Model &m, std::vector<Shard> &shards, int s, int nshards,
            double window_end)
{
    Shard &sh = shards[static_cast<size_t>(s)];
    ShardSink sink(shards, s, nshards, window_end);
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
    simr_assert(cfg.mailboxCapacity >= 1,
                "PDES mailbox capacity must be >= 1");
    int nshards = cfg.shards;
    // Zero lookahead admits no conservative window: degenerate to the
    // sequential engine rather than to an incorrect parallel one.
    if (cfg.lookaheadUs <= 0)
        nshards = 1;
    if (nshards == 1)
        return runSequential(m, std::move(initial));

    int workers = std::max(1, std::min(cfg.threads, nshards));
    m.prepare(nshards, workers);

    const uint32_t ns = static_cast<uint32_t>(nshards);
    std::vector<Shard> shards(static_cast<size_t>(nshards));
    for (Shard &s : shards) {
        s.heaps.resize((m.nodeCount() + ns - 1) / ns);
        s.rings.reserve(static_cast<size_t>(nshards));
        for (int i = 0; i < nshards; ++i)
            s.rings.push_back(std::make_unique<SpscRing<Event>>(
                static_cast<size_t>(cfg.mailboxCapacity)));
        s.spill.resize(static_cast<size_t>(nshards));
    }
    for (const Event &ev : initial)
        shards[ev.node % ns].add(ev, ev.node / ns);
    initial.clear();

    // Window-loop shared state. localMin is written by each worker
    // before barrier A and reduced by worker 0 between barriers A and
    // B; windowEnd is read by everyone after barrier B.
    std::vector<double> localMin(static_cast<size_t>(workers), kInf);
    double windowEnd = 0;
    bool done = false;
    uint64_t windows = 0;
    SpinBarrier barrier(workers);

    auto workerLoop = [&](int w) {
        for (;;) {
            // Phase A: drain inbound mail into the owned node heaps
            // (the previous window's barrier published it), then
            // publish this worker's earliest pending event time.
            double lmin = kInf;
            for (int s = w; s < nshards; s += workers) {
                Shard &sh = shards[static_cast<size_t>(s)];
                Event ev;
                for (int src = 0; src < nshards; ++src) {
                    while (sh.rings[static_cast<size_t>(src)]->pop(&ev))
                        sh.add(ev, ev.node / ns);
                    auto &spill = sh.spill[static_cast<size_t>(src)];
                    for (const Event &e : spill)
                        sh.add(e, e.node / ns);
                    spill.clear();
                }
                lmin = std::min(lmin, sh.earliest);
            }
            localMin[static_cast<size_t>(w)] = lmin;
            barrier.arriveAndWait();

            // Phase B: worker 0 reduces the global minimum (exact:
            // min over doubles is order-free) and opens the window.
            if (w == 0) {
                double gmin = kInf;
                for (double v : localMin)
                    gmin = std::min(gmin, v);
                done = gmin == kInf;
                windowEnd = gmin + cfg.lookaheadUs;
                // A lookahead under half an ulp of the simulated time
                // rounds away: the window [gmin, windowEnd) would hold
                // no event and the loop would reopen it forever.
                if (!done && !(windowEnd > gmin))
                    simr_fatal("PDES lookahead %g us vanishes at "
                               "simulated time %.17g us: the window "
                               "[T, T + lookahead) is empty in double "
                               "arithmetic",
                               cfg.lookaheadUs, gmin);
                if (!done)
                    ++windows;
            }
            barrier.arriveAndWait();
            if (done)
                return;

            // Phase C: process every owned event inside the window,
            // node by node, each node's in (time, key) order. A node's
            // emits to itself may still be processed this window;
            // cross-shard emits travel by mailbox and are only visible
            // after the next barrier.
            for (int s = w; s < nshards; s += workers)
                drainWindow(m, shards, s, nshards, windowEnd);
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
        stats.mailboxOverflows += s.overflows;
        stats.peakQueued = std::max(stats.peakQueued, s.peak);
    }
    return stats;
}

} // namespace simr::sys
