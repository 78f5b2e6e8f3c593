/**
 * @file
 * DynStream: pull-based dynamic instruction streams.
 *
 * Timing cores consume DynOps one at a time through this interface. The
 * scalar stream (one hardware thread running requests back-to-back) lives
 * here: a width-1 LaneFile whose single lane runs one request after
 * another. The lockstep batch stream lives in src/simt (it needs the
 * SIMT reconvergence machinery) and steps the same LaneFile at its
 * batch width.
 */

#ifndef SIMR_TRACE_STREAM_H
#define SIMR_TRACE_STREAM_H

#include <functional>
#include <memory>

#include "trace/dynop.h"
#include "trace/interp.h"
#include "trace/replay.h"

namespace simr::trace
{

// DynStream (the pull interface ScalarStream implements) lives in
// dynop.h, next to DynOp, so the replay-backed streams can implement
// it too without an include cycle.

/**
 * Supplies the initial context of the next request a hardware thread
 * should run; returns false when no requests remain.
 */
using RequestProvider = std::function<bool(ThreadInit &)>;

/**
 * One hardware thread executing requests back-to-back (the CPU baseline
 * and one SMT context). Each DynOp has a single active lane.
 */
class ScalarStream : public DynStream
{
  public:
    /**
     * @param cache trace cache to replay from / capture into; nullptr
     *        runs every request through the live interpreter.
     */
    ScalarStream(const isa::Program &prog, RequestProvider provider,
                 TraceCache *cache = nullptr);

    bool next(DynOp &op) override;
    uint64_t requestsCompleted() const override { return completed_; }

    /** Static proof for capture's tier-1 fast path (may be null). */
    void setStaticProof(std::shared_ptr<const StaticProof> proof)
    {
        lane_.setStaticProof(std::move(proof));
    }

    /** Trace-reuse accounting for this stream's requests. */
    ReuseStats reuseStats() const { return lane_.reuseStats(); }

  private:
    ProgramIndex pi_;
    LaneFile lane_;
    RequestProvider provider_;
    ThreadInit init_;        ///< reused across requests (no realloc)
    uint64_t completed_ = 0;
};

} // namespace simr::trace

#endif // SIMR_TRACE_STREAM_H
