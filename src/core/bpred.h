/**
 * @file
 * Branch prediction: a gshare predictor with 2-bit counters, plus the
 * RPU's batch-granularity majority-voting wrapper (paper Fig. 6 item 3):
 * the RPU makes one prediction per batch instruction and trains on the
 * majority outcome of the active lanes, so the common control flow is
 * optimized and only minority lanes pay the inevitable flush.
 */

#ifndef SIMR_CORE_BPRED_H
#define SIMR_CORE_BPRED_H

#include <cstdint>
#include <vector>

#include "isa/isa.h"
#include "trace/dynop.h"

namespace simr::core
{

/** Predictor counters. */
struct BpredStats
{
    uint64_t lookups = 0;
    uint64_t mispredicts = 0;
    uint64_t majorityVotes = 0;       ///< voting-circuit activations
    uint64_t minorityLaneFlushes = 0; ///< lane-slots squashed at commit

    double
    accuracy() const
    {
        return lookups ? 1.0 - static_cast<double>(mispredicts) /
            static_cast<double>(lookups) : 1.0;
    }

    bool operator==(const BpredStats &) const = default;
};

/** gshare with a global history register and 2-bit counters. */
class Gshare
{
  public:
    explicit Gshare(int table_bits = 12)
        : tableBits_(table_bits),
          table_(static_cast<size_t>(1) << table_bits, 1)
    {}

    /** Predict the branch at `pc`. */
    bool
    predict(isa::Pc pc) const
    {
        return table_[indexOf(pc)] >= 2;
    }

    /** Train with the resolved outcome and advance history. */
    void
    update(isa::Pc pc, bool taken)
    {
        uint8_t &ctr = table_[indexOf(pc)];
        if (taken && ctr < 3)
            ++ctr;
        else if (!taken && ctr > 0)
            --ctr;
        history_ = ((history_ << 1) | (taken ? 1 : 0)) &
            ((1u << tableBits_) - 1);
    }

  private:
    size_t
    indexOf(isa::Pc pc) const
    {
        return ((pc >> 2) ^ history_) & ((1u << tableBits_) - 1);
    }

    int tableBits_;
    std::vector<uint8_t> table_;
    uint32_t history_ = 0;
};

/**
 * Per-hardware-thread front end predictor. For batch ops it applies
 * majority voting over the active lanes' outcomes.
 */
class BatchBpred
{
  public:
    explicit BatchBpred(bool majority_vote)
        : majorityVote_(majority_vote)
    {}

    /**
     * Predict-and-resolve one branch DynOp.
     * @return true if the (majority) outcome was mispredicted.
     */
    bool predictAndTrain(const trace::DynOp &op);

    const BpredStats &stats() const { return stats_; }

  private:
    Gshare gshare_;
    bool majorityVote_;
    BpredStats stats_;
};

} // namespace simr::core

#endif // SIMR_CORE_BPRED_H
