/**
 * @file
 * Memory Coalescing Unit (paper Section III-A, Fig. 8b).
 *
 * The MCU sits before the load/store queues and merges the per-lane
 * addresses of one batch memory instruction into cache-line accesses.
 * Per the paper it deliberately detects only the two cheap patterns --
 * (1) every active lane reads the same word (shared heap/data structures)
 * and (2) lanes access consecutive words -- plus the dedicated stack
 * offset-mapping path, which by construction produces densely packed
 * physical words for lockstep stack traffic. Anything else generates one
 * access per active lane, exactly like the paper's design (no GPU-style
 * sub-batch sharing detection, which would lengthen the L1 hit path).
 */

#ifndef SIMR_MEM_COALESCER_H
#define SIMR_MEM_COALESCER_H

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "mem/address_space.h"
#include "trace/dynop.h"

namespace simr::mem
{

/** Which MCU path produced the accesses of one batch instruction. */
enum class CoalesceKind : uint8_t {
    SameWord,     ///< all lanes hit the same word: 1 access
    Stack,        ///< stack offset-mapping path: distinct physical lines
    Consecutive,  ///< per-lane consecutive words: distinct physical lines
    Divergent,    ///< no pattern: one access per active lane
    Scalar,       ///< single-lane op (CPU mode): one access
};

/** MCU outcome counters. */
struct McuStats
{
    uint64_t batchMemInsts = 0;
    uint64_t laneAccesses = 0;      ///< total lane requests presented
    uint64_t generatedAccesses = 0; ///< accesses after coalescing
    uint64_t sameWord = 0;
    uint64_t stackCoalesced = 0;
    uint64_t consecutive = 0;
    uint64_t divergent = 0;

    double
    reductionFactor() const
    {
        return generatedAccesses ?
            static_cast<double>(laneAccesses) /
            static_cast<double>(generatedAccesses) : 1.0;
    }
};

/** One generated memory access leaving the MCU. */
struct MemAccess
{
    Addr paddr = 0;       ///< physical line-aligned address
    bool isStore = false;
    bool isAtomic = false;
};

/** The coalescing unit. Stateless apart from counters. */
class Mcu
{
  public:
    Mcu(const AddressMap &map, uint32_t line_bytes = 32)
        : map_(map), lineBytes_(line_bytes)
    {
        simr_assert(line_bytes > 0 && (line_bytes & (line_bytes - 1)) == 0,
                    "MCU line size must be a power of two");
    }

    /**
     * Coalesce one (possibly batched) memory DynOp into line accesses.
     * @param op the memory instruction (addrCount lane addresses)
     * @param out cleared and filled with generated accesses; keeping
     *        it across calls makes coalescing allocation-free
     * @return the pattern that matched
     */
    CoalesceKind coalesce(const trace::DynOp &op,
                          std::vector<MemAccess> &out);

    const McuStats &stats() const { return stats_; }
    void resetStats() { stats_ = McuStats(); }

  private:
    const AddressMap &map_;
    uint32_t lineBytes_;
    McuStats stats_;
};

} // namespace simr::mem

#endif // SIMR_MEM_COALESCER_H
