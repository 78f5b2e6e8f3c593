#include "mem/coalescer.h"

#include <algorithm>

#include "common/logging.h"

namespace simr::mem
{

CoalesceKind
Mcu::coalesce(const trace::DynOp &op, std::vector<MemAccess> &out)
{
    out.clear();
    simr_assert(op.isMem(), "MCU given a non-memory op");
    simr_assert(op.addrCount > 0, "memory op with no addresses");

    bool is_store = op.si->op == isa::Op::Store;
    bool is_atomic = op.si->op == isa::Op::Atomic;
    uint32_t size = op.accessSize ? op.accessSize : 8;
    int n = op.addrCount;

    ++stats_.batchMemInsts;
    stats_.laneAccesses += static_cast<uint64_t>(n);

    auto line_of = [this](Addr a) { return a & ~(Addr{lineBytes_} - 1); };

    // Sort the lines pushed to `out` and drop repeats. They are built
    // in `out` itself, whose capacity the caller keeps across ops, so
    // coalescing allocates nothing once it is warm.
    auto dedup_lines = [&out]() {
        std::sort(out.begin(), out.end(),
                  [](const MemAccess &a, const MemAccess &b) {
                      return a.paddr < b.paddr;
                  });
        out.erase(std::unique(out.begin(), out.end(),
                              [](const MemAccess &a, const MemAccess &b) {
                                  return a.paddr == b.paddr;
                              }),
                  out.end());
    };

    // Scalar op: nothing to coalesce.
    if (n == 1) {
        Addr pa = map_.toPhysical(op.addr[0]);
        out.push_back({line_of(pa), is_store, is_atomic});
        // An access that straddles a line boundary costs a second access,
        // same as a real LSU split.
        if (line_of(pa + size - 1) != line_of(pa))
            out.push_back({line_of(pa + size - 1), is_store, is_atomic});
        stats_.generatedAccesses += out.size();
        return CoalesceKind::Scalar;
    }

    // Pattern 1: every active lane touches the same word.
    bool same_word = true;
    for (int i = 1; i < n; ++i) {
        if (op.addr[i] != op.addr[0]) {
            same_word = false;
            break;
        }
    }
    if (same_word) {
        Addr pa = map_.toPhysical(op.addr[0]);
        out.push_back({line_of(pa), is_store, is_atomic});
        ++stats_.sameWord;
        stats_.generatedAccesses += out.size();
        return CoalesceKind::SameWord;
    }

    // Stack path: the address generation unit's offset mapping handles
    // interleaved stack segments; lockstep stack traffic packs densely
    // into physical lines.
    bool all_stack = true;
    for (int i = 0; i < n; ++i) {
        if (AddressSpace::classify(op.addr[i]) != Segment::Stack) {
            all_stack = false;
            break;
        }
    }
    if (all_stack && map_.interleavesStacks()) {
        // The 4-byte interleave splits a multi-word access into
        // non-contiguous physical words: map every word separately.
        for (int i = 0; i < n; ++i) {
            for (uint32_t w = 0; w < size; w += 4) {
                Addr pa = map_.toPhysical(op.addr[i] + w);
                out.push_back({line_of(pa), is_store, is_atomic});
            }
        }
        dedup_lines();
        ++stats_.stackCoalesced;
        stats_.generatedAccesses += out.size();
        return CoalesceKind::Stack;
    }

    // Pattern 2: consecutive words, lane i at base + i * size.
    bool consecutive = true;
    for (int i = 1; i < n; ++i) {
        if (op.addr[i] != op.addr[0] +
            static_cast<Addr>(i) * size) {
            consecutive = false;
            break;
        }
    }
    if (consecutive) {
        // Every line each lane's access covers.
        for (int i = 0; i < n; ++i) {
            Addr pa = map_.toPhysical(op.addr[i]);
            Addr last = line_of(pa + size - 1);
            for (Addr l = line_of(pa); l <= last; l += lineBytes_)
                out.push_back({l, is_store, is_atomic});
        }
        dedup_lines();
        ++stats_.consecutive;
        stats_.generatedAccesses += out.size();
        return CoalesceKind::Consecutive;
    }

    // No pattern: one access per active lane.
    for (int i = 0; i < n; ++i) {
        Addr pa = map_.toPhysical(op.addr[i]);
        out.push_back({line_of(pa), is_store, is_atomic});
    }
    ++stats_.divergent;
    stats_.generatedAccesses += out.size();
    return CoalesceKind::Divergent;
}

} // namespace simr::mem
