/**
 * @file
 * Bit counting without a library call. The default build targets
 * baseline x86-64, which has no POPCNT instruction, so there
 * __builtin_popcount compiles to a call into libgcc; the SWAR form
 * below stays inline and gives the same count.
 */

#ifndef SIMR_COMMON_BITS_H
#define SIMR_COMMON_BITS_H

#include <cstdint>

namespace simr
{

/** Set bits of x. */
inline uint64_t
popcount64(uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return (x * 0x0101010101010101ULL) >> 56;
}

} // namespace simr

#endif // SIMR_COMMON_BITS_H
