/**
 * @file
 * Functional cache studies for Figs. 14 and 15: run the address stream
 * (after batching / MCU coalescing / stack interleaving) through an L1
 * model without full pipeline timing, to measure generated traffic and
 * MPKI quickly and in isolation. The runner (runner.cc) builds a
 * study's front end with the same builder as every other chip-level
 * run, gated like them by analysis::gateAndProve, and always live: a
 * study consults no process-wide cache.
 */

#ifndef SIMR_SIMR_CACHESTUDY_H
#define SIMR_SIMR_CACHESTUDY_H

#include "batching/policy.h"
#include "mem/cache.h"
#include "mem/coalescer.h"
#include "services/service.h"
#include "simt/lockstep.h"

namespace simr
{

/** Outcome of one cache study. */
struct CacheStudyResult
{
    uint64_t scalarInsts = 0;   ///< lane-level instructions executed
    uint64_t laneAccesses = 0;  ///< memory requests before coalescing
    uint64_t l1Accesses = 0;    ///< L1 accesses after the MCU
    uint64_t l1Misses = 0;
    mem::McuStats mcu;

    /** Misses per kilo (scalar) instruction. */
    double
    mpki() const
    {
        return scalarInsts ? 1000.0 * static_cast<double>(l1Misses) /
            static_cast<double>(scalarInsts) : 0.0;
    }
};

/** Options for cache studies. */
struct CacheStudyOptions
{
    int requests = 640;
    uint64_t seed = 42;
    uint64_t l1KB = 256;           ///< RPU default (Table IV)
    batch::Policy policy = batch::Policy::PerApiArgSize;
    mem::AllocPolicy alloc = mem::AllocPolicy::SimrAware;
    bool stackInterleave = true;

    /** Same study: every field above. */
    bool operator==(const CacheStudyOptions &) const = default;
};

/**
 * RPU-style study: one MinSP-PC lockstep engine, `batch_size` wide,
 * through the MCU and an 8-bank L1.
 */
CacheStudyResult studyRpuCache(const svc::Service &svc, int batch_size,
                               const CacheStudyOptions &opt);

/**
 * CPU-style study: one scalar stream (glibc-like heap) through a
 * private one-bank L1.
 */
CacheStudyResult studyCpuCache(const svc::Service &svc,
                               const CacheStudyOptions &opt);

} // namespace simr

#endif // SIMR_SIMR_CACHESTUDY_H
