/**
 * @file
 * Environment-driven run scaling. The reproduction benches read request and
 * batch counts from the environment so the full suite can be scaled up to
 * the paper's sizes or down for quick runs, without recompiling.
 */

#ifndef SIMR_COMMON_CONFIG_H
#define SIMR_COMMON_CONFIG_H

#include <cstdint>
#include <limits>
#include <string>

namespace simr
{

/**
 * Read an integer environment variable, falling back to a default when
 * it is unset or empty. Anything but a whole base-10 integer, or a
 * value below `min`, is a fatal error naming the variable and value:
 * a typo must not silently select some other behaviour.
 */
int64_t envInt(const char *name, int64_t fallback,
               int64_t min = std::numeric_limits<int64_t>::min());

/** Read a double environment variable, falling back to a default. */
double envDouble(const char *name, double fallback);

/** Read a string environment variable, falling back to a default. */
std::string envStr(const char *name, const std::string &fallback);

/**
 * Global run-scale knobs.
 *
 * requests  - number of requests per service for pure-analysis experiments
 *             (SIMT efficiency, traffic); paper default 2400.
 * timingRequests - number of requests per service for cycle-level timing
 *             runs (these are the expensive ones).
 * seed      - master RNG seed.
 */
struct RunScale
{
    int64_t requests = 2400;
    int64_t timingRequests = 512;
    uint64_t seed = 42;

    /** Build from SIMR_REQUESTS / SIMR_TIMING_REQUESTS / SIMR_SEED. */
    static RunScale fromEnv();
};

} // namespace simr

#endif // SIMR_COMMON_CONFIG_H
