#include "common/config.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/logging.h"

namespace simr
{

int64_t
envInt(const char *name, int64_t fallback, int64_t min)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    // strtoll alone skips leading blanks, stops at the first non-digit
    // and saturates on overflow; insist on the whole string instead.
    char *end = nullptr;
    errno = 0;
    const long long x = std::strtoll(v, &end, 10);
    if (std::isspace(static_cast<unsigned char>(*v)) || *end != '\0' ||
        errno == ERANGE)
        simr_fatal("%s=%s: expected a base-10 integer", name, v);
    if (x < min)
        simr_fatal("%s=%s: must be >= %lld", name, v,
                   static_cast<long long>(min));
    return x;
}

RunScale
RunScale::fromEnv()
{
    RunScale s;
    s.requests = envInt("SIMR_REQUESTS", s.requests);
    s.timingRequests = envInt("SIMR_TIMING_REQUESTS", s.timingRequests);
    s.seed = static_cast<uint64_t>(
        envInt("SIMR_SEED", static_cast<int64_t>(s.seed)));
    return s;
}

} // namespace simr
