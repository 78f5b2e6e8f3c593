/**
 * @file
 * Status and error reporting helpers, in the spirit of gem5's logging.hh.
 *
 * panic()  - an internal invariant was violated: a simulator bug. Aborts.
 * fatal()  - the simulation cannot continue because of a user error (bad
 *            configuration, invalid arguments). Exits with code 1.
 * warn()   - something might be modelled imperfectly; keep going.
 * inform() - plain status output.
 */

#ifndef SIMR_COMMON_LOGGING_H
#define SIMR_COMMON_LOGGING_H

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace simr
{

namespace detail
{

/** Format a printf-style message into a std::string. */
std::string vformat(const char *fmt, va_list ap);

/** Emit one log line with a severity prefix to stderr. */
void logLine(const char *prefix, const std::string &msg);

[[noreturn]] void panicImpl(const char *file, int line, const char *fmt, ...);
[[noreturn]] void assertImpl(const char *file, int line, const char *cond,
                             const char *fmt, ...);
[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt, ...);
void warnImpl(const char *fmt, ...);
void informImpl(const char *fmt, ...);

} // namespace detail

#define simr_panic(...) \
    ::simr::detail::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define simr_fatal(...) \
    ::simr::detail::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
#define simr_warn(...) ::simr::detail::warnImpl(__VA_ARGS__)
#define simr_inform(...) ::simr::detail::informImpl(__VA_ARGS__)

/**
 * Assert that a condition holds; panic with a message otherwise.
 * Enabled in all build types (the simulator relies on these checks).
 */
#define simr_assert(cond, ...)                                             \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::simr::detail::assertImpl(__FILE__, __LINE__, #cond,          \
                                       __VA_ARGS__);                       \
        }                                                                  \
    } while (0)

/**
 * Debug-only assert for per-op hot paths: the replay cursors validate
 * their invariants once at construction (simr_assert) and guard each
 * step with this, which compiles away in release builds (NDEBUG).
 */
#ifndef NDEBUG
#define simr_dassert(cond, ...) simr_assert(cond, __VA_ARGS__)
#else
#define simr_dassert(cond, ...) \
    do {                        \
    } while (0)
#endif

} // namespace simr

#endif // SIMR_COMMON_LOGGING_H
