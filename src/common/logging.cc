#include "common/logging.h"

#include <cstdarg>
#include <mutex>

namespace simr
{
namespace detail
{

namespace
{

/** Serializes log lines from parallel harness workers. */
std::mutex &
logMutex()
{
    static std::mutex mu;
    return mu;
}

} // namespace

std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (n < 0)
        return std::string(fmt);
    std::string out(static_cast<size_t>(n) + 1, '\0');
    std::vsnprintf(out.data(), out.size(), fmt, ap);
    out.resize(static_cast<size_t>(n));
    return out;
}

void
logLine(const char *prefix, const std::string &msg)
{
    std::lock_guard<std::mutex> lock(logMutex());
    std::fprintf(stderr, "%s%s\n", prefix, msg.c_str());
    std::fflush(stderr);
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    std::abort();
}

void
assertImpl(const char *file, int line, const char *cond, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    panicImpl(file, line, "assertion '%s' failed: %s", cond, msg.c_str());
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    std::exit(1);
}

void
warnImpl(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    logLine("warn: ", vformat(fmt, ap));
    va_end(ap);
}

void
informImpl(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    logLine("info: ", vformat(fmt, ap));
    va_end(ap);
}

} // namespace detail
} // namespace simr
