/**
 * @file
 * compileCounters(), which always reads zero: no stream is compiled.
 */

#ifndef SIMR_TRACE_COMPILE_H
#define SIMR_TRACE_COMPILE_H

#include <cstdint>

namespace simr::trace
{

/** Kept only because perfbench reads compileCounters().compileUs. */
struct CompileCounters
{
    uint64_t compileUs = 0;
};

inline CompileCounters
compileCounters()
{
    return {};
}

} // namespace simr::trace

#endif // SIMR_TRACE_COMPILE_H
