/**
 * @file
 * The reproduction driver. `reproduce [name...]` prints the named
 * tables and figures of the paper's evaluation in the order given, or
 * all of them when none is named; an unknown name prints the usage and
 * exits 1. SIMR_REQUESTS, SIMR_TIMING_REQUESTS and SIMR_SEED set the
 * run scale. Every figure of one run shares one CellMemo, so each
 * distinct timing cell is simulated once.
 */

#include <cstdio>
#include <cstring>
#include <vector>

#include "figures.h"

using namespace simr;
using namespace simr::bench;

namespace
{

struct NamedFigure
{
    const char *name;
    Figure run;
};

/** Every figure, in the order a full run prints them. */
constexpr NamedFigure kFigures[] = {
    {"fig04", fig04},
    {"fig05", fig05},
    {"fig10", fig10},
    {"fig11", fig11},
    {"fig14", fig14},
    {"fig15", fig15},
    {"fig19", fig19},
    {"fig20", fig20},
    {"fig21", fig21},
    {"fig22", fig22},
    {"tab04", tab04},
    {"tab05", tab05},
    {"sens_subbatch", sensSubbatch},
    {"sens_atomics_l3", sensAtomicsL3},
    {"sens_allocator", sensAllocator},
    {"sens_majority_voting", sensMajorityVoting},
    {"gpu_comparison", gpuComparison},
    {"ext_tuner", extTuner},
    {"ext_multibatch", extMultibatch},
    {"ext_gpgpu", extGpgpu},
};

int
usage(const char *bad)
{
    std::fprintf(stderr, "reproduce: unknown name '%s'\n"
                 "usage: reproduce [name...]\nnames:", bad);
    for (const NamedFigure &f : kFigures)
        std::fprintf(stderr, " %s", f.name);
    std::fprintf(stderr, "\n");
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<Figure> todo;
    for (int i = 1; i < argc; ++i) {
        const NamedFigure *hit = nullptr;
        for (const NamedFigure &f : kFigures)
            if (std::strcmp(argv[i], f.name) == 0)
                hit = &f;
        if (hit == nullptr)
            return usage(argv[i]);
        todo.push_back(hit->run);
    }
    if (todo.empty())
        for (const NamedFigure &f : kFigures)
            todo.push_back(f.run);

    RunScale scale = RunScale::fromEnv();
    CellMemo memo;
    for (Figure run : todo)
        run(scale, memo);
    return 0;
}
