/**
 * @file
 * The reproduction driver. `reproduce [name...]` prints the named
 * tables and figures of the paper's evaluation in the order given, or
 * all of them when none is named; an unknown name prints the usage and
 * exits 1. SIMR_REQUESTS, SIMR_TIMING_REQUESTS and SIMR_SEED set the
 * run scale. The driver collects the named figures' plans, runs each
 * distinct piece of their work once, in one fan-out, longest first,
 * then prints the figures in order, and one summary line on stderr.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "figures.h"

using namespace simr;
using namespace simr::bench;

namespace
{

int
usage(const char *bad)
{
    std::fprintf(stderr, "reproduce: unknown name '%s'\n"
                 "usage: reproduce [name...]\nnames:", bad);
    for (const NamedFigure &f : figures())
        std::fprintf(stderr, " %s", f.name);
    std::fprintf(stderr, "\n");
    return 1;
}

/** CPU seconds this process has used so far, and its peak RSS in MB. */
std::pair<double, double>
cpuAndPeakRss()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const timeval &u = ru.ru_utime, &sys = ru.ru_stime;
    return {static_cast<double>(u.tv_sec + sys.tv_sec) +
                static_cast<double>(u.tv_usec + sys.tv_usec) / 1e6,
            static_cast<double>(ru.ru_maxrss) / 1024};
}

} // namespace

int
main(int argc, char **argv)
{
    const auto start = std::chrono::steady_clock::now();
    const double cpu_start = cpuAndPeakRss().first;
    std::vector<Figure> todo;
    for (int i = 1; i < argc; ++i) {
        const NamedFigure *hit = nullptr;
        for (const NamedFigure &f : figures())
            if (std::strcmp(argv[i], f.name) == 0)
                hit = &f;
        if (hit == nullptr)
            return usage(argv[i]);
        todo.push_back(hit->plan);
    }
    if (todo.empty())
        for (const NamedFigure &f : figures())
            todo.push_back(f.plan);

    RunScale scale = RunScale::fromEnv();
    std::vector<Plan> plans;
    for (Figure plan : todo)
        plans.push_back(plan(scale));

    // Deduplicate: plan p's i-th piece of work is distinct[at[p][i]].
    std::vector<Work> distinct;
    std::vector<std::vector<size_t>> at(plans.size());
    size_t planned[std::variant_size_v<Work>] = {};
    size_t ran[std::variant_size_v<Work>] = {};
    for (size_t p = 0; p < plans.size(); ++p) {
        for (const Work &w : plans[p].work) {
            ++planned[w.index()];
            auto it = std::find(distinct.begin(), distinct.end(), w);
            at[p].push_back(static_cast<size_t>(it - distinct.begin()));
            if (it == distinct.end()) {
                ++ran[w.index()];
                distinct.push_back(w);
            }
        }
    }

    // Longest first, so that no long piece starts last.
    std::vector<std::pair<double, size_t>> order;
    for (size_t k = 0; k < distinct.size(); ++k)
        order.emplace_back(-workCost(distinct[k]), k);
    std::sort(order.begin(), order.end());
    std::vector<Result> results(distinct.size());
    parallelFor(order.size(), [&](size_t i) {
        size_t k = order[i].second;
        results[k] = runWork(distinct[k]);
    });

    for (size_t p = 0; p < plans.size(); ++p) {
        Results view;
        for (size_t k : at[p])
            view.at.push_back(&results[k]);
        plans[p].print(view);
    }
    std::fflush(stdout);

    double wall = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    auto [cpu, peak_rss] = cpuAndPeakRss();
    cpu -= cpu_start;
    std::fprintf(stderr, "reproduce: work planned/run: timing %zu/%zu, "
                 "probe %zu/%zu, study %zu/%zu, load point %zu/%zu; "
                 "wall %.2f s, cpu %.2f s, %.2f busy cores, peak rss %.1f "
                 "MB\n", planned[0], ran[0], planned[1], ran[1], planned[2],
                 ran[2], planned[3], ran[3], wall, cpu,
                 wall > 0 ? cpu / wall : 0, peak_rss);
    return 0;
}
