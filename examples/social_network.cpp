/**
 * @file
 * End-to-end social-network scenario (paper Fig. 3 + Fig. 22).
 *
 * Walks the User path of the social-network graph -- WebServer -> User
 * -> McRouter -> Memcached, with misses falling through to Storage --
 * on a CPU-based cluster and an RPU-based cluster at equal power, with
 * and without system-level batch splitting, at one server per tier
 * (sys::oneReplica()), and reports the latency curves.
 *
 * Run:  ./build/examples/social_network [qps_thousands...]
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/table.h"
#include "sys/cluster.h"

using namespace simr;

int
main(int argc, char **argv)
{
    std::vector<double> loads = {5, 15, 30, 60, 90};
    if (argc > 1) {
        loads.clear();
        for (int i = 1; i < argc; ++i)
            loads.push_back(std::atof(argv[i]));
    }

    std::printf("social-network User scenario: WebServer -> User -> "
                "McRouter -> Memcached (90%% hit) / Storage (1ms)\n\n");

    Table t("end-to-end latency");
    t.header({"system", "offered kQPS", "avg (us)", "p99 (us)"});
    struct Variant
    {
        const char *label;
        bool rpu;
        bool split;
    };
    for (const auto &v :
         {Variant{"CPU cluster", false, true},
          Variant{"RPU + batch splitting", true, true},
          Variant{"RPU, no splitting", true, false}}) {
        for (double kqps : loads) {
            sys::ClusterConfig cfg = sys::oneReplica();
            cfg.qps = kqps * 1000.0;
            cfg.requests = 30000;
            cfg.base.rpu = v.rpu;
            cfg.base.batchSplit = v.split;
            auto r = sys::runCluster(cfg).sys;
            t.row({v.label, Table::num(kqps, 0),
                   Table::num(r.meanUs(), 0), Table::num(r.p99Us(), 0)});
        }
    }
    t.print();

    std::printf("Things to try:\n"
                "  - raise the load until each system's tail explodes;\n"
                "  - lower memcHitRate in sys/cluster.h and watch batch\n"
                "    splitting become load-bearing;\n"
                "  - replicate the tiers (ClusterConfig in sys/cluster.h)\n"
                "    and offer datacenter-scale load;\n"
                "  - compare against build/bench/reproduce fig22.\n");
    return 0;
}
