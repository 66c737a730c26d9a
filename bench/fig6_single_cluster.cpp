/**
 * @file
 * Reproduces Fig. 6: single-cluster serving (4 A100 + 8 L4 + 12 T4,
 * 10 Gb/s) of LLaMA 30B and LLaMA 70B, offline and online, comparing
 * Helix against the Swarm and separate-pipelines (SP) baselines.
 *
 * The comparison is a declarative spec over the shared experiment
 * engine — examples/fig6.exp is the same configuration as a text
 * file, so `helixctl run examples/fig6.exp` executes the identical
 * code path as this binary with HELIX_BENCH_FAST=1.
 *
 * Paper reference points: for 70B, Helix achieves 2.14x (offline) /
 * 2.07x (online) Swarm's decode throughput and 1.86x / 1.69x SP's;
 * for 30B (where per-type replicas are feasible) Helix and SP are
 * close while Swarm trails ~2x.
 */

#include <vector>

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace helix;
    using namespace helix::bench;

    Scale scale = Scale::fromArgs(argc, argv);
    cluster::ClusterSpec clus = *exp::clusterByName("single24");
    std::printf("cluster: %s\n", clus.summary().c_str());

    const std::vector<System> systems = {
        {"helix", "helix", "helix"},
        {"swarm", "swarm", "swarm"},
        {"sp", "sp", "fixed-rr"},
    };

    for (const char *model_name : {"llama30b", "llama70b"}) {
        std::string display = exp::modelByName(model_name)->name;
        runFigureComparison(
            "single24", model_name, systems, scale,
            display + " - offline (Fig. 6a/c)",
            display + " - online (Fig. 6b/d, e-h)");
    }

    std::printf("\npaper reference (70B): helix/swarm 2.14x offline, "
                "2.07x online; helix/sp 1.86x / 1.69x\n");
    return 0;
}
