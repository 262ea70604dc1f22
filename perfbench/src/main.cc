/**
 * perfbench: the repository's end-to-end benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--bin-dir DIR]
 *   perfbench --paper-scale [--seed N]
 *   perfbench --make-reference
 *
 * Run from the checkout root (perfbench/run.py builds and invokes it).
 * Prints one metadata line, progress lines, and as its last line the
 * result object {"correct", "attempted", "failed", "metrics"}.
 */
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

int
main(int argc, char** argv)
{
    // --bin-dir is consumed here; the rest is common argument parsing.
    std::string bin_dir = ".bench_build/perfbench";
    std::vector<char*> rest;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--bin-dir") == 0 && i + 1 < argc) {
            bin_dir = argv[++i];
        } else {
            rest.push_back(argv[i]);
        }
    }
    try {
        const pb::Args args =
            pb::parse_args(static_cast<int>(rest.size()), rest.data());
        pb::RunMeta meta = pb::collect_meta(".");
        if (args.make_reference) {
            return pb::make_reference();
        }
        if (args.paper_scale) {
            return pb::run_paper_scale(args, meta);
        }
        const bool qutrit = args.workload == "fig11-qutrit-w12";
        const bool serve = args.workload == "serve-mixed";
        if (!qutrit && !serve && args.workload != "fig11-qubit-w12") {
            std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                         args.workload.c_str());
            return 2;
        }
        if (serve) {
            // Jobs run single-threaded inside the daemon's worker pool.
            meta.threads = 1;
        }
        std::printf("%s\n",
                    pb::meta_json(meta, args.workload, args.seed, args.trace)
                        .c_str());
        const pb::Outcome out = serve
                                    ? pb::run_serve_mixed(args, meta, bin_dir)
                                    : pb::run_fig11(args, meta, bin_dir, qutrit);
        std::fflush(stdout);
        std::printf("%s\n", pb::result_json(out.failed == 0, out.attempted,
                                            out.failed, out.metrics)
                                .c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
