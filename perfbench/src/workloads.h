/**
 * @file workloads.h
 * The benchmark's workloads. Each returns the checked outcome and its
 * metrics: the end-to-end metrics untraced, the per-layer metrics when
 * Args::trace is set.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <string>

#include "common.h"

namespace pb {

struct Outcome {
    long long attempted = 0;
    long long failed = 0;
    Metrics metrics;
};

/** fig11-qutrit-w12 (`qutrit`) or fig11-qubit-w12. `bin_dir` holds the
 *  built qd_served (the traced run's serving probe). */
Outcome run_fig11(const Args& args, const RunMeta& meta,
                  const std::string& bin_dir, bool qutrit);

/** serve-mixed: a closed-loop job stream against a spawned qd_served.
 *  `bin_dir` holds the built qd_served. */
Outcome run_serve_mixed(const Args& args, const RunMeta& meta,
                        const std::string& bin_dir);

/**
 * The serving layers measured on a short stream of the serve-mixed mix
 * against a spawned qd_served: the serve.* and density.* per-layer
 * metrics of traced runs whose own path never reaches those layers.
 * Adds its checked jobs to `out`.
 */
void serve_probe(const Args& args, const std::string& bin_dir, Outcome& out);

/** Ungated paper-scale Figure 11: every cell at width 14 probed with one
 *  12-lane batch per core, its time projected to 1000 trials. Returns an
 *  exit code. */
int run_paper_scale(const Args& args, const RunMeta& meta);

/** Regenerates the recorded width-12 reference table on stdout. */
int make_reference();

}  // namespace pb

#endif  // PERFBENCH_WORKLOADS_H
