/**
 * @file layers.h
 * Per-layer probes of the traced run: the machine ceiling, the kernel
 * and state-pass replays, trajectory scaling, per-layer self time from
 * the trace, and the per-layer metric table every traced run prints in
 * full. Probes open qd::obs spans whose category is the layer; they are
 * recorded while qd::obs tracing is on.
 */
#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <vector>

#include "common.h"
#include "qdsim/circuit.h"
#include "qdsim/exec/compiled_circuit.h"
#include "qdsim/obs/counters.h"
#include "qdsim/obs/trace.h"

namespace pb {

/** Lanes of every batched replay: the trajectory engine's batch width. */
inline constexpr int kLanes = 12;

/** Read+write scale-pass bandwidth over an array of at least 4x the LLC. */
struct Ceiling {
    long long array_bytes = 0;
    long long llc_bytes = 0;
    double gbps_1t = 0;
    double gbps_nt = 0;
    int threads = 0;
};

/** Measures the ceiling with 1 and `threads` threads (best of 5 passes
 *  each). The array is freed before returning. */
Ceiling measure_ceiling(long long llc_bytes, int threads);

/**
 * Every per-layer metric, set to 0 ("not exercised by this workload").
 * Probes overwrite what they measure, so a traced run always prints the
 * full list in BENCHMARK.json order.
 */
void init_layer_metrics(Metrics& m);

/** machine.* metrics. */
void ceiling_metrics(const Ceiling& c, Metrics& m);

/**
 * kernel.<class>.{calls,s,gbps,ceiling_frac}: replays every op of
 * `circuits` (compiled as the workload runs them) with apply_op_batched
 * on a kLanes-lane batch, one span per call. calls and s are per pass
 * over all circuits; a class no circuit contains reports 0 calls and 0 s.
 * kernel.dispatch_us: median per-call cost of the ops of `small`, whose
 * register sits in L1.
 */
void kernel_layer(
    const std::vector<const qd::exec::CompiledCircuit*>& circuits,
    const qd::Circuit& small, const Ceiling& ceiling, Metrics& m);

/**
 * state.<pass>_s and .ceiling_frac for the BatchedStateVector passes the
 * trajectory moment loop runs (scale, normalise, populations, dephasing
 * kick, fidelity), each the median of 5 single-thread calls on a
 * kLanes-lane batch over `dims`.
 */
void state_layer(const qd::WireDims& dims, const Ceiling& ceiling,
                 Metrics& m);

/**
 * traj.scaling_eff: one QUTRIT x SC 12-lane batch on one thread, against
 * one batch per core on `threads` threads (ideal 1.0).
 */
double trajectory_scaling(int width, int threads, std::uint64_t seed);

/** traj/compile/service counters of a snapshot difference. */
void counter_metrics(const qd::obs::CounterSnapshot& before,
                     const qd::obs::CounterSnapshot& after, Metrics& m);

/** Summed duration of the library's trajectory moment spans that lie
 *  inside a benchmark "bench"/"round" span. */
double moment_loop_seconds(const std::vector<qd::obs::TraceEvent>& events);

/**
 * <layer>.self_s from a trace holding the library's spans and the
 * benchmark's (whose category is the layer). Spans nest by time on each
 * thread; a span's self time is its duration minus its direct children's
 * and goes to its category when that is a layer, otherwise to the
 * nearest enclosing layer span (library categories such as exec or sim
 * count for the layer that called them). Summed over threads.
 */
void self_time_metrics(std::vector<qd::obs::TraceEvent> events, Metrics& m);

}  // namespace pb

#endif  // PERFBENCH_LAYERS_H
