/**
 * @file trajectory.h
 * Quantum-trajectory noise simulation (paper Section 6.1/6.2, Algorithm 1).
 *
 * Instead of evolving a d^N x d^N density matrix, each trial propagates a
 * single state vector and draws one error term per channel application
 * (the quantum-trajectory / Monte-Carlo-wavefunction method). Per moment:
 *   1. apply the moment's ideal gates; after each gate draw a depolarizing
 *      error on its operands,
 *   2. for every wire, draw an amplitude-damping jump with state-dependent
 *      probability ||K_m |psi>||^2 = lambda_m * population(wire, m), apply
 *      the chosen Kraus operator and renormalise,
 *   3. (optionally) apply a coherent random dephasing kick.
 * The trial's fidelity is |<psi_ideal | psi_actual>|^2; over trials the
 * mean converges to the density-matrix fidelity (validated against the
 * exact density-matrix evolution in tests).
 *
 * Execution: the circuit is compiled ONCE per batch (qdsim/exec/ —
 * specialized kernels plus shared gather/scatter plans), and every
 * depolarizing error unitary the loop can draw is precompiled against the
 * same plans, so each of the thousands of shots replays allocation-free
 * kernel dispatches instead of re-deriving index arithmetic per gate.
 * On top of that, shots run B at a time through an
 * exec::BatchedStateVector (amplitude-major lanes): one pass over the
 * compiled circuit advances B trajectories, amortising every plan/offset-
 * table read across the batch; a single trajectory is a 1-lane batch
 * through the same moment loop. Each trial keeps its own RNG stream
 * (root.child(t)) and divergent per-lane events (damping jumps, gate-error
 * draws) run on the lane copied into a one-lane batch, so results are
 * BITWISE independent of the batch width and thread count.
 *
 * Dense batches keep diagonal gates and no-jump damping in a frame of
 * one complex factor per amplitude shared by the batch's lanes (see
 * exec/batched_state.h), so a T gate multiplies the frame, not every
 * lane. Idle damping picks its implementation from the register:
 * uniform registers with dim <= 3 apply the joint no-jump operator of
 * all wires as one table scaling (of the frame, or of a support-walking
 * batch's occupied rows; fused); mixed-radix or dim > 3 registers run the
 * exact per-wire loop of Algorithm 1 (sequential) on frameless batches.
 */
#ifndef NOISE_TRAJECTORY_H
#define NOISE_TRAJECTORY_H

#include <cstdint>
#include <functional>
#include <memory>

#include "noise/error_placement.h"
#include "noise/noise_model.h"
#include "qdsim/circuit.h"
#include "qdsim/exec/fusion.h"
#include "qdsim/rng.h"
#include "qdsim/state_vector.h"

namespace qd::noise {

/** Options for a batch of trajectory trials. */
struct TrajectoryOptions {
    int trials = 100;
    /** Worker threads, each running whole trajectory batches (the only
     *  parallelism of a run: kernel passes stay on their worker);
     *  0 = hardware concurrency. */
    int threads = 0;
    std::uint64_t seed = 2019;
    /**
     * Initial states: Haar-random over the qubit subspace (paper protocol:
     * inputs and outputs are qubits) when true; full-space Haar when false.
     */
    bool qubit_subspace_inputs = true;
    /**
     * Trajectories advanced per batched circuit pass: 0 = auto (a
     * cache-tuned default, currently min(12, trials) — see
     * kDefaultBatchLanes in trajectory.cc), B >= 1 = B lanes per
     * exec::BatchedStateVector pass (1 = one lane per pass). Per-trial
     * results are bitwise identical for every setting (lane equivalence
     * is property-tested).
     */
    int batch = 0;
    /** Record every trial's fidelity in TrajectoryResult::per_trial. */
    bool keep_per_trial = false;
    /**
     * Compile-time operator fusion (see exec/fusion.h). The ideal
     * reference passes always compile fully fused; the noisy loop fuses
     * only between noise boundaries: without idle noise every op that
     * draws a gate-error channel is a fence (errors attach to pre-fusion
     * op boundaries); under idle noise (damping/dephasing) every moment
     * is fenced and its wire-disjoint ops may merge into one moment
     * kernel, their gate errors applied after it (they commute).
     * Disabling reproduces the pre-fusion engine bitwise.
     */
    exec::FusionOptions fusion = {};
};

/** Aggregated fidelity statistics. */
struct TrajectoryResult {
    Real mean_fidelity = 0;
    Real std_error = 0;  ///< 1-sigma standard error of the mean
    int trials = 0;
    /** Per-trial fidelities, trial order; filled iff
     *  TrajectoryOptions::keep_per_trial. */
    std::vector<Real> per_trial;

    Real two_sigma() const { return 2 * std_error; }
};

/**
 * Everything the trajectory engine derives from (circuit, model, fusion)
 * before the first shot runs: the fully fused ideal reference compilation,
 * the noisy program (compile_noisy, the partition the density engine
 * runs too), the precompiled gate-error draw tables, the moment schedule,
 * and the register classification that selects fused or sequential idle
 * damping. Immutable after construction and safe to share across threads
 * — the CompileService caches these across requests so repeated
 * submissions of the same (circuit, model, fusion) skip compilation
 * entirely. Construction does NOT verify; admission is the
 * CompileService's job (CompileService::admission_report for direct
 * callers).
 */
class TrajectoryCompilation {
 public:
    /** Builds from compile_noisy(circuit, model, fusion). */
    TrajectoryCompilation(const Circuit& circuit, const NoiseModel& model,
                          const exec::FusionOptions& fusion = {});
    /** Builds from `program`, which must be compile_noisy(circuit, model,
     *  fusion); its fused payloads are released. */
    TrajectoryCompilation(const Circuit& circuit, const NoiseModel& model,
                          const exec::FusionOptions& fusion,
                          NoisyProgram program);
    ~TrajectoryCompilation();
    TrajectoryCompilation(const TrajectoryCompilation&) = delete;
    TrajectoryCompilation& operator=(const TrajectoryCompilation&) = delete;

    const NoiseModel& model() const;
    const WireDims& dims() const;

    struct Impl;
    const Impl& impl() const { return *impl_; }

 private:
    std::unique_ptr<Impl> impl_;
};

/**
 * Runs one noisy trajectory of `compiled` from `initial`, comparing
 * against `ideal_out` (the noiseless output for the same input), as a
 * 1-lane batch through the same moment loop as run_noisy_trials (no
 * verification, no recompilation). Draws from `rng` and leaves it
 * advanced past them. Given the RNG stream, initial state and ideal
 * output of run_noisy_trials' trial t, it returns that trial's fidelity
 * bitwise.
 * Exposed for tests; most callers use run_noisy_trials.
 */
Real run_single_trajectory(const TrajectoryCompilation& compiled,
                           const StateVector& initial,
                           const StateVector& ideal_out, Rng& rng);

/**
 * Runs `options.trials` independent trajectories with per-trial random
 * initial states, in parallel, and aggregates mean fidelity and its
 * standard error. Trials run `options.batch` lanes at a time through the
 * batched execution engine; per-trial results are reproducible for a
 * fixed seed regardless of thread count AND batch width (lane t always
 * consumes stream root.child(t)).
 *
 * @throws std::invalid_argument if options.trials <= 0,
 *         options.batch < 0 or options.threads < 0.
 *
 * @deprecated For job-stream traffic prefer serve::execute() (serve/run.h),
 *         which routes through the shared CompileService and returns a
 *         uniform RunResult, or the precompiled overload below — this
 *         convenience overload verifies and compiles from scratch on
 *         every call. It remains supported for one-shot callers.
 */
TrajectoryResult run_noisy_trials(const Circuit& circuit,
                                  const NoiseModel& model,
                                  const TrajectoryOptions& options);

/**
 * Precompiled variant: runs trials on an existing compilation without
 * re-verifying or recompiling — the per-request hot path behind the
 * CompileService. `options.fusion` is ignored (the compilation already
 * fixed it); every other option behaves as above, with the same throw
 * contract for trials/batch/threads.
 */
TrajectoryResult run_noisy_trials(const TrajectoryCompilation& compiled,
                                  const TrajectoryOptions& options);

}  // namespace qd::noise

#endif  // NOISE_TRAJECTORY_H
