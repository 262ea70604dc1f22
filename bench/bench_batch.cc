/**
 * Batched trajectory execution: B lanes per pass vs one lane per pass.
 *
 * Workload: the paper's 5-qutrit Generalized Toffoli (4 controls + target,
 * decomposed to one-/two-qutrit gates) under the superconducting noise
 * model — amplitude damping + depolarizing gate errors, the Section 7
 * reliability setup. Both runs go through the SAME trajectory engine with
 * the SAME per-trial RNG streams; the only difference is whether each
 * exec::BatchedStateVector pass over the compiled circuit advances one
 * lane or B lanes, so the ratio isolates the plan/offset-table
 * amortisation and lane SIMD. Both run single-threaded: across-shot
 * threading is available to either width and would only add scheduling
 * noise to the ratio. (The "per_shot_*" JSON keys name the 1-lane run.)
 *
 * Emits BENCH_batch.json (gated on "speedup" by scripts/compare_bench.py
 * against bench/baselines/). Fails loudly if the two widths' per-trial
 * fidelities are not bitwise identical — the speedup is only meaningful
 * while lanes are exactly independent of the batch width.
 *
 * Timing: each width runs QD_BATCH_REPS times after a shared warmup and
 * reports its fastest rep — per-run wall times are ~10 ms, so min-of-reps
 * is what filters scheduler noise out of the gated ratio.
 *
 * Support walk (gated on "speedup_sparse"): the QUTRIT Generalized
 * Toffoli at width 10 (9 controls, 3^10 amplitudes; fixed, so the gated
 * ratio always measures the same workload) from the Figure 11
 * qubit-subspace inputs, 24 trials in B-lane batches walking only their
 * occupied support (the default) against the same trials forced dense
 * (noise::testing::DenseSupportScope), each on one trajectory worker.
 * The two sides alternate within each rep, so a slow phase of the host
 * falls on both, and each reports its fastest rep. Fails loudly if a
 * per-trial fidelity differs by more than 1e-12 (the damped runs differ
 * by rounding: a tracked batch scales its lanes, not a damping frame).
 * "sparse_support_frac" is the fraction of the dense walk's amplitude
 * slots the tracked run visits (obs bat_walked_slots).
 *
 * Knobs: QD_BATCH_CONTROLS (default 4), QD_BATCH_TRIALS (default 512),
 * QD_BATCH_LANES (default 12), QD_BATCH_REPS (default 5).
 */
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "constructions/gen_toffoli.h"
#include "noise/models.h"
#include "noise/trajectory.h"
#include "noise/trajectory_testing.h"

namespace {

using namespace qd;

double
now_ms()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::banner("bench_batch: B lanes per pass vs one lane per pass",
                  "Section 7 Monte-Carlo reliability workload; 5-qutrit "
                  "Generalized Toffoli under damping + depolarizing");

    const int n_controls = bench::env_int("QD_BATCH_CONTROLS", 4);
    const int trials = bench::env_int("QD_BATCH_TRIALS", 512);
    const int lanes = bench::env_int("QD_BATCH_LANES", 12);
    const int reps = bench::env_int("QD_BATCH_REPS", 5);

    const auto built =
        ctor::build_gen_toffoli(ctor::Method::kQutrit, n_controls);
    const Circuit& circuit = built.circuit;
    std::printf("%s\n", circuit.summary("workload").c_str());

    const noise::NoiseModel model = noise::sc();
    std::printf("%s\n\n", model.describe().c_str());

    noise::TrajectoryOptions options;
    options.trials = trials;
    options.seed = 2019;
    options.threads = 1;
    options.keep_per_trial = true;

    auto time_path = [&](int batch, noise::TrajectoryResult& result) {
        options.batch = batch;
        double best = 0;
        for (int r = 0; r < reps; ++r) {
            const double t0 = now_ms();
            result = noise::run_noisy_trials(circuit, model, options);
            const double elapsed = now_ms() - t0;
            if (r == 0 || elapsed < best) {
                best = elapsed;
            }
        }
        return best;
    };

    // Warmup: run once so page faults and lazy init don't land in either
    // side's first rep.
    noise::TrajectoryResult single, batched;
    options.batch = lanes;
    noise::run_noisy_trials(circuit, model, options);

    // 1. One lane per pass.
    const double single_ms = time_path(1, single);

    // 2. B-way batched execution: one compiled pass advances B lanes.
    const double batched_ms = time_path(lanes, batched);

    bool lane_equivalent = single.per_trial.size() == batched.per_trial.size();
    for (std::size_t t = 0; lane_equivalent && t < single.per_trial.size();
         ++t) {
        lane_equivalent = single.per_trial[t] == batched.per_trial[t];
    }

    const double speedup = single_ms / batched_ms;
    std::printf("1 lane:    %d trials in %8.1f ms (%7.1f shots/s)\n", trials,
                single_ms, 1000.0 * trials / single_ms);
    std::printf("batched:   %d trials in %8.1f ms (%7.1f shots/s), B=%d\n",
                trials, batched_ms, 1000.0 * trials / batched_ms, lanes);
    std::printf("speedup:   %8.2fx %s\n", speedup,
                speedup >= 2.0 ? "(>= 2x target met)" : "(below 2x target)");
    std::printf("lane equivalence: %s (mean fidelity %.6f)\n",
                lane_equivalent ? "bitwise identical" : "MISMATCH",
                batched.mean_fidelity);

    // 3. Support walk: tracked batches against the same trials forced
    // dense, on the width-10 QUTRIT circuit.
    const int sparse_controls = 9;
    const int sparse_trials = 24;
    const auto wide =
        ctor::build_gen_toffoli(ctor::Method::kQutrit, sparse_controls);
    std::printf("\n%s\n", wide.circuit.summary("support walk").c_str());
    noise::TrajectoryOptions sparse_opts = options;
    sparse_opts.trials = sparse_trials;
    sparse_opts.batch = lanes;
    auto run_wide = [&] {
        return noise::run_noisy_trials(wide.circuit, model, sparse_opts);
    };
    auto run_dense = [&] {
        const noise::testing::DenseSupportScope scope;
        return run_wide();
    };
    // Warmup, as above.
    noise::TrajectoryResult dense_res = run_dense();
    noise::TrajectoryResult tracked_res = run_wide();
    double sparse_dense_ms = 0, sparse_ms = 0;
    for (int r = 0; r < reps; ++r) {
        double t0 = now_ms();
        dense_res = run_dense();
        const double dense_elapsed = now_ms() - t0;
        t0 = now_ms();
        tracked_res = run_wide();
        const double tracked_elapsed = now_ms() - t0;
        if (r == 0 || dense_elapsed < sparse_dense_ms) {
            sparse_dense_ms = dense_elapsed;
        }
        if (r == 0 || tracked_elapsed < sparse_ms) {
            sparse_ms = tracked_elapsed;
        }
    }
    bool sparse_equivalent =
        tracked_res.per_trial.size() == dense_res.per_trial.size();
    for (std::size_t t = 0; sparse_equivalent && t < dense_res.per_trial.size();
         ++t) {
        sparse_equivalent = std::abs(tracked_res.per_trial[t] -
                                     dense_res.per_trial[t]) <= 1e-12;
    }
    // The walked fraction, from one counted tracked run.
    double support_frac = 0;
    {
        const bool was_enabled = obs::enabled();
        obs::set_enabled(true);
        obs::reset_counters();
        run_wide();
        const obs::SimReport counted = obs::report_snapshot();
        obs::set_enabled(was_enabled);
        // The dense walk: every batched lane dispatched over the register.
        double dense_slots = 0;
        for (const obs::Counter k :
             {obs::Counter::kBatPermutation, obs::Counter::kBatDiagonal,
              obs::Counter::kBatMonomial, obs::Counter::kBatSingleWire,
              obs::Counter::kBatControlled, obs::Counter::kBatDense}) {
            dense_slots += static_cast<double>(counted.counters[k]);
        }
        dense_slots *= static_cast<double>(wide.circuit.dims().size());
        if (dense_slots > 0) {
            support_frac =
                static_cast<double>(
                    counted.counters[obs::Counter::kBatWalkedSlots]) /
                dense_slots;
        }
    }
    const double speedup_sparse = sparse_dense_ms / sparse_ms;
    std::printf("dense walk:   %d trials in %8.1f ms\n", sparse_trials,
                sparse_dense_ms);
    std::printf("support walk: %d trials in %8.1f ms (%.2f%% of the dense "
                "walk's slots)\n",
                sparse_trials, sparse_ms, 100.0 * support_frac);
    std::printf("speedup:      %8.2fx\n", speedup_sparse);
    std::printf("support equivalence: %s (mean fidelity %.6f)\n",
                sparse_equivalent ? "within 1e-12" : "MISMATCH",
                tracked_res.mean_fidelity);

    // Instrumented section: a small batched run with counters on
    // (trajectory divergence events, batched kernel classes) and optional
    // --trace spans.
    bench::ObsSection obs_section(bench::trace_flag(argc, argv));
    options.batch = lanes;
    options.trials = std::min(trials, 4 * lanes);
    noise::run_noisy_trials(circuit, model, options);
    options.trials = trials;
    const obs::SimReport rep = obs_section.finish();
    std::printf("\n%s\n", rep.to_string().c_str());

    bench::JsonWriter jw;
    jw.str("workload", "qutrit_gen_toffoli_sc_noise")
        .integer("n_controls", n_controls)
        .integer("trials", trials)
        .integer("lanes", lanes)
        .num("per_shot_ms", single_ms, "%.3f")
        .num("batched_ms", batched_ms, "%.3f")
        .num("per_shot_shots_per_sec", 1000.0 * trials / single_ms, "%.2f")
        .num("batched_shots_per_sec", 1000.0 * trials / batched_ms, "%.2f")
        .num("speedup", speedup, "%.4f")
        .boolean("lane_equivalent", lane_equivalent)
        .num("mean_fidelity", batched.mean_fidelity)
        .integer("sparse_controls", sparse_controls)
        .integer("sparse_trials", sparse_trials)
        .num("sparse_dense_ms", sparse_dense_ms, "%.3f")
        .num("sparse_ms", sparse_ms, "%.3f")
        .num("speedup_sparse", speedup_sparse, "%.4f")
        .num("sparse_support_frac", support_frac, "%.5f")
        .boolean("sparse_equivalent", sparse_equivalent)
        .report(rep);
    jw.write("BENCH_batch.json");
    if (!lane_equivalent) {
        std::fprintf(stderr,
                     "bench_batch: 1-lane and B-lane trajectories "
                     "diverged; the speedup is meaningless\n");
        return 1;
    }
    if (!sparse_equivalent) {
        std::fprintf(stderr,
                     "bench_batch: support-walk and dense-walk "
                     "trajectories diverged; speedup_sparse is "
                     "meaningless\n");
        return 1;
    }
    return 0;
}
