#include "noise/trajectory.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "constructions/gen_toffoli.h"
#include "noise/density_matrix.h"
#include "noise/error_placement.h"
#include "noise/channels.h"
#include "noise/models.h"
#include "noise/trajectory_testing.h"
#include "qdsim/exec/compiled_circuit.h"
#include "qdsim/gate_library.h"
#include "qdsim/moments.h"
#include "qdsim/obs/counters.h"
#include "qdsim/obs/report.h"
#include "qdsim/random_state.h"
#include "qdsim/simulator.h"

namespace qd::noise {
namespace {

NoiseModel
noiseless()
{
    NoiseModel m;
    m.name = "NONE";
    m.dt_1q = 100e-9;
    m.dt_2q = 300e-9;
    return m;
}

Circuit
small_qutrit_circuit()
{
    Circuit c(WireDims::uniform(2, 3));
    c.append(gates::embed(gates::H(), 3), {0});
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    c.append(gates::embed(gates::H(), 3), {1});
    c.append(gates::X12(), {0});
    return c;
}

TEST(Trajectory, NoiselessGivesUnitFidelity) {
    const Circuit c = small_qutrit_circuit();
    TrajectoryOptions opts;
    opts.trials = 8;
    const auto res = run_noisy_trials(c, noiseless(), opts);
    EXPECT_NEAR(res.mean_fidelity, 1.0, 1e-9);
    EXPECT_NEAR(res.std_error, 0.0, 1e-9);
    EXPECT_EQ(res.trials, 8);
}

TEST(Trajectory, ThrowsOnNonPositiveTrials) {
    // Regression: trials == 0 used to divide by zero (NaN mean fidelity)
    // and spawn a zero-thread pool; negative counts corrupted the result
    // buffer size. Both must be rejected up front.
    const Circuit c = small_qutrit_circuit();
    TrajectoryOptions opts;
    opts.trials = 0;
    EXPECT_THROW(run_noisy_trials(c, noiseless(), opts),
                 std::invalid_argument);
    opts.trials = -5;
    EXPECT_THROW(run_noisy_trials(c, noiseless(), opts),
                 std::invalid_argument);
}

TEST(Trajectory, ReproducibleForSeed) {
    const Circuit c = small_qutrit_circuit();
    auto model = sc();
    model.p1 *= 100;  // exaggerate noise so fidelities vary
    model.p2 *= 100;
    TrajectoryOptions opts;
    opts.trials = 16;
    opts.seed = 7;
    const auto a = run_noisy_trials(c, model, opts);
    const auto b = run_noisy_trials(c, model, opts);
    EXPECT_EQ(a.mean_fidelity, b.mean_fidelity);
    // Thread count must not change results.
    opts.threads = 1;
    const auto serial = run_noisy_trials(c, model, opts);
    EXPECT_EQ(a.mean_fidelity, serial.mean_fidelity);
}

TEST(Trajectory, MoreNoiseLowersFidelity) {
    const Circuit c = small_qutrit_circuit();
    TrajectoryOptions opts;
    opts.trials = 200;
    auto weak = sc();
    auto strong = sc();
    strong.p1 = weak.p1 * 300;
    strong.p2 = weak.p2 * 300;
    const auto fw = run_noisy_trials(c, weak, opts).mean_fidelity;
    const auto fs = run_noisy_trials(c, strong, opts).mean_fidelity;
    EXPECT_GT(fw, fs);
}

TEST(Trajectory, DampingDrivesExcitedStateDown) {
    // Idling |1> under strong damping for a total duration of exactly T1:
    // mean fidelity = survival probability = exp(-1). Z gates keep the
    // schedule busy without moving a jumped |0> back into the ideal state.
    Circuit c(WireDims::uniform(1, 2));
    for (int i = 0; i < 40; ++i) {
        c.append(gates::Z(), {0});
    }
    NoiseModel m = noiseless();
    m.t1 = 40 * m.dt_1q;  // strong damping
    StateVector one(c.dims(), {1});
    Rng rng(3);
    Real mean = 0;
    const int trials = 600;
    const StateVector ideal = simulate(c, one);
    const TrajectoryCompilation compiled(c, m);
    for (int t = 0; t < trials; ++t) {
        Rng child = rng.child(static_cast<std::uint64_t>(t));
        mean += run_single_trajectory(compiled, one, ideal, child);
    }
    mean /= trials;
    EXPECT_NEAR(mean, std::exp(-1.0), 0.06);
}

TEST(Trajectory, QutritLevel2DampsFasterThanLevel1) {
    // |2> damps with lambda_2 = 1-exp(-2dt/T1) > lambda_1.
    Circuit c(WireDims::uniform(1, 3));
    for (int i = 0; i < 10; ++i) {
        c.append(gates::X01(), {0});
        c.append(gates::X01(), {0});
    }
    NoiseModel m = noiseless();
    m.t1 = 20 * m.dt_1q;
    const StateVector one(c.dims(), {1});
    const StateVector two(c.dims(), {2});
    const TrajectoryCompilation compiled(c, m);
    auto mean_fid = [&](const StateVector& init) {
        Rng rng(17);
        Real mean = 0;
        const StateVector ideal = simulate(c, init);
        for (int t = 0; t < 400; ++t) {
            Rng child = rng.child(static_cast<std::uint64_t>(t));
            mean += run_single_trajectory(compiled, init, ideal, child);
        }
        return mean / 400;
    };
    EXPECT_LT(mean_fid(two), mean_fid(one));
}

TEST(Trajectory, ConvergesToDensityMatrixDepolarizing) {
    // The trajectory mean must converge to the exact density-matrix
    // fidelity (paper Section 6.2). Two-qutrit circuit, gate errors only.
    const Circuit c = small_qutrit_circuit();
    NoiseModel m = noiseless();
    m.p1 = 2e-3;
    m.p2 = 1e-3;
    Rng rng(5);
    const StateVector init = haar_random_state(c.dims(), rng);
    const Real exact = density_matrix_fidelity(c, m, init);
    const StateVector ideal = simulate(c, init);
    Real mean = 0;
    const int trials = 4000;
    const TrajectoryCompilation compiled(c, m);
    for (int t = 0; t < trials; ++t) {
        Rng child = rng.child(static_cast<std::uint64_t>(t));
        mean += run_single_trajectory(compiled, init, ideal, child);
    }
    mean /= trials;
    EXPECT_NEAR(mean, exact, 0.01);
}

TEST(Trajectory, ConvergesToDensityMatrixWithDamping) {
    const Circuit c = small_qutrit_circuit();
    NoiseModel m = noiseless();
    m.p1 = 1e-3;
    m.p2 = 1e-3;
    m.t1 = 300 * m.dt_2q;  // noticeable damping
    Rng rng(6);
    const StateVector init = haar_random_state(c.dims(), rng);
    const Real exact = density_matrix_fidelity(c, m, init);
    const StateVector ideal = simulate(c, init);
    Real mean = 0;
    const int trials = 4000;
    const TrajectoryCompilation compiled(c, m);
    for (int t = 0; t < trials; ++t) {
        Rng child = rng.child(static_cast<std::uint64_t>(t));
        mean += run_single_trajectory(compiled, init, ideal, child);
    }
    mean /= trials;
    EXPECT_NEAR(mean, exact, 0.01);
}

TEST(Trajectory, ConvergesToDensityMatrixWithDephasing) {
    Circuit c(WireDims::uniform(1, 3));
    c.append(gates::H3(), {0});
    c.append(gates::H3().inverse(), {0});
    NoiseModel m = noiseless();
    m.dephasing_sigma = 300.0;  // strong phase noise over ns moments
    m.dt_1q = 1e-6;
    m.dt_2q = 200e-6;
    Rng rng(8);
    const StateVector init = haar_random_state(c.dims(), rng);
    const Real exact = density_matrix_fidelity(c, m, init);
    const StateVector ideal = simulate(c, init);
    Real mean = 0;
    const int trials = 6000;
    const TrajectoryCompilation compiled(c, m);
    for (int t = 0; t < trials; ++t) {
        Rng child = rng.child(static_cast<std::uint64_t>(t));
        mean += run_single_trajectory(compiled, init, ideal, child);
    }
    mean /= trials;
    EXPECT_NEAR(mean, exact, 0.015);
}

TEST(Trajectory, DephasedControlledPermutationsMatchDensityMatrix) {
    // Three qutrits under strong dephasing through controlled
    // permutations and a controlled single-wire gate: the phase frame's
    // permutation and controlled kernel paths against the exact
    // density-matrix evolution.
    Circuit c(WireDims::uniform(3, 3));
    c.append(gates::H3(), {0});
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    c.append(gates::Xplus1().controlled(3, 2), {1, 2});
    c.append(gates::H3().controlled(3, 1), {2, 0});
    c.append(gates::Xminus1().controlled(3, 1), {0, 1});
    NoiseModel m = noiseless();
    m.dephasing_sigma = 300.0;
    m.dt_1q = 1e-6;
    m.dt_2q = 4e-6;
    Rng rng(9);
    const StateVector init = haar_random_state(c.dims(), rng);
    const Real exact = density_matrix_fidelity(c, m, init);
    const StateVector ideal = simulate(c, init);
    Real mean = 0;
    const int trials = 4000;
    const TrajectoryCompilation compiled(c, m);
    for (int t = 0; t < trials; ++t) {
        Rng child = rng.child(static_cast<std::uint64_t>(t));
        mean += run_single_trajectory(compiled, init, ideal, child);
    }
    mean /= trials;
    EXPECT_LT(exact, 0.9);  // the dephasing moves the fidelity
    EXPECT_NEAR(mean, exact, 0.015);
}

TEST(Trajectory, QubitSubspaceInputsStayQubit) {
    // With qubit-subspace inputs the ideal output of a binary-logic
    // circuit has no |2> population (paper: inputs/outputs are qubits).
    Circuit c(WireDims::uniform(3, 3));
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    c.append(gates::Xminus1().controlled(3, 1), {0, 1});
    TrajectoryOptions opts;
    opts.trials = 4;
    const auto res = run_noisy_trials(c, noiseless(), opts);
    EXPECT_NEAR(res.mean_fidelity, 1.0, 1e-9);
}

TEST(Trajectory, StdErrorShrinksWithTrials) {
    const Circuit c = small_qutrit_circuit();
    auto model = sc();
    model.p1 *= 200;
    model.p2 *= 200;
    TrajectoryOptions small_opts, large_opts;
    small_opts.trials = 50;
    large_opts.trials = 800;
    const auto s = run_noisy_trials(c, model, small_opts);
    const auto l = run_noisy_trials(c, model, large_opts);
    EXPECT_LT(l.std_error, s.std_error);
}


TEST(Trajectory, MixedRadixDampingSequentialPath) {
    // Mixed-radix registers take the exact per-wire sequential idle path;
    // validate against the density-matrix oracle.
    Circuit c(WireDims({2, 3}));
    c.append(gates::H(), {0});
    c.append(gates::Xplus1().controlled(2, 1), {0, 1});
    c.append(gates::H3(), {1});
    NoiseModel m = noiseless();
    m.p2 = 1e-3;
    m.t1 = 100 * m.dt_2q;
    Rng rng(12);
    const StateVector init = haar_random_state(c.dims(), rng);
    const Real exact = density_matrix_fidelity(c, m, init);
    const StateVector ideal = simulate(c, init);
    Real mean = 0;
    const int trials = 4000;
    const TrajectoryCompilation compiled(c, m);
    for (int t = 0; t < trials; ++t) {
        Rng child = rng.child(static_cast<std::uint64_t>(t));
        mean += run_single_trajectory(compiled, init, ideal, child);
    }
    mean /= trials;
    EXPECT_NEAR(mean, exact, 0.012);
}

/** Uniform wire draw helper for the random-circuit generator. */
std::uint64_t
rng_wire(Rng& rng, int n)
{
    return rng.uniform_int(static_cast<std::uint64_t>(n));
}

/** Noise model hot enough that every divergent branch (gate-error draws,
 *  damping jumps, the fused rare branch, dephasing kicks) fires within a
 *  few dozen trials. */
NoiseModel
hot_noise()
{
    NoiseModel m = noiseless();
    m.p1 = 5e-3;
    m.p2 = 5e-3;
    m.t1 = 5 * m.dt_1q;  // violent damping: jumps are common
    m.dephasing_sigma = 50.0;
    return m;
}

/** Gate errors and strong dephasing, no damping: the phase frame alone
 *  (the shape of BARE_QUTRIT). */
NoiseModel
hot_dephasing()
{
    NoiseModel m = hot_noise();
    m.t1 = 0;
    return m;
}

/** Runs the same trial set at several batch widths / thread counts and
 *  expects BITWISE identical per-trial fidelities: lane t must reproduce
 *  the trajectory on stream root.child(t) exactly at every width. */
void
expect_batch_invariant(const Circuit& c, const NoiseModel& m, int trials,
                       bool qubit_subspace_inputs = true)
{
    TrajectoryOptions opts;
    opts.trials = trials;
    opts.seed = 99;
    opts.keep_per_trial = true;
    opts.qubit_subspace_inputs = qubit_subspace_inputs;
    opts.threads = 1;
    opts.batch = 1;  // one lane per pass
    const auto ref = run_noisy_trials(c, m, opts);
    ASSERT_EQ(static_cast<int>(ref.per_trial.size()), trials);
    // B dividing trials, B not dividing trials, the production default
    // width (kDefaultBatchLanes), B > trials, and a thread count the batch
    // count does not divide.
    const int batches[] = {2, 8, 12, trials + 3};
    for (const int b : batches) {
        for (const int threads : {1, 3}) {
            TrajectoryOptions bo = opts;
            bo.batch = b;
            bo.threads = threads;
            const auto got = run_noisy_trials(c, m, bo);
            ASSERT_EQ(got.per_trial.size(), ref.per_trial.size());
            for (int t = 0; t < trials; ++t) {
                ASSERT_EQ(got.per_trial[static_cast<std::size_t>(t)],
                          ref.per_trial[static_cast<std::size_t>(t)])
                    << "batch " << b << " threads " << threads << " trial "
                    << t;
            }
            ASSERT_EQ(got.mean_fidelity, ref.mean_fidelity);
        }
    }
}

TEST(Trajectory, BatchedLanesMatchSingleShotUniformQutrit) {
    // Uniform qutrit register: batched gates + fused damping + dephasing
    // against one lane per pass, bitwise.
    expect_batch_invariant(small_qutrit_circuit(), hot_noise(), 21);
    expect_batch_invariant(small_qutrit_circuit(), hot_dephasing(), 21);
}

/** Mixed-radix register: runs the sequential damping engine (per-wire
 *  jumps, masked K0). */
Circuit
mixed_radix_circuit()
{
    Circuit c(WireDims({2, 3, 2}));
    c.append(gates::H(), {0});
    c.append(gates::Xplus1().controlled(2, 1), {0, 1});
    c.append(gates::H3(), {1});
    c.append(gates::X().controlled(3, 2), {1, 2});
    return c;
}

TEST(Trajectory, FullSpaceInputsBatchInvariantAndNoiselessExact) {
    // qubit_subspace_inputs = false draws Haar states over the whole
    // register, so every amplitude (levels 2 included) is nonzero from
    // the start and the damped moment loop runs on dense lanes.
    const Circuit c = small_qutrit_circuit();
    expect_batch_invariant(c, sc(), 21, /*qubit_subspace_inputs=*/false);
    expect_batch_invariant(c, hot_noise(), 13,
                           /*qubit_subspace_inputs=*/false);
    TrajectoryOptions opts;
    opts.trials = 16;
    opts.threads = 2;
    opts.qubit_subspace_inputs = false;
    opts.keep_per_trial = true;
    NoiseModel still = noiseless();
    still.t1 = 1.0;  // damping on, but far too slow to move a fidelity
    for (const NoiseModel& m : {noiseless(), still}) {
        const auto res = run_noisy_trials(c, m, opts);
        for (const Real f : res.per_trial) {
            EXPECT_NEAR(f, 1.0, 1e-9) << m.name;
        }
    }
}

TEST(Trajectory, BatchedLanesMatchSingleShotMixedRadix) {
    expect_batch_invariant(mixed_radix_circuit(), hot_noise(), 13);
    expect_batch_invariant(mixed_radix_circuit(), hot_dephasing(), 13);
}

TEST(Trajectory, BatchedLanesMatchSingleShotOnRandomCircuits) {
    // Random qutrit circuits drawn from a pool covering every kernel kind
    // (permutation, diagonal, unrolled d3, controlled, dense via random
    // 2-wire unitaries).
    Rng gen(77);
    for (int rep = 0; rep < 2; ++rep) {
        const int wires = 2 + rep;
        Circuit c(WireDims::uniform(wires, 3));
        for (int g = 0; g < 10; ++g) {
            const int w = static_cast<int>(
                rng_wire(gen, wires));
            const int v = (w + 1 +
                           static_cast<int>(rng_wire(gen, wires - 1))) %
                          wires;
            switch (gen.uniform_int(5)) {
                case 0:
                    c.append(gates::H3(), {w});
                    break;
                case 1:
                    c.append(gates::Z3(), {w});
                    break;
                case 2:
                    c.append(gates::Xplus1(), {w});
                    break;
                case 3:
                    c.append(gates::Xplus1().controlled(3, 2), {w, v});
                    break;
                default:
                    c.append(gates::H3().controlled(3, 1), {w, v});
                    break;
            }
        }
        expect_batch_invariant(c, hot_noise(), 11);
    }
}

TEST(Trajectory, BatchWiderThanTrials) {
    // trials < B must clamp the lane count, not read or write past the
    // trial buffer; statistics stay exact.
    const Circuit c = small_qutrit_circuit();
    TrajectoryOptions opts;
    opts.trials = 3;
    opts.batch = 64;
    opts.keep_per_trial = true;
    const auto res = run_noisy_trials(c, hot_noise(), opts);
    EXPECT_EQ(res.trials, 3);
    EXPECT_EQ(res.per_trial.size(), 3u);
    opts.batch = 1;
    const auto ref = run_noisy_trials(c, hot_noise(), opts);
    for (int t = 0; t < 3; ++t) {
        EXPECT_EQ(res.per_trial[static_cast<std::size_t>(t)],
                  ref.per_trial[static_cast<std::size_t>(t)]);
    }
}

TEST(Trajectory, RejectsNegativeBatch) {
    const Circuit c = small_qutrit_circuit();
    TrajectoryOptions opts;
    opts.batch = -4;
    EXPECT_THROW(run_noisy_trials(c, noiseless(), opts),
                 std::invalid_argument);
}

TEST(Trajectory, RejectsNegativeThreads) {
    // 0 asks for every core; a negative count is a caller's mistake that
    // must not silently mean the same, so both overloads reject it.
    const Circuit c = small_qutrit_circuit();
    TrajectoryOptions opts;
    opts.trials = 4;
    opts.threads = -1;
    EXPECT_THROW(run_noisy_trials(c, noiseless(), opts),
                 std::invalid_argument);
    const TrajectoryCompilation compiled(c, noiseless());
    EXPECT_THROW(run_noisy_trials(compiled, opts), std::invalid_argument);
    opts.threads = 0;
    EXPECT_EQ(run_noisy_trials(compiled, opts).trials, 4);
}

TEST(Trajectory, DampingEnginesAgreeUnderLevel2OnlyDecay) {
    // Regression: the sequential engine gated the no-jump K0 on
    // lambda(1) > 0 alone, so a level-2-only decay model (lambda(1) == 0,
    // lambda(2) > 0) silently skipped no-jump damping there while the
    // fused engine applied it. The register picks the engine: a uniform
    // qutrit runs fused damping, the mixed-radix {3, 2} register the
    // sequential loop. Both must converge to the exact density-matrix
    // fidelity.
    NoiseModel m = noiseless();
    m.t1 = 10 * m.dt_1q;
    m.decay_rates = {0.0, 2.0};  // |1> metastable, |2> decays
    EXPECT_EQ(m.lambda(1, m.dt_1q), 0.0);
    EXPECT_GT(m.lambda(2, m.dt_1q), 0.0);

    for (const WireDims& dims : {WireDims::uniform(1, 3), WireDims({3, 2})}) {
        Circuit c(dims);
        for (int i = 0; i < 8; ++i) {
            c.append(gates::H3(), {0});
            c.append(gates::H3().inverse(), {0});
        }
        // Superposition with heavy |2> weight on the qutrit (wire 0, the
        // most significant digit; any other wire in |0>) so level-2
        // damping matters.
        const Index stride = dims.size() / 3;
        StateVector init(dims);
        init.amplitudes()[0] = Complex(0.5, 0);
        init.amplitudes()[stride] = Complex(0.5, 0);
        init.amplitudes()[2 * stride] = Complex(std::sqrt(0.5), 0);
        const StateVector ideal = simulate(c, init);
        const Real exact = density_matrix_fidelity(c, m, init);

        Rng rng(21);
        Real mean = 0;
        const int trials = 3000;
        const TrajectoryCompilation compiled(c, m);
        for (int t = 0; t < trials; ++t) {
            Rng child = rng.child(static_cast<std::uint64_t>(t));
            mean += run_single_trajectory(compiled, init, ideal, child);
        }
        EXPECT_NEAR(mean / trials, exact, 0.01)
            << "wires " << dims.num_wires();
    }
}

TEST(Trajectory, SingleTrajectoryMatchesRunNoisyTrialsLane) {
    // run_single_trajectory is the 1-lane case of the engine behind
    // run_noisy_trials: given trial t's stream, initial state and ideal
    // output it must return that trial's fidelity bitwise.
    auto check = [](const Circuit& c, const NoiseModel& m) {
        TrajectoryOptions opts;
        opts.trials = 20;
        opts.seed = 99;
        opts.threads = 3;
        opts.keep_per_trial = true;
        const auto res = run_noisy_trials(c, m, opts);
        const TrajectoryCompilation compiled(c, m, opts.fusion);
        const Rng root(opts.seed);
        for (int t = 0; t < opts.trials; ++t) {
            Rng rng = root.child(static_cast<std::uint64_t>(t));
            const StateVector initial =
                haar_random_qubit_subspace_state(c.dims(), rng);
            const StateVector ideal = simulate(c, initial);
            EXPECT_EQ(run_single_trajectory(compiled, initial, ideal, rng),
                      res.per_trial[static_cast<std::size_t>(t)])
                << m.name << " trial " << t;
        }
    };
    // Fused damping + gate errors, dephasing, and sequential damping.
    check(small_qutrit_circuit(), sc());
    check(small_qutrit_circuit(), bare_qutrit());
    check(mixed_radix_circuit(), hot_noise());
}

TEST(Trajectory, TotalConventionScalesErrors) {
    // Under GateErrorConvention::kTotal the qutrit circuit pays the same
    // total error as a qubit circuit with identical gate count would.
    Circuit c3(WireDims::uniform(2, 3));
    for (int i = 0; i < 50; ++i) {
        c3.append(gates::Xplus1().controlled(3, 1), {0, 1});
        c3.append(gates::Xminus1().controlled(3, 1), {0, 1});
    }
    NoiseModel total = noiseless();
    total.p2 = 2e-3;
    total.convention = GateErrorConvention::kTotal;
    NoiseModel per_channel = noiseless();
    per_channel.p2 = 2e-3 / 80.0;  // same total for d=3 pairs
    TrajectoryOptions opts;
    opts.trials = 400;
    const Real ft = run_noisy_trials(c3, total, opts).mean_fidelity;
    const Real fp =
        run_noisy_trials(c3, per_channel, opts).mean_fidelity;
    EXPECT_NEAR(ft, fp, 0.001);  // identical draws given the same seed
}

/** Circuit with single-qutrit runs between two-qutrit gates — fusable
 *  material when only the two-qutrit ops carry error channels. */
Circuit
fusable_qutrit_circuit()
{
    Circuit c(WireDims::uniform(2, 3));
    c.append(gates::Z3(), {0});
    c.append(gates::Xplus1(), {0});
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    c.append(gates::Z3(), {1});
    c.append(gates::X12(), {1});
    c.append(gates::H3(), {0});
    c.append(gates::H3(), {0});
    c.append(gates::Xminus1().controlled(3, 1), {1, 0});
    c.append(gates::Z3(), {0});
    c.append(gates::Xplus1(), {1});
    return c;
}

TEST(Trajectory, FusionPreservesErrorPlacementOnGateErrorModels) {
    // Gate errors on two-qutrit ops only: the single-qutrit runs between
    // them fuse, while every error-carrying op is a fence — the channel
    // stays attached to its pre-fusion boundary, so the fused engine
    // consumes the identical RNG stream and per-trial fidelities differ
    // from the unfused engine only by fusion's float reassociation.
    const Circuit c = fusable_qutrit_circuit();
    NoiseModel m = noiseless();
    m.p2 = 5e-3;

    // The engine's own fence construction must actually fuse something
    // here (same placement policy: enumerate_error_sites + error_fences).
    const exec::CompiledCircuit fused_compiled(
        c, exec::FusionOptions{}, error_fences(enumerate_error_sites(c, m)));
    ASSERT_LT(fused_compiled.num_ops(), c.num_ops());

    TrajectoryOptions fused;
    fused.trials = 60;
    fused.seed = 11;
    fused.keep_per_trial = true;
    TrajectoryOptions unfused = fused;
    unfused.fusion.enabled = false;
    const auto a = run_noisy_trials(c, m, fused);
    const auto b = run_noisy_trials(c, m, unfused);
    ASSERT_EQ(a.per_trial.size(), b.per_trial.size());
    for (std::size_t t = 0; t < a.per_trial.size(); ++t) {
        EXPECT_NEAR(a.per_trial[t], b.per_trial[t], 1e-9) << "trial " << t;
    }
}

TEST(Trajectory, FusionBitwiseOnPermutationOnlyCircuits) {
    // Permutation fusion is pure index composition, so even the fused
    // ideal pass is bitwise identical to the unfused one: per-trial
    // fidelities must match EXACTLY with errors on every op.
    Circuit c(WireDims::uniform(2, 3));
    c.append(gates::Xplus1(), {0});
    c.append(gates::X01(), {0});
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    c.append(gates::X12(), {1});
    c.append(gates::Xminus1().controlled(3, 2), {1, 0});
    c.append(gates::X02(), {1});
    NoiseModel m = noiseless();
    m.p1 = 5e-3;
    m.p2 = 5e-3;
    TrajectoryOptions fused;
    fused.trials = 40;
    fused.seed = 5;
    fused.keep_per_trial = true;
    TrajectoryOptions unfused = fused;
    unfused.fusion.enabled = false;
    const auto a = run_noisy_trials(c, m, fused);
    const auto b = run_noisy_trials(c, m, unfused);
    ASSERT_EQ(a.per_trial.size(), b.per_trial.size());
    for (std::size_t t = 0; t < a.per_trial.size(); ++t) {
        ASSERT_EQ(a.per_trial[t], b.per_trial[t]) << "trial " << t;
    }
}

TEST(Trajectory, BatchInvarianceSurvivesFusion) {
    // The fused noisy loop (gate errors only, no idle noise) must stay
    // bitwise independent of batch width and thread count.
    const Circuit c = fusable_qutrit_circuit();
    NoiseModel m = noiseless();
    m.p2 = 5e-3;
    expect_batch_invariant(c, m, 25);
}

/** Three qutrits, every kernel class the idle-noise loop compiles to
 *  except dense, several ops per moment. */
Circuit
three_qutrit_circuit()
{
    Circuit c(WireDims::uniform(3, 3));
    c.append(gates::H3(), {0});
    c.append(gates::H3(), {2});
    c.append(gates::Xplus1().controlled(3, 2), {0, 1});
    c.append(gates::H3().controlled(3, 1), {1, 2});
    c.append(gates::Z3(), {0});
    c.append(gates::Xplus1(), {1});
    c.append(gates::Xplus1().controlled(3, 1), {2, 0});
    c.append(gates::X12(), {1});
    return c;
}

TEST(Trajectory, BatchInvariantWhenGateErrorsSplitDampedMoments) {
    // Fused damping lives in the batch's frame; a lane that draws a gate
    // error is extracted as f (.) x_b, takes the error, and is stored
    // back divided by f, while the other lanes and the frame stay as
    // they are. At p = 5e-3 a two-qutrit error fires with probability
    // 0.4 per lane, a one-qutrit error with 0.04, so wide batches mix
    // framed extract/store events with untouched lanes: per-trial
    // fidelities must stay bitwise equal across batch widths and thread
    // counts.
    NoiseModel m = noiseless();
    m.p1 = 5e-3;
    m.p2 = 5e-3;
    m.t1 = 20 * m.dt_1q;
    for (const Circuit& c : {small_qutrit_circuit(), three_qutrit_circuit()}) {
        TrajectoryOptions opts;
        opts.trials = 40;
        opts.seed = 5;
        opts.keep_per_trial = true;
        opts.threads = 1;
        opts.batch = 1;
        const auto ref = run_noisy_trials(c, m, opts);
        for (const int batch : {5, 12, 17}) {
            for (const int threads : {1, 3}) {
                TrajectoryOptions bo = opts;
                bo.batch = batch;
                bo.threads = threads;
                const auto got = run_noisy_trials(c, m, bo);
                for (int t = 0; t < opts.trials; ++t) {
                    ASSERT_EQ(got.per_trial[static_cast<std::size_t>(t)],
                              ref.per_trial[static_cast<std::size_t>(t)])
                        << c.num_wires() << " wires, batch " << batch
                        << " threads " << threads << " trial " << t;
                }
            }
        }
    }
}

/** What the reference loop below saw happen. */
struct ReferenceStats {
    int gate_errors = 0;
    int rare_branches = 0;
};

/**
 * Test-local single-shot trajectory that normalises after every moment:
 * Algorithm 1 written out with StateVector operations, with the fused
 * no-jump draw of uniform registers (one acceptance draw against the
 * joint no-jump norm; a rejected draw picks the jump from the per-(wire,
 * level) populations). Consumes `rng` in the engine's order, so its
 * fidelity matches the engine's trial up to rounding.
 */
Real
reference_trajectory(const Circuit& c, const NoiseModel& m,
                     const StateVector& initial, const StateVector& ideal,
                     Rng& rng, ReferenceStats& stats)
{
    const WireDims& dims = c.dims();
    const int width = dims.num_wires();
    const int d = dims.dim(0);
    const auto sites = enumerate_error_sites(c, m);
    auto k0 = [&](Real dt) {
        std::vector<Complex> diag(static_cast<std::size_t>(d));
        diag[0] = Complex(1, 0);
        for (int lvl = 1; lvl < d; ++lvl) {
            diag[static_cast<std::size_t>(lvl)] =
                Complex(std::sqrt(1.0 - m.lambda(lvl, dt)), 0);
        }
        return diag;
    };
    StateVector psi = initial;
    for (const Moment& moment : schedule_asap(c)) {
        for (const std::size_t i : moment.op_indices) {
            const Operation& op = c.ops()[i];
            psi.apply(op.gate.matrix(), op.wires);
            for (const ErrorSite& site : sites[i]) {
                const MixedUnitaryChannel ch =
                    site.dims.size() == 1
                        ? depolarizing1(site.dims[0], site.per_channel)
                        : depolarizing2(site.dims[0], site.dims[1],
                                        site.per_channel);
                const Real total =
                    static_cast<Real>(ch.probs.size()) * site.per_channel;
                if (rng.uniform() >= total) {
                    continue;
                }
                ++stats.gate_errors;
                psi.apply(ch.unitaries[static_cast<std::size_t>(
                              rng.uniform_int(ch.unitaries.size()))],
                          site.wires);
            }
        }
        const Real dt = m.moment_duration(moment.has_multi_qudit);
        if (m.has_damping()) {
            StateVector kept = psi;
            for (int w = 0; w < width; ++w) {
                kept.apply_diag1(k0(dt), w);
            }
            const Real q = kept.norm() * kept.norm();
            if (rng.uniform() < q) {
                psi = kept;
                EXPECT_TRUE(psi.normalize());
            } else {
                ++stats.rare_branches;
                std::vector<Real> weights;
                std::vector<std::pair<int, int>> arms;  // (wire, level)
                for (int w = 0; w < width; ++w) {
                    const auto pops = psi.populations(w);
                    for (int lvl = 1; lvl < d; ++lvl) {
                        weights.push_back(m.lambda(lvl, dt) *
                                          pops[static_cast<std::size_t>(lvl)]);
                        arms.emplace_back(w, lvl);
                    }
                }
                const auto pick = rng.weighted_draw(weights);
                if (!pick.has_value()) {
                    psi = kept;
                } else {
                    const auto [jw, jl] = arms[*pick];
                    Matrix jump(static_cast<std::size_t>(d),
                                static_cast<std::size_t>(d));
                    jump(0, static_cast<std::size_t>(jl)) = Complex(1, 0);
                    const std::vector<int> wires = {jw};
                    psi.apply(jump, wires);
                    EXPECT_TRUE(psi.normalize());
                    for (int w = 0; w < width; ++w) {
                        if (w != jw) {
                            psi.apply_diag1(k0(dt), w);
                        }
                    }
                }
                EXPECT_TRUE(psi.normalize());
            }
        }
        if (m.has_dephasing()) {
            const Real s = m.dephasing_sigma * std::sqrt(dt);
            for (int w = 0; w < width; ++w) {
                const Real theta = rng.gaussian() * s;
                std::vector<Complex> phases(static_cast<std::size_t>(d));
                for (int lvl = 0; lvl < d; ++lvl) {
                    phases[static_cast<std::size_t>(lvl)] =
                        std::polar(1.0, static_cast<Real>(lvl) * theta);
                }
                psi.apply_diag1(phases, w);
            }
        }
    }
    return psi.fidelity(ideal);
}

TEST(Trajectory, DeferredNormalisationMatchesPerMomentNormalisation) {
    // The engine never normalises a lane that takes the no-jump branch; it
    // carries the lane's squared norm and divides the final overlap by it.
    // Per trial that must agree with normalising every moment to rounding.
    NoiseModel errors_and_damping = noiseless();
    errors_and_damping.p1 = 5e-3;
    errors_and_damping.p2 = 5e-3;
    errors_and_damping.t1 = 20 * errors_and_damping.dt_1q;
    Circuit qubits(WireDims::uniform(3, 2));
    qubits.append(gates::H(), {0});
    qubits.append(gates::CNOT(), {0, 1});
    qubits.append(gates::H(), {2});
    qubits.append(gates::CCX(), {2, 0, 1});
    qubits.append(gates::H(), {1});
    struct Case {
        Circuit circuit;
        NoiseModel model;
    };
    const std::vector<Case> cases = {
        {small_qutrit_circuit(), sc()},
        {small_qutrit_circuit(), hot_noise()},
        {three_qutrit_circuit(), hot_noise()},
        {three_qutrit_circuit(), errors_and_damping},
        {qubits, hot_noise()},
        {small_qutrit_circuit(), hot_dephasing()},
        {three_qutrit_circuit(), hot_dephasing()},
        {qubits, hot_dephasing()},
    };
    ReferenceStats stats;
    const bool was_enabled = obs::enabled();
    obs::set_enabled(true);
    for (const Case& k : cases) {
        TrajectoryOptions opts;
        opts.trials = 30;
        opts.seed = 11;
        opts.threads = 2;
        opts.keep_per_trial = true;
        obs::reset_counters();
        const auto res = run_noisy_trials(k.circuit, k.model, opts);
        const obs::CounterSnapshot seen = obs::counters_snapshot();
        const int rare_before = stats.rare_branches;
        const Rng root(opts.seed);
        for (int t = 0; t < opts.trials; ++t) {
            Rng rng = root.child(static_cast<std::uint64_t>(t));
            const StateVector initial =
                haar_random_qubit_subspace_state(k.circuit.dims(), rng);
            const StateVector ideal = simulate(k.circuit, initial);
            const Real want = reference_trajectory(k.circuit, k.model,
                                                   initial, ideal, rng, stats);
            EXPECT_NEAR(res.per_trial[static_cast<std::size_t>(t)], want,
                        1e-12)
                << k.model.name << ", " << k.circuit.num_wires()
                << " wires, trial " << t;
        }
        // The reference computes the no-jump norm every moment; the
        // engine skips it whenever the draw is below s_min^2. Both must
        // take the same accept/reject decisions.
        if (obs::enabled()) {
            EXPECT_EQ(seen[obs::Counter::kTrajRareBranches],
                      static_cast<std::uint64_t>(stats.rare_branches -
                                                 rare_before))
                << k.model.name << ", " << k.circuit.num_wires() << " wires";
        }
    }
    obs::set_enabled(was_enabled);
    // The hot models must have exercised the divergent branches.
    EXPECT_GT(stats.gate_errors, 0);
    EXPECT_GT(stats.rare_branches, 0);
}

TEST(Trajectory, DampingFrameFoldsBeforeUnderflow) {
    // Permutations and diagonals never reset the damping frame, so under
    // strong damping its floor (the table's smallest entry, both qutrits
    // in |2>, to the power of the moment count) shrinks by e^-1 per
    // moment here; the engine must fold the frame into the lanes before
    // it underflows (the floor reaches 2^-500 after ~350 moments) and
    // still agree with the per-moment-normalising reference, gate errors
    // on the tiny-frame lanes included.
    NoiseModel m = noiseless();
    m.t1 = 2 * m.dt_1q;
    m.p1 = 5e-3;
    Circuit c(WireDims::uniform(2, 3));
    for (int i = 0; i < 500; ++i) {
        c.append(gates::Xplus1(), {0});
        c.append(gates::Z3(), {1});
    }
    ASSERT_EQ(schedule_asap(c).size(), 500u);
    const bool was_enabled = obs::enabled();
    obs::set_enabled(true);
    obs::reset_counters();
    TrajectoryOptions opts;
    opts.trials = 6;
    opts.seed = 3;
    opts.threads = 1;
    opts.keep_per_trial = true;
    const auto res = run_noisy_trials(c, m, opts);
    const obs::CounterSnapshot seen = obs::counters_snapshot();
    obs::set_enabled(was_enabled);
    if (seen[obs::Counter::kTrajShots] > 0) {  // counters compiled in
        // One fold per batch at moment ~350 of 500.
        EXPECT_EQ(seen[obs::Counter::kTrajFrameFolds], 1u);
    }
    ReferenceStats stats;
    const Rng root(opts.seed);
    for (int t = 0; t < opts.trials; ++t) {
        Rng rng = root.child(static_cast<std::uint64_t>(t));
        const StateVector initial =
            haar_random_qubit_subspace_state(c.dims(), rng);
        const StateVector ideal = simulate(c, initial);
        const Real want =
            reference_trajectory(c, m, initial, ideal, rng, stats);
        EXPECT_TRUE(std::isfinite(res.per_trial[static_cast<std::size_t>(t)]));
        EXPECT_NEAR(res.per_trial[static_cast<std::size_t>(t)], want, 1e-12)
            << "trial " << t;
    }
    EXPECT_GT(stats.gate_errors, 0);
}

/** Per-trial fidelities of run_noisy_trials, and the counted walk: the
 *  batched passes' walked slots and their dense equivalent (register
 *  size times the lanes dispatched), zero when counters are compiled
 *  out. A diagonal on a framed batch walks the frame alone (one lane's
 *  slots), so a framed dense run walks fewer slots than its equivalent
 *  (framed_walk below). */
struct CountedRun {
    std::vector<Real> fid;
    std::uint64_t walked = 0;
    std::uint64_t dense = 0;
};

CountedRun
counted_run(const Circuit& c, const NoiseModel& m,
            const TrajectoryOptions& opts)
{
    const bool was_enabled = obs::enabled();
    obs::set_enabled(true);
    obs::reset_counters();
    CountedRun out;
    out.fid = run_noisy_trials(c, m, opts).per_trial;
    const obs::SimReport rep = obs::report_snapshot();
    obs::set_enabled(was_enabled);
    out.walked = rep.counters[obs::Counter::kBatWalkedSlots];
    for (const obs::Counter k :
         {obs::Counter::kBatPermutation, obs::Counter::kBatDiagonal,
          obs::Counter::kBatMonomial, obs::Counter::kBatSingleWire,
          obs::Counter::kBatControlled, obs::Counter::kBatDense}) {
        out.dense += rep.counters[k] * c.dims().size();
    }
    return out;
}

/** The slots a dense run of `opts.trials` trials walks when every batch
 *  is framed: its dense equivalent less, per batch of B lanes, B - 1
 *  lanes' slots for each diagonal op of the ideal and noisy passes (a
 *  framed diagonal multiplies the one lane-shared frame; gate errors run
 *  on frameless one-lane batches, which walk their lane). */
std::uint64_t
framed_walk(const Circuit& c, const NoiseModel& m,
            const TrajectoryOptions& opts, std::uint64_t dense)
{
    std::uint64_t diagonals = 0;
    const exec::CompiledCircuit ideal(c, opts.fusion);
    const NoisyProgram noisy = compile_noisy(c, m, opts.fusion);
    for (const exec::CompiledCircuit* cc : {&ideal, &noisy.compiled}) {
        for (const exec::CompiledOp& op : cc->ops()) {
            diagonals += op.kind == exec::KernelKind::kDiagonal ? 1 : 0;
        }
    }
    const int batch = std::min(12, opts.trials);  // the default width
    std::uint64_t idle_lanes = 0;
    for (int start = 0; start < opts.trials; start += batch) {
        idle_lanes +=
            static_cast<std::uint64_t>(std::min(batch, opts.trials - start)) -
            1;
    }
    return dense - idle_lanes * diagonals * c.dims().size();
}

TEST(Trajectory, SupportWalkMatchesDenseWalkOnFigure11Cells) {
    // All 16 Figure 11 cells at width 6, tracked (the default) against
    // the same runs forced dense (DenseSupportScope). Qubit registers
    // stay dense, so the QUBIT and QUBIT+ANCILLA cells agree bitwise; so
    // do the QUTRIT cells without damping, DRESSED_QUTRIT and the
    // phase-framed BARE_QUTRIT, because a tracked walk skips exact zeros
    // only and the phase frame's odometer steps through every index. The
    // damped QUTRIT cells agree within 1e-12: a tracked batch carries no
    // damping frame (its frame entries at unoccupied indices would not be
    // reset or scaled, so a later set_lane there would divide by a factor
    // that depends on the other lanes), and scaling the lanes each moment
    // instead of the frame rounds differently. Dense batches carry the
    // frame, so their diagonals walk one lane's slots (framed_walk).
    const int n_controls = 5;
    const auto qutrit =
        ctor::build_gen_toffoli(ctor::Method::kQutrit, n_controls);
    const auto qubit =
        ctor::build_gen_toffoli(ctor::Method::kQubitNoAncilla, n_controls);
    const auto borrow = ctor::build_gen_toffoli(
        ctor::Method::kQubitDirtyAncilla, n_controls);
    struct Cell {
        const ctor::GenToffoli* circuit;
        NoiseModel model;
    };
    std::vector<Cell> cells;
    for (const auto* c : {&qubit, &borrow, &qutrit}) {
        for (const NoiseModel& m : superconducting_models()) {
            cells.push_back({c, m});
        }
    }
    cells.push_back({&qubit, ti_qubit()});
    cells.push_back({&borrow, ti_qubit()});
    cells.push_back({&qutrit, bare_qutrit()});
    cells.push_back({&qutrit, dressed_qutrit()});
    ASSERT_EQ(cells.size(), 16u);
    TrajectoryOptions opts;
    opts.trials = 16;
    opts.seed = 20190622;
    opts.threads = 2;
    opts.keep_per_trial = true;
    for (const Cell& cell : cells) {
        SCOPED_TRACE(cell.circuit->label + " x " + cell.model.name);
        const Circuit& c = cell.circuit->circuit;
        const CountedRun tracked = counted_run(c, cell.model, opts);
        CountedRun dense;
        {
            const noise::testing::DenseSupportScope scope;
            dense = counted_run(c, cell.model, opts);
        }
        const bool qutrits = c.dims().dim(0) == 3;
        const bool damped = qutrits && cell.model.has_damping();
        for (int t = 0; t < opts.trials; ++t) {
            const std::size_t ut = static_cast<std::size_t>(t);
            if (damped) {
                EXPECT_NEAR(tracked.fid[ut], dense.fid[ut], 1e-12)
                    << "trial " << t;
            } else {
                EXPECT_EQ(tracked.fid[ut], dense.fid[ut]) << "trial " << t;
            }
        }
        if (dense.dense > 0) {
            EXPECT_EQ(dense.walked,
                      framed_walk(c, cell.model, opts, dense.dense));
        }
        if (qutrits && tracked.dense > 0) {
            // 2^6 of 3^6 inputs: the tracked walk visits a fraction.
            EXPECT_LT(tracked.walked, tracked.dense / 4);
        } else if (tracked.dense > 0) {
            EXPECT_EQ(tracked.walked,
                      framed_walk(c, cell.model, opts, tracked.dense));
        }
    }
}

TEST(Trajectory, SupportWalkSequentialDampingMatchesDense) {
    // A mixed-radix register whose qubit subspace is under half of it
    // runs the sequential damping engine on a tracked batch (populations,
    // masked K0 and jumps on its support); it has no frame, so it agrees
    // with the forced-dense run bitwise, and stays batch invariant.
    Circuit c(WireDims({3, 3, 2, 3}));
    c.append(gates::H3(), {0});
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    c.append(gates::X().controlled(3, 2), {1, 2});
    c.append(gates::H(), {2});
    c.append(gates::Xplus1().controlled(2, 1), {2, 3});
    TrajectoryOptions opts;
    opts.trials = 13;
    opts.seed = 8;
    opts.threads = 2;
    opts.keep_per_trial = true;
    const CountedRun tracked = counted_run(c, hot_noise(), opts);
    CountedRun dense;
    {
        const noise::testing::DenseSupportScope scope;
        dense = counted_run(c, hot_noise(), opts);
    }
    EXPECT_EQ(tracked.fid, dense.fid);
    if (tracked.dense > 0) {
        EXPECT_LT(tracked.walked, tracked.dense);
    }
    expect_batch_invariant(c, hot_noise(), 13);
}

TEST(Trajectory, FullSpaceInputsWalkDense) {
    // qubit_subspace_inputs = false fills the whole register: the batch
    // walks dense, bitwise the forced-dense run, damped or not.
    const auto qutrit = ctor::build_gen_toffoli(ctor::Method::kQutrit, 3);
    TrajectoryOptions opts;
    opts.trials = 13;
    opts.seed = 5;
    opts.threads = 2;
    opts.keep_per_trial = true;
    opts.qubit_subspace_inputs = false;
    for (const NoiseModel& m : {sc(), bare_qutrit(), hot_noise()}) {
        SCOPED_TRACE(m.name);
        const CountedRun got = counted_run(qutrit.circuit, m, opts);
        CountedRun dense;
        {
            const noise::testing::DenseSupportScope scope;
            dense = counted_run(qutrit.circuit, m, opts);
        }
        EXPECT_EQ(got.fid, dense.fid);
        EXPECT_EQ(got.walked, got.dense);
    }
}

TEST(Trajectory, SupportWalkBatchInvariantUnderHotNoise) {
    // The tracked engine's divergent events (gate errors, jumps, rare
    // branches) run on one-lane tracked batches; lanes must stay bitwise
    // independent of the batch width although the support is the union
    // over the batch's lanes.
    const auto qutrit = ctor::build_gen_toffoli(ctor::Method::kQutrit, 3);
    expect_batch_invariant(qutrit.circuit, hot_noise(), 13);
    expect_batch_invariant(qutrit.circuit, hot_dephasing(), 13);
    expect_batch_invariant(qutrit.circuit, sc(), 13);
}

TEST(Trajectory, PerChannelConventionPenalisesQutrits) {
    // gate_error_total must expose the paper's (1-80p2)/(1-15p2) penalty
    // only in the per-channel convention.
    NoiseModel m = noiseless();
    m.p2 = 1e-4;
    EXPECT_NEAR(m.gate_error_total_2q(3, 3) / m.gate_error_total_2q(2, 2),
                80.0 / 15.0, 1e-9);
    m.convention = GateErrorConvention::kTotal;
    EXPECT_NEAR(m.gate_error_total_2q(3, 3), m.gate_error_total_2q(2, 2),
                1e-12);
}

}  // namespace
}  // namespace qd::noise
