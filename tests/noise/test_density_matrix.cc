/**
 * Property tests for the compiled density-matrix engine: every kernel
 * class rho -> K rho K^dagger runs on (both passes of exec::conjugate_op)
 * must match the dense expand() oracle (density_reference.h) on random
 * mixed-radix density matrices and random operators, including
 * non-unitary Kraus sets and fused groups; the trajectory engine must
 * converge to the compiled exact evolution.
 */
#include "noise/density_matrix.h"

#include <cmath>

#include <gtest/gtest.h>

#include "density_reference.h"
#include "noise/channels.h"
#include "noise/error_placement.h"
#include "noise/models.h"
#include "noise/trajectory.h"
#include "qdsim/gate_library.h"
#include "qdsim/random_state.h"
#include "qdsim/simulator.h"

namespace qd::noise {
namespace {

using exec::KernelKind;

/** Random dense (generally non-unitary) operator. */
Matrix
random_matrix(std::size_t n, Rng& rng)
{
    Matrix m(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
            m(r, c) = rng.complex_gaussian() * 0.5;
        }
    }
    return m;
}

/** Random mixed state: a weighted mixture of a few Haar-random pures. */
Matrix
random_mixed_rho(const WireDims& dims, Rng& rng)
{
    const Index n = dims.size();
    Matrix rho(n, n);
    Real total = 0;
    std::vector<Real> weights;
    for (int i = 0; i < 3; ++i) {
        weights.push_back(0.1 + rng.uniform());
        total += weights.back();
    }
    for (int i = 0; i < 3; ++i) {
        const StateVector psi = haar_random_state(dims, rng);
        const Real w = weights[static_cast<std::size_t>(i)] / total;
        for (Index r = 0; r < n; ++r) {
            for (Index c = 0; c < n; ++c) {
                rho(r, c) += w * psi[r] * std::conj(psi[c]);
            }
        }
    }
    return rho;
}

void
expect_rho_equal(const Matrix& a, const Matrix& b, Real tol,
                 const char* what)
{
    ASSERT_EQ(a.rows(), b.rows());
    for (std::size_t r = 0; r < a.rows(); ++r) {
        for (std::size_t c = 0; c < a.cols(); ++c) {
            EXPECT_NEAR(std::abs(a(r, c) - b(r, c)), 0.0, tol)
                << what << " at (" << r << ", " << c << ")";
        }
    }
}

/** Applies `gate` to copies of a random mixed rho via the compiled and
 *  the dense-oracle path, expecting agreement within `tol` and K and
 *  conj(K) on the same kernel class; returns that class. */
KernelKind
check_against_oracle(const WireDims& dims, const Gate& gate,
                     const std::vector<int>& wires, Rng& rng,
                     Real tol = 1e-10)
{
    const Matrix rho = random_mixed_rho(dims, rng);
    DensityMatrix compiled(dims, rho);
    const CompiledSuperOp sop =
        compile_superop(dims, gate, wires, &compiled.plan_cache());
    EXPECT_EQ(sop.k_conj.kind, sop.k.kind) << gate.name();
    compiled.apply(sop);
    Matrix dense = rho;
    reference::apply_unitary_dense(dims, dense, gate.matrix(), wires);
    expect_rho_equal(compiled.rho(), dense, tol,
                     exec::kernel_name(sop.k.kind));
    return sop.k.kind;
}

TEST(DensityMatrix, CompiledUnitaryMatchesOracleOnRandomOperators) {
    Rng rng(301);
    const std::vector<std::vector<int>> registers = {
        {2, 2, 2}, {3, 3}, {2, 3, 2}, {3, 2, 3}};
    for (const auto& reg : registers) {
        const WireDims dims(reg);
        for (int k = 1; k <= 2; ++k) {
            for (int rep = 0; rep < 2; ++rep) {
                std::vector<int> wires;
                for (int w = 0; w < dims.num_wires() &&
                     static_cast<int>(wires.size()) < k; ++w) {
                    wires.push_back((w + rep) % dims.num_wires());
                }
                std::vector<int> gdims;
                std::size_t block = 1;
                for (const int w : wires) {
                    gdims.push_back(dims.dim(w));
                    block *= static_cast<std::size_t>(dims.dim(w));
                }
                const Gate g("rand", gdims,
                             haar_random_unitary(block, rng));
                KernelKind expected = KernelKind::kDense;
                if (k == 1) {
                    expected = gdims[0] == 2 ? KernelKind::kSingleWireD2
                                             : KernelKind::kSingleWireD3;
                }
                EXPECT_EQ(check_against_oracle(dims, g, wires, rng),
                          expected);
            }
        }
    }
}

TEST(DensityMatrix, EveryKernelKindMatchesOracleOnMixedRadix) {
    Rng rng(302);
    const WireDims dims({2, 3, 3});
    const KrausChannel damp = amplitude_damping(3, {0.05, 0.12});
    struct Case {
        Gate gate;
        std::vector<int> wires;
        KernelKind kind;
    };
    const std::vector<Case> cases = {
        {gates::Xplus1().controlled(2, 1), {0, 2}, KernelKind::kPermutation},
        {gates::Z3().controlled(2, 1), {0, 1}, KernelKind::kDiagonal},
        {Gate("ZxX", {3, 3},
              gates::Z3().matrix().kron(gates::Xplus1().matrix())),
         {2, 1},
         KernelKind::kMonomial},
        {gates::H(), {0}, KernelKind::kSingleWireD2},
        {gates::H3(), {1}, KernelKind::kSingleWireD3},
        {gates::H3().controlled(2, 1), {0, 2}, KernelKind::kControlled},
        {Gate("rand", {3, 2}, haar_random_unitary(6, rng)),
         {2, 0},
         KernelKind::kDense},
        // Non-unitary Kraus operators: the amplitude-damping no-jump
        // operator and the jump |0><2|.
        {Gate("no_jump", {3}, damp.operators[0]), {2}, KernelKind::kDiagonal},
        {Gate("jump", {3}, damp.operators[2]), {1}, KernelKind::kSingleWireD3},
    };
    for (const Case& tc : cases) {
        EXPECT_EQ(check_against_oracle(dims, tc.gate, tc.wires, rng, 1e-12),
                  tc.kind)
            << tc.gate.name();
    }
}

TEST(DensityMatrix, FusedGroupMatchesOracleOnMixedRadix) {
    // A fused group compiles like the exact engine compiles it (the
    // product wrapped in a Gate, sharing the register's plan cache) and must
    // match the oracle applying its members one by one.
    Rng rng(312);
    const WireDims dims({2, 3, 3});
    Circuit c(dims);
    c.append(gates::H3(), {1});
    c.append(gates::Xplus1().controlled(3, 1), {1, 2});
    c.append(gates::Z3(), {2});
    c.append(gates::H3().controlled(2, 1), {0, 1});
    const exec::FusionOptions fusion;
    const std::vector<std::uint8_t> no_fences(c.num_ops(), 0);
    const auto groups = exec::fuse_sites(dims, c.ops(), no_fences, fusion);
    int fused = 0;
    for (const exec::FusedGroup& group : groups) {
        if (group.members.size() < 2) {
            continue;
        }
        ++fused;
        std::vector<int> gdims;
        for (const int w : group.wires) {
            gdims.push_back(dims.dim(w));
        }
        const Gate g("fused", gdims,
                     exec::fused_matrix(dims, c.ops(), group));
        const Matrix rho = random_mixed_rho(dims, rng);
        DensityMatrix compiled(dims, rho);
        const CompiledSuperOp sop =
            compile_superop(dims, g, group.wires, &compiled.plan_cache());
        EXPECT_EQ(sop.k_conj.kind, sop.k.kind);
        compiled.apply(sop);
        Matrix dense = rho;
        for (const std::uint32_t m : group.members) {
            const Operation& op = c.ops()[m];
            reference::apply_unitary_dense(dims, dense, op.gate.matrix(),
                                           op.wires);
        }
        expect_rho_equal(compiled.rho(), dense, 1e-12, "fused");
    }
    EXPECT_GE(fused, 1);
}

TEST(DensityMatrix, MonomialKernelCoversGeneralizedPaulis) {
    // Every X^j Z^k depolarizing term is a generalized permutation; the
    // structured kernels must reproduce the oracle for all of them.
    Rng rng(303);
    const WireDims dims({3, 2, 3});
    const MixedUnitaryChannel ch = depolarizing1(3, 0.01);
    const std::vector<int> wires = {2};
    for (const Matrix& u : ch.unitaries) {
        const Matrix rho = random_mixed_rho(dims, rng);
        DensityMatrix compiled(dims, rho);
        const CompiledSuperOp sop = compile_superop(dims, u, wires);
        EXPECT_NE(sop.k.kind, KernelKind::kDense)
            << "generalized Pauli should not need the dense fallback";
        EXPECT_EQ(sop.k_conj.kind, sop.k.kind);
        compiled.apply(sop);
        Matrix dense = rho;
        reference::apply_unitary_dense(dims, dense, u, wires);
        expect_rho_equal(compiled.rho(), dense, 1e-10, "pauli");
    }
}

TEST(DensityMatrix, CompiledChannelMatchesOracleOnNonUnitaryKraus) {
    Rng rng(304);
    const std::vector<std::vector<int>> registers = {{2, 3, 2}, {3, 3, 2}};
    for (const auto& reg : registers) {
        const WireDims dims(reg);
        for (int k = 1; k <= 2; ++k) {
            const std::vector<int> wires =
                k == 1 ? std::vector<int>{1} : std::vector<int>{2, 0};
            std::size_t block = 1;
            for (const int w : wires) {
                block *= static_cast<std::size_t>(dims.dim(w));
            }
            // A random (not even trace-preserving) Kraus set: the engine
            // must reproduce sum_i K_i rho K_i^dagger verbatim.
            KrausChannel ch;
            for (int i = 0; i < 3; ++i) {
                ch.operators.push_back(random_matrix(block, rng));
            }
            const Matrix rho = random_mixed_rho(dims, rng);
            DensityMatrix compiled(dims, rho);
            Matrix dense = rho;
            compiled.apply_channel(ch, wires);
            reference::apply_channel_dense(dims, dense, ch, wires);
            expect_rho_equal(compiled.rho(), dense, 1e-10, "kraus");
        }
    }
}

TEST(DensityMatrix, AmplitudeDampingChannelMatchesOracle) {
    Rng rng(305);
    const WireDims dims({3, 3});
    const KrausChannel damp = amplitude_damping(3, {0.05, 0.12});
    ASSERT_TRUE(damp.is_complete());
    for (int w = 0; w < 2; ++w) {
        const std::vector<int> wires = {w};
        const Matrix rho = random_mixed_rho(dims, rng);
        DensityMatrix compiled(dims, rho);
        Matrix dense = rho;
        compiled.apply_channel(damp, wires);
        reference::apply_channel_dense(dims, dense, damp, wires);
        expect_rho_equal(compiled.rho(), dense, 1e-10, "damping");
        EXPECT_NEAR(compiled.trace_real(), 1.0, 1e-10);
    }
}

TEST(DensityMatrix, TwoQutritDepolarizingChannelMatchesOracle) {
    Rng rng(306);
    const WireDims dims = WireDims::uniform(3, 3);
    const std::vector<int> wires = {0, 2};
    const KrausChannel ch = depolarizing2(3, 3, 1e-3).to_kraus(9);
    ASSERT_TRUE(ch.is_complete());
    const Matrix rho = random_mixed_rho(dims, rng);
    DensityMatrix compiled(dims, rho);
    Matrix dense = rho;
    compiled.apply_channel(ch, wires);
    reference::apply_channel_dense(dims, dense, ch, wires);
    expect_rho_equal(compiled.rho(), dense, 1e-10, "depolarizing2");
    EXPECT_NEAR(compiled.trace_real(), 1.0, 1e-10);
}

TEST(DensityMatrix, CompiledChannelReusableAcrossApplications) {
    // compile_channel once, apply across "moments": results must track
    // the oracle applied the same number of times.
    Rng rng(307);
    const WireDims dims({3, 2});
    const std::vector<int> wires = {0};
    const KrausChannel damp = amplitude_damping(3, {0.03, 0.08});
    const CompiledChannel compiled_ch = compile_channel(dims, damp, wires);
    const Matrix rho = random_mixed_rho(dims, rng);
    DensityMatrix compiled(dims, rho);
    Matrix dense = rho;
    for (int moment = 0; moment < 3; ++moment) {
        compiled.apply(compiled_ch);
        reference::apply_channel_dense(dims, dense, damp, wires);
    }
    expect_rho_equal(compiled.rho(), dense, 1e-10, "reuse");
}

TEST(DensityMatrix, AdoptedRhoCtorValidatesSize) {
    EXPECT_THROW(DensityMatrix(WireDims({3, 3}), Matrix(4, 4)),
                 std::invalid_argument);
}

TEST(DensityMatrix, ConjugationRejectsOperatorOfAnotherRegister) {
    const int wires[] = {0, 1};
    const CompiledSuperOp op = compile_superop(
        WireDims({3, 3}), gates::H3().controlled(3, 1), wires);
    DensityMatrix dm(WireDims({3, 3, 3}), std::vector<int>{0, 1, 2});
    EXPECT_THROW(dm.apply(op), std::invalid_argument);
}

TEST(DensityMatrix, NoiselessCircuitFidelityIsOne) {
    Circuit c(WireDims::uniform(2, 3));
    c.append(gates::H3(), {0});
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    NoiseModel m;
    m.dt_1q = 100e-9;
    m.dt_2q = 300e-9;
    Rng rng(308);
    const StateVector init = haar_random_state(c.dims(), rng);
    EXPECT_NEAR(density_matrix_fidelity(c, m, init), 1.0, 1e-9);
}

TEST(DensityMatrix, ErrorPlacementSplitsWideGatesIntoPairs) {
    // Shared policy: a 3-qudit gate draws one two-qudit channel per
    // adjacent operand pair, in both engines (regression for the old
    // density path which dropped wide-gate errors entirely).
    Circuit c(WireDims::uniform(3, 2));
    c.append(gates::CCX(), {0, 1, 2});
    NoiseModel m;
    m.p2 = 1e-3;
    const auto sites = enumerate_error_sites(c, m);
    ASSERT_EQ(sites.size(), 1u);
    ASSERT_EQ(sites[0].size(), 1u);
    EXPECT_EQ(sites[0][0].wires, (std::vector<int>{0, 1}));
    EXPECT_NEAR(sites[0][0].per_channel, m.per_channel_2q(2, 2), 1e-15);
}

TEST(DensityMatrix, TrajectoryConvergesToCompiledExactDepolarizing) {
    // Satellite: trajectory-vs-exact convergence on a 2-qutrit
    // depolarizing circuit, with the exact side on the compiled path.
    Circuit c(WireDims::uniform(2, 3));
    c.append(gates::H3(), {0});
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    c.append(gates::H3(), {1});
    NoiseModel m;
    m.dt_1q = 100e-9;
    m.dt_2q = 300e-9;
    m.p1 = 3e-3;
    m.p2 = 2e-3;
    Rng rng(309);
    const StateVector init = haar_random_state(c.dims(), rng);
    const Real exact = density_matrix_fidelity(c, m, init);
    const StateVector ideal = simulate(c, init);
    Real mean = 0;
    const int trials = 3000;
    const TrajectoryCompilation compiled(c, m);
    for (int t = 0; t < trials; ++t) {
        Rng child = rng.child(static_cast<std::uint64_t>(t));
        mean += run_single_trajectory(compiled, init, ideal, child);
    }
    mean /= trials;
    EXPECT_NEAR(mean, exact, 0.01);
}

TEST(DensityMatrix, FusedFidelityMatchesUnfused) {
    // Gate errors on two-qutrit ops only: the density path fuses
    // the single-qutrit runs between channels into one conjugation pass;
    // the exact fidelity must be unchanged (error channels fence the
    // partition, so placement is identical).
    Circuit c(WireDims::uniform(2, 3));
    c.append(gates::Z3(), {0});
    c.append(gates::H3(), {0});
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    c.append(gates::Z3(), {1});
    c.append(gates::X12(), {1});
    c.append(gates::Xminus1().controlled(3, 2), {1, 0});
    c.append(gates::H3(), {1});
    NoiseModel m;
    m.name = "2q-errors";
    m.dt_1q = 100e-9;
    m.dt_2q = 300e-9;
    m.p2 = 4e-3;
    Rng rng(310);
    const StateVector init = haar_random_state(c.dims(), rng);
    exec::FusionOptions off;
    off.enabled = false;
    const Real fused = density_matrix_fidelity(c, m, init);
    const Real unfused = density_matrix_fidelity(c, m, init, off);
    EXPECT_NEAR(fused, unfused, 1e-10);
}

TEST(DensityMatrix, ConjugationMatchesStateOuterProductOnWideRegister) {
    // 3^6 register: the left pass runs 729 lanes per amplitude block and
    // the right pass 729 single-lane rows. On a pure state, K rho K^dagger
    // must equal the outer product of K|psi> for every kernel class.
    const WireDims dims = WireDims::uniform(6, 3);
    Rng rng(311);
    const StateVector psi0 = haar_random_state(dims, rng);
    struct Case {
        Gate gate;
        std::vector<int> wires;
        KernelKind kind;
    };
    const std::vector<Case> cases = {
        {Gate("rand", {3, 3}, random_matrix(9, rng)),
         {1, 4},
         KernelKind::kDense},
        {gates::Z3(), {2}, KernelKind::kDiagonal},
        {gates::Xplus1(), {4}, KernelKind::kPermutation},
        {Gate("ZxX", {3, 3},
              gates::Z3().matrix().kron(gates::Xplus1().matrix())),
         {0, 5},
         KernelKind::kMonomial},
        {gates::H3(), {5}, KernelKind::kSingleWireD3},
        {gates::fourier(3).controlled(3, 2), {3, 1},
         KernelKind::kControlled},
    };
    for (const Case& tc : cases) {
        DensityMatrix dm(psi0);
        const CompiledSuperOp sop = compile_superop(
            dims, tc.gate, tc.wires, &dm.plan_cache());
        ASSERT_EQ(sop.k.kind, tc.kind) << tc.gate.name();
        ASSERT_EQ(sop.k_conj.kind, tc.kind) << tc.gate.name();
        dm.apply(sop);
        StateVector psi = psi0;
        psi.apply(tc.gate.matrix(), tc.wires);
        // Spot-check rows of the outer product (full D^2 compare is slow).
        const Index D = dims.size();
        for (Index r = 0; r < D; r += 97) {
            for (Index col = 0; col < D; col += 89) {
                EXPECT_NEAR(
                    std::abs(dm.rho()(static_cast<std::size_t>(r),
                                      static_cast<std::size_t>(col)) -
                             psi[r] * std::conj(psi[col])),
                    0.0, 1e-10)
                    << tc.gate.name() << " at (" << r << ", " << col << ")";
            }
        }
    }
}

}  // namespace
}  // namespace qd::noise
