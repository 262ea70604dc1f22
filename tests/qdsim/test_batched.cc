/**
 * Property tests for the batched execution engine: every batched kernel
 * and per-lane primitive must leave each lane BITWISE identical to the
 * single-shot path run on that lane's state — that exact equivalence is
 * what lets the trajectory engine mix batched passes with per-lane
 * single-shot fallbacks and stay reproducible regardless of batch width.
 */
#include "qdsim/exec/batched_kernels.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include <gtest/gtest.h>

#include "qdsim/exec/batched_state.h"
#include "qdsim/gate_library.h"
#include "qdsim/random_state.h"
#include "qdsim/simulator.h"

namespace qd {
namespace {

using exec::BatchedScratch;
using exec::BatchedStateVector;
using exec::CompiledOp;
using exec::KernelKind;

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

/** Fills a batch with independent Haar-random lanes and returns the lane
 *  states for the single-shot reference runs. */
std::vector<StateVector>
random_lanes(BatchedStateVector& batch, Rng& rng)
{
    std::vector<StateVector> lanes;
    for (int b = 0; b < batch.lanes(); ++b) {
        lanes.push_back(haar_random_state(batch.dims(), rng));
        batch.set_lane(b, lanes.back());
    }
    return lanes;
}

/** EXPECT every lane of `batch` to be bitwise equal to `lanes[b]`. */
void
expect_lanes_bitwise_equal(const BatchedStateVector& batch,
                           const std::vector<StateVector>& lanes,
                           const char* what)
{
    for (int b = 0; b < batch.lanes(); ++b) {
        const StateVector got = batch.lane_state(b);
        const StateVector& want = lanes[static_cast<std::size_t>(b)];
        for (Index i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].real(), want[i].real())
                << what << ": lane " << b << " index " << i;
            ASSERT_EQ(got[i].imag(), want[i].imag())
                << what << ": lane " << b << " index " << i;
        }
    }
}

/** Applies `gate` batched and single-shot per lane; expects bitwise lane
 *  equality and (optionally) a specific kernel routing. */
void
check_batched_matches_single(const WireDims& dims, const Gate& gate,
                             const std::vector<int>& wires, int lanes,
                             Rng& rng,
                             std::optional<KernelKind> expect_kind = {})
{
    const CompiledOp op = exec::compile_op(dims, gate, wires);
    if (expect_kind.has_value()) {
        ASSERT_EQ(op.kind, *expect_kind) << gate.name();
    }
    BatchedStateVector batch(dims, lanes);
    std::vector<StateVector> ref = random_lanes(batch, rng);

    BatchedScratch bscratch;
    exec::apply_op_batched(op, batch, bscratch);

    exec::ExecScratch scratch;
    for (StateVector& r : ref) {
        exec::apply_op(op, r, scratch);
    }
    expect_lanes_bitwise_equal(batch, ref, exec::kernel_name(op.kind));
}

TEST(Batched, EveryKernelKindMatchesSingleShotBitwise) {
    Rng rng(301);
    const WireDims q3 = WireDims::uniform(4, 3);
    // Permutation, diagonal, unrolled d3, controlled, dense.
    check_batched_matches_single(q3, gates::Xplus1().controlled(3, 2),
                                 {1, 3}, 5, rng, KernelKind::kPermutation);
    check_batched_matches_single(q3, gates::Z3(), {2}, 5, rng,
                                 KernelKind::kDiagonal);
    // Monomial: generalized permutation with phases (Z ⊗ X+1 product,
    // the shape of X^j Z^k error terms and phase∘permutation fusions).
    check_batched_matches_single(
        q3,
        Gate("Z3xX+1", {3, 3},
             gates::Z3().matrix().kron(gates::Xplus1().matrix())),
        {1, 3}, 5, rng, KernelKind::kMonomial);
    check_batched_matches_single(q3, gates::H3(), {1}, 5, rng,
                                 KernelKind::kSingleWireD3);
    check_batched_matches_single(q3, gates::fourier(3).controlled(3, 2),
                                 {0, 2}, 5, rng, KernelKind::kControlled);
    check_batched_matches_single(
        q3, Gate("rand", {3, 3}, random_matrix(9, rng)), {3, 1}, 5, rng,
        KernelKind::kDense);

    const WireDims q2 = WireDims::uniform(3, 2);
    check_batched_matches_single(q2, gates::H(), {1}, 4, rng,
                                 KernelKind::kSingleWireD2);
    check_batched_matches_single(q2, gates::CCX(), {2, 0, 1}, 4, rng,
                                 KernelKind::kPermutation);
}

TEST(Batched, RandomCircuitsMatchSingleShotOnMixedRadix) {
    Rng rng(302);
    const std::vector<std::vector<int>> registers = {
        {3, 3, 3}, {2, 3, 2}, {3, 2, 2, 3}};
    for (const auto& reg : registers) {
        const WireDims dims(reg);
        // A circuit mixing every kernel shape, including non-unitary
        // (Kraus-like) dense operators.
        Circuit c(dims);
        for (int w = 0; w < dims.num_wires(); ++w) {
            c.append(dims.dim(w) == 3 ? gates::H3() : gates::H(), {w});
        }
        c.append(Gate("k", {dims.dim(0)},
                      random_matrix(static_cast<std::size_t>(dims.dim(0)),
                                    rng)),
                 {0});
        c.append(
            Gate("d2", {dims.dim(1), dims.dim(2)},
                 random_matrix(static_cast<std::size_t>(dims.dim(1)) *
                                   static_cast<std::size_t>(dims.dim(2)),
                               rng)),
            {1, 2});
        c.append((dims.dim(1) == 3 ? gates::Xplus1() : gates::X())
                     .controlled(dims.dim(0), 1),
                 {0, 1});

        const exec::CompiledCircuit compiled(c);
        for (const int lanes : {1, 3, 8}) {
            BatchedStateVector batch(dims, lanes);
            std::vector<StateVector> ref = random_lanes(batch, rng);
            BatchedScratch bscratch;
            exec::run_batched(compiled, batch, bscratch);
            exec::ExecScratch scratch;
            for (StateVector& r : ref) {
                compiled.run(r, scratch);
            }
            expect_lanes_bitwise_equal(batch, ref, "random circuit");
        }
    }
}

/** The damping-table shaped key: a small alphabet cycling over indices. */
std::vector<std::uint16_t>
cycling_key(const WireDims& dims)
{
    std::vector<std::uint16_t> key(static_cast<std::size_t>(dims.size()));
    for (std::size_t i = 0; i < key.size(); ++i) {
        key[i] = static_cast<std::uint16_t>(i % 4);
    }
    return key;
}

const std::vector<Real> kScale = {1.0, 0.75, 0.5, 0.25};

/** Every per-lane primitive on random lanes against the StateVector
 *  counterpart, bitwise. */
void
check_per_lane_primitives(const WireDims& dims, int lanes, Rng& rng)
{
    SCOPED_TRACE(::testing::Message() << "lanes " << lanes << ", wires "
                                      << dims.num_wires());
    BatchedStateVector batch(dims, lanes);
    std::vector<StateVector> ref = random_lanes(batch, rng);

    // populations_lanes == per-lane populations.
    for (int w = 0; w < dims.num_wires(); ++w) {
        const auto pops = batch.populations_lanes(w);
        for (int b = 0; b < lanes; ++b) {
            const auto want = ref[static_cast<std::size_t>(b)].populations(w);
            for (int v = 0; v < dims.dim(w); ++v) {
                ASSERT_EQ(pops[static_cast<std::size_t>(v) *
                                   static_cast<std::size_t>(lanes) +
                               static_cast<std::size_t>(b)],
                          want[static_cast<std::size_t>(v)]);
            }
        }
    }

    // norm_sq_lanes == per-lane squared norm.
    const auto nsq = batch.norm_sq_lanes();
    for (int b = 0; b < lanes; ++b) {
        const Real n = ref[static_cast<std::size_t>(b)].norm();
        ASSERT_EQ(std::sqrt(nsq[static_cast<std::size_t>(b)]), n);
    }

    // scale_by_table_lanes == per-lane scale_by_table (values and norms),
    // and the read-only scaled_norm_sq_lanes predicts those norms.
    const std::vector<std::uint16_t> key = cycling_key(dims);
    const auto predicted = batch.scaled_norm_sq_lanes(key, kScale);
    const auto norms = batch.scale_by_table_lanes(key, kScale);
    for (int b = 0; b < lanes; ++b) {
        const std::size_t ub = static_cast<std::size_t>(b);
        ASSERT_EQ(norms[ub], ref[ub].scale_by_table(key, kScale));
        ASSERT_EQ(predicted[ub], norms[ub]);
    }
    expect_lanes_bitwise_equal(batch, ref, "scale_by_table");

    // Masked diag1 touches exactly the selected lanes.
    const std::vector<Complex> diag = {Complex(1, 0), Complex(0.8, 0),
                                       Complex(0.3, 0.1)};
    std::vector<std::uint8_t> mask(static_cast<std::size_t>(lanes), 0);
    for (int b = 0; b < lanes; ++b) {
        mask[static_cast<std::size_t>(b)] = b % 3 != 2 ? 1 : 0;
    }
    batch.apply_diag1_masked(diag, 0, mask);
    for (int b = 0; b < lanes; ++b) {
        if (mask[static_cast<std::size_t>(b)] != 0) {
            ref[static_cast<std::size_t>(b)].apply_diag1(diag, 0);
        }
    }
    expect_lanes_bitwise_equal(batch, ref, "masked diag1");

    // Masked normalize matches per-lane normalize.
    const auto ok = batch.normalize_lanes(mask);
    for (int b = 0; b < lanes; ++b) {
        EXPECT_TRUE(ok[static_cast<std::size_t>(b)]);
        if (mask[static_cast<std::size_t>(b)] != 0) {
            ASSERT_TRUE(ref[static_cast<std::size_t>(b)].normalize());
        }
    }
    expect_lanes_bitwise_equal(batch, ref, "masked normalize");

    // Per-lane product diagonal (the dephasing shape).
    std::vector<std::vector<std::vector<Complex>>> factors(
        static_cast<std::size_t>(lanes));
    for (int b = 0; b < lanes; ++b) {
        auto& lf = factors[static_cast<std::size_t>(b)];
        lf.resize(static_cast<std::size_t>(dims.num_wires()));
        for (int w = 0; w < dims.num_wires(); ++w) {
            for (int m = 0; m < dims.dim(w); ++m) {
                lf[static_cast<std::size_t>(w)].push_back(
                    std::polar(1.0, rng.uniform() * 6.28));
            }
        }
    }
    batch.apply_product_diag_lanes(factors);
    for (int b = 0; b < lanes; ++b) {
        ref[static_cast<std::size_t>(b)].apply_product_diag(
            factors[static_cast<std::size_t>(b)]);
    }
    expect_lanes_bitwise_equal(batch, ref, "product diag");

    // fidelity_lanes == per-lane fidelity.
    BatchedStateVector other(dims, lanes);
    std::vector<StateVector> oref = random_lanes(other, rng);
    const auto fid = batch.fidelity_lanes(other);
    for (int b = 0; b < lanes; ++b) {
        ASSERT_EQ(fid[static_cast<std::size_t>(b)],
                  ref[static_cast<std::size_t>(b)].fidelity(
                      oref[static_cast<std::size_t>(b)]));
    }
}

TEST(Batched, PerLanePrimitivesMatchStateVectorBitwise) {
    Rng rng(303);
    // Lane counts off and on the vector width and the production default
    // (12); {3, 2, 3, 3} makes the dephasing odometer carry across several
    // wires, and its 54 amplitudes leave a partial sweep block.
    for (const auto& reg : std::vector<std::vector<int>>{{3, 2, 3},
                                                         {3, 2, 3, 3}}) {
        for (const int lanes : {1, 3, 6, 12, 17}) {
            check_per_lane_primitives(WireDims(reg), lanes, rng);
        }
    }
}

TEST(Batched, DampingPairMatchesScaleThenNormalizeBitwise) {
    Rng rng(305);
    const WireDims dims({3, 2, 3, 3});
    const std::vector<std::uint16_t> key = cycling_key(dims);
    for (const int lanes : {1, 3, 12, 17}) {
        BatchedStateVector batch(dims, lanes);
        std::vector<StateVector> ref = random_lanes(batch, rng);
        std::vector<std::uint8_t> accepted(static_cast<std::size_t>(lanes));
        for (int b = 0; b < lanes; ++b) {
            accepted[static_cast<std::size_t>(b)] = b % 4 != 1 ? 1 : 0;
        }
        const auto q = batch.scaled_norm_sq_lanes(key, kScale);
        const auto ok = batch.scale_normalize_lanes(key, kScale, q, accepted);
        for (int b = 0; b < lanes; ++b) {
            const std::size_t ub = static_cast<std::size_t>(b);
            EXPECT_TRUE(ok[ub]);
            ASSERT_EQ(q[ub], ref[ub].scale_by_table(key, kScale));
            // Accepted lanes: scale then normalize. Rejected lanes hold
            // exactly the scaled amplitudes (what the rare branch undoes).
            if (accepted[ub] != 0) {
                ASSERT_TRUE(ref[ub].normalize());
            }
        }
        expect_lanes_bitwise_equal(batch, ref, "damping pair");
    }
}

TEST(Batched, DampingPairLeavesZeroNormLaneScaled) {
    Rng rng(306);
    const WireDims dims({3, 3, 2});
    const std::vector<std::uint16_t> key = cycling_key(dims);
    BatchedStateVector batch(dims, 3);
    std::vector<StateVector> ref = random_lanes(batch, rng);
    // Lane 1 only has support where the scale table is zero, so its
    // scaled norm vanishes although it is selected.
    const std::vector<Real> scale = {0.0, 0.75, 0.5, 0.25};
    std::vector<Complex> amps(static_cast<std::size_t>(dims.size()));
    for (std::size_t i = 0; i < amps.size(); i += 4) {
        amps[i] = Complex(0.5, -0.25);
    }
    ref[1] = StateVector::from_amplitudes(dims, amps);
    batch.set_lane(1, ref[1]);
    const std::vector<std::uint8_t> accepted = {1, 1, 0};
    const auto q = batch.scaled_norm_sq_lanes(key, scale);
    EXPECT_EQ(q[1], 0.0);
    const auto ok = batch.scale_normalize_lanes(key, scale, q, accepted);
    EXPECT_TRUE(ok[0]);
    EXPECT_FALSE(ok[1]);
    EXPECT_TRUE(ok[2]);
    for (StateVector& r : ref) {
        r.scale_by_table(key, scale);
    }
    ASSERT_TRUE(ref[0].normalize());
    expect_lanes_bitwise_equal(batch, ref, "zero-norm damping lane");
    EXPECT_THROW(batch.scale_normalize_lanes(key, scale, q, {1, 0}),
                 std::invalid_argument);
    EXPECT_THROW(batch.scaled_norm_sq_lanes({0, 1}, scale),
                 std::invalid_argument);
}

TEST(Batched, ZeroNormLaneSignalledAndLeftUntouched) {
    const WireDims dims({3, 3});
    BatchedStateVector batch(dims, 2);
    StateVector zero(dims);
    zero.amplitudes().assign(static_cast<std::size_t>(dims.size()),
                             Complex(0, 0));
    batch.set_lane(1, zero);
    const auto ok = batch.normalize_lanes();
    EXPECT_TRUE(ok[0]);
    EXPECT_FALSE(ok[1]);
    // Healthy lane normalised, dead lane untouched (all zeros).
    EXPECT_NEAR(batch.lane_state(0).norm(), 1.0, 1e-12);
    EXPECT_EQ(batch.lane_state(1).norm(), 0.0);
}

TEST(Batched, ExtractInsertRoundTripAndValidation) {
    Rng rng(304);
    const WireDims dims({2, 3});
    BatchedStateVector batch(dims, 3);
    const StateVector s = haar_random_state(dims, rng);
    batch.set_lane(2, s);
    StateVector out(dims);
    batch.extract_lane(2, out);
    EXPECT_EQ(out.fidelity(s), 1.0);
    EXPECT_THROW(BatchedStateVector(dims, 0), std::invalid_argument);
    StateVector wrong(WireDims({3, 3}));
    EXPECT_THROW(batch.set_lane(0, wrong), std::invalid_argument);
    // One lane's wire-1 factors have 2 entries instead of dim 3.
    std::vector<std::vector<std::vector<Complex>>> factors(
        3, {std::vector<Complex>(2, Complex(1, 0)),
            std::vector<Complex>(3, Complex(1, 0))});
    factors[2][1].pop_back();
    EXPECT_THROW(batch.apply_product_diag_lanes(factors),
                 std::invalid_argument);
    EXPECT_THROW(
        StateVector::from_amplitudes(dims, std::vector<Complex>(3)),
        std::invalid_argument);
}

}  // namespace
}  // namespace qd
