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
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>

#include <gtest/gtest.h>

#include "qdsim/exec/batched_state.h"
#include "qdsim/gate_library.h"
#include "qdsim/random_state.h"
#include "qdsim/simulator.h"
#include "qdsim/verify/verify.h"
#include "product_diag_reference.h"

namespace qd {
namespace {

using exec::ExecScratch;
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

    ExecScratch bscratch;
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
    const WireDims q2 = WireDims::uniform(3, 2);
    // lanes = 1 runs the runtime-lane-count kernels at one lane against
    // the compile-time one-lane instantiation apply_op runs.
    for (const int lanes : {1, 4, 5}) {
        SCOPED_TRACE(::testing::Message() << "lanes " << lanes);
        // Permutation, diagonal, unrolled d3, controlled, dense.
        check_batched_matches_single(q3, gates::Xplus1().controlled(3, 2),
                                     {1, 3}, lanes, rng,
                                     KernelKind::kPermutation);
        check_batched_matches_single(q3, gates::Z3(), {2}, lanes, rng,
                                     KernelKind::kDiagonal);
        // Monomial: generalized permutation with phases (Z ⊗ X+1
        // product, the shape of X^j Z^k error terms and
        // phase∘permutation fusions).
        check_batched_matches_single(
            q3,
            Gate("Z3xX+1", {3, 3},
                 gates::Z3().matrix().kron(gates::Xplus1().matrix())),
            {1, 3}, lanes, rng, KernelKind::kMonomial);
        check_batched_matches_single(q3, gates::H3(), {1}, lanes, rng,
                                     KernelKind::kSingleWireD3);
        check_batched_matches_single(q3, gates::fourier(3).controlled(3, 2),
                                     {0, 2}, lanes, rng,
                                     KernelKind::kControlled);
        check_batched_matches_single(
            q3, Gate("rand", {3, 3}, random_matrix(9, rng)), {3, 1}, lanes,
            rng, KernelKind::kDense);

        check_batched_matches_single(q2, gates::H(), {1}, lanes, rng,
                                     KernelKind::kSingleWireD2);
        check_batched_matches_single(q2, gates::CCX(), {2, 0, 1}, lanes, rng,
                                     KernelKind::kPermutation);
    }
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
        // lanes = 1: the runtime-lane-count instantiation at one lane
        // against the compile-time one that CompiledCircuit::run uses.
        for (const int lanes : {1, 3, 8}) {
            BatchedStateVector batch(dims, lanes);
            std::vector<StateVector> ref = random_lanes(batch, rng);
            ExecScratch bscratch;
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

    // scale_by_table_lanes == per-lane scale_by_table (values and norms).
    const std::vector<std::uint16_t> key = cycling_key(dims);
    const auto norms = batch.scale_by_table_lanes(key, kScale);
    for (int b = 0; b < lanes; ++b) {
        const std::size_t ub = static_cast<std::size_t>(b);
        ASSERT_EQ(norms[ub], ref[ub].scale_by_table(key, kScale));
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
        reference::apply_product_diag(ref[static_cast<std::size_t>(b)],
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

/** One op of every kernel class over `dims`, which must hold at least
 *  three qutrit wires; the single-wire d=2 op acts on wire `qubit` (none
 *  when it is negative). */
std::vector<CompiledOp>
every_kernel_class(const WireDims& dims, int qubit, Rng& rng)
{
    std::vector<int> q;  // qutrit wires
    for (int w = 0; w < dims.num_wires(); ++w) {
        if (dims.dim(w) == 3) {
            q.push_back(w);
        }
    }
    std::vector<CompiledOp> ops;
    auto add = [&](const Gate& g, std::vector<int> wires, KernelKind kind) {
        ops.push_back(exec::compile_op(dims, g, wires));
        EXPECT_EQ(ops.back().kind, kind) << g.name();
    };
    add(gates::Xplus1().controlled(3, 2), {q[0], q[2]},
        KernelKind::kPermutation);
    add(gates::Z3(), {q[1]}, KernelKind::kDiagonal);
    add(Gate("Z3xX+1", {3, 3},
             gates::Z3().matrix().kron(gates::Xplus1().matrix())),
        {q[2], q[0]}, KernelKind::kMonomial);
    add(gates::H3(), {q.back()}, KernelKind::kSingleWireD3);
    add(gates::fourier(3).controlled(3, 1), {q[1], q.back()},
        KernelKind::kControlled);
    add(Gate("rand", {3, 3}, random_matrix(9, rng)), {q.back(), q[1]},
        KernelKind::kDense);
    if (qubit >= 0) {
        add(gates::H(), {qubit}, KernelKind::kSingleWireD2);
    }
    return ops;
}

/** Starts a frame on `batch` with factors in (0, 1] that vary with the
 *  index: two scalings by the cycling key, one of them shifted. */
void
start_varied_frame(BatchedStateVector& batch)
{
    const std::vector<std::uint16_t> key = cycling_key(batch.dims());
    std::vector<std::uint16_t> shifted(key.size());
    for (std::size_t i = 0; i < key.size(); ++i) {
        shifted[i] = static_cast<std::uint16_t>((i / 3) % 4);
    }
    batch.start_frame();
    batch.scale_frame(key, kScale);
    batch.scale_frame(shifted, kScale);
}

TEST(Batched, FramedOpThenFoldMatchesFoldThenPlainOp) {
    // A batch carrying a damping frame f holds lane states f (.) x_b. The
    // frame-carrying kernel followed by fold_frame() must give the states
    // that fold_frame() followed by the plain kernel gives, to rounding
    // (the matvec kernels multiply by f before the gate, not after).
    Rng rng(305);
    const WireDims dims({3, 2, 3, 3});
    for (const CompiledOp& op : every_kernel_class(dims, 1, rng)) {
        for (const int lanes : {1, 3, 12, 17}) {
            SCOPED_TRACE(::testing::Message()
                         << exec::kernel_name(op.kind) << ", lanes " << lanes);
            BatchedStateVector framed(dims, lanes);
            random_lanes(framed, rng);
            start_varied_frame(framed);
            BatchedStateVector folded = framed;
            ExecScratch bscratch;
            exec::apply_op_batched(op, framed, bscratch);
            framed.fold_frame();
            folded.fold_frame();
            ASSERT_NE(folded.frame(), nullptr);
            exec::apply_op_batched(op, folded, bscratch);
            for (int b = 0; b < lanes; ++b) {
                const StateVector got = framed.lane_state(b);
                const StateVector want = folded.lane_state(b);
                for (Index i = 0; i < got.size(); ++i) {
                    ASSERT_NEAR(std::abs(got[i] - want[i]), 0.0, 1e-14)
                        << "lane " << b << " index " << i;
                }
            }
        }
    }
}

TEST(Batched, FrameAccessorsSeeTheFramedState) {
    // set_lane / extract_lane / fidelity_lanes and its norms act on
    // f (.) x_b, the frame-only passes validate their inputs, and the
    // passes that need an unframed batch refuse a framed one.
    Rng rng(307);
    const WireDims dims({3, 3, 3});
    BatchedStateVector batch(dims, 3);
    const std::vector<StateVector> lanes = random_lanes(batch, rng);
    BatchedStateVector other = batch;
    start_varied_frame(batch);
    StateVector lane(dims);
    for (int b = 0; b < 3; ++b) {
        batch.set_lane(b, lanes[static_cast<std::size_t>(b)]);
    }
    std::vector<Real> norms;
    const std::vector<Real> fid = batch.fidelity_lanes(other, &norms);
    for (int b = 0; b < 3; ++b) {
        const std::size_t ub = static_cast<std::size_t>(b);
        batch.extract_lane(b, lane);
        for (Index i = 0; i < dims.size(); ++i) {
            EXPECT_NEAR(std::abs(lane[i] - lanes[ub][i]), 0.0, 1e-15);
        }
        EXPECT_NEAR(fid[ub], 1.0, 1e-13);
        EXPECT_NEAR(norms[ub], 1.0, 1e-13);
    }
    // N and M of one more scaling, then the scaling itself.
    const std::vector<std::uint16_t> key = cycling_key(dims);
    std::vector<Real> before, after;
    batch.damped_norm_sq_lanes(key, kScale, before, after);
    const std::vector<Complex> f0(batch.frame(),
                                  batch.frame() + dims.size());
    batch.scale_frame(key, kScale);
    for (std::size_t i = 0; i < f0.size(); ++i) {
        EXPECT_EQ(batch.frame()[i], f0[i] * kScale[key[i]]);
    }
    std::vector<Real> now;
    batch.fidelity_lanes(other, &now);
    for (std::size_t b = 0; b < 3; ++b) {
        EXPECT_EQ(before[b], norms[b]);
        EXPECT_EQ(after[b], now[b]);
    }
    EXPECT_THROW(batch.scale_by_table_lanes(key, kScale),
                 std::invalid_argument);
    EXPECT_THROW(batch.populations_lanes(0), std::invalid_argument);
    EXPECT_THROW(batch.norm_sq_lanes(), std::invalid_argument);
    EXPECT_THROW(batch.normalize_lanes(), std::invalid_argument);
    EXPECT_THROW(other.fidelity_lanes(other, &now), std::invalid_argument);
    EXPECT_THROW(other.fidelity_lanes(batch), std::invalid_argument);
    // A batch made with frame room starts its frame in place.
    BatchedStateVector roomy(dims, 3, true);
    const Complex* lanes_at = roomy.data();
    roomy.start_frame();
    EXPECT_EQ(roomy.data(), lanes_at);
    EXPECT_EQ(roomy.lane_state(0)[0], Complex(1, 0));
    EXPECT_THROW(other.scale_frame(key, kScale), std::invalid_argument);
    EXPECT_THROW(batch.scale_frame({0, 1}, kScale), std::invalid_argument);
}

/** Starts a phase frame on `batch` with random angles. */
void
start_random_phase_frame(BatchedStateVector& batch, Rng& rng)
{
    batch.start_phase_frame();
    const std::size_t n = static_cast<std::size_t>(batch.dims().num_wires()) *
                          static_cast<std::size_t>(batch.lanes());
    for (std::size_t i = 0; i < n; ++i) {
        batch.phase_frame()[i] = rng.uniform() * 6.28 - 3.14;
    }
}

/** A phased pass followed by fold_phase_frame() must equal the fold
 *  followed by the plain pass, within 1e-13 per amplitude, with and
 *  without a damping frame. */
void
check_phased_op(const WireDims& dims, const CompiledOp& op, int lanes,
                bool damped, Rng& rng)
{
    SCOPED_TRACE(::testing::Message()
                 << exec::kernel_name(op.kind) << ", lanes " << lanes
                 << (damped ? ", damped" : ""));
    BatchedStateVector phased(dims, lanes);
    random_lanes(phased, rng);
    if (damped) {
        start_varied_frame(phased);
    }
    start_random_phase_frame(phased, rng);
    BatchedStateVector folded = phased;
    ExecScratch bscratch;
    exec::apply_op_batched(op, phased, bscratch);
    phased.fold_phase_frame();
    phased.fold_frame();
    folded.fold_phase_frame();
    folded.fold_frame();
    exec::apply_op_batched(op, folded, bscratch);
    folded.fold_frame();  // a diagonal on a framed batch lands in the frame
    const std::size_t n = static_cast<std::size_t>(dims.size()) *
                          static_cast<std::size_t>(lanes);
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_NEAR(std::abs(phased.data()[i] - folded.data()[i]), 0.0,
                    1e-13)
            << "slot " << i;
    }
}

TEST(Batched, PhasedOpThenFoldMatchesFoldThenPlainOp) {
    // Uniform-qutrit and mixed-radix registers, every kernel class.
    Rng rng(308);
    for (const auto& reg :
         std::vector<std::vector<int>>{{3, 3, 3, 3}, {3, 2, 3, 3}}) {
        const WireDims dims(reg);
        const int qubit = reg[1] == 2 ? 1 : -1;
        for (const CompiledOp& op : every_kernel_class(dims, qubit, rng)) {
            for (const int lanes : {1, 3, 12}) {
                for (const bool damped : {false, true}) {
                    check_phased_op(dims, op, lanes, damped, rng);
                }
            }
        }
    }
}

TEST(Batched, PhasedLanesIndependentOfBatchWidth) {
    // Lane b of a phased pass depends on lane b alone: a 12-lane pass and
    // 1-lane passes over the same lanes and angles agree bitwise.
    Rng rng(309);
    const WireDims dims({3, 2, 3, 3});
    for (const CompiledOp& op : every_kernel_class(dims, 1, rng)) {
        SCOPED_TRACE(exec::kernel_name(op.kind));
        BatchedStateVector wide(dims, 12);
        const std::vector<StateVector> lanes = random_lanes(wide, rng);
        start_random_phase_frame(wide, rng);
        ExecScratch bscratch;
        exec::apply_op_batched(op, wide, bscratch);
        for (int b = 0; b < 12; ++b) {
            BatchedStateVector one(dims, 1);
            one.set_lane(0, lanes[static_cast<std::size_t>(b)]);
            one.start_phase_frame();
            for (int w = 0; w < dims.num_wires(); ++w) {
                one.phase_frame()[w] = wide.phase_frame()[w * 12 + b];
            }
            exec::apply_op_batched(op, one, bscratch);
            for (Index i = 0; i < dims.size(); ++i) {
                ASSERT_EQ(one.at(i, 0), wide.at(i, b))
                    << "lane " << b << " index " << i;
            }
        }
    }
}

TEST(Batched, PhaseAccessorsSeeTheTrueState) {
    // set_lane / extract_lane / fidelity_lanes act on P (f (.) x).
    Rng rng(310);
    const WireDims dims({3, 2, 3});
    BatchedStateVector batch(dims, 3);
    const std::vector<StateVector> lanes = random_lanes(batch, rng);
    const BatchedStateVector other = batch;
    start_varied_frame(batch);
    start_random_phase_frame(batch, rng);
    for (int b = 0; b < 3; ++b) {
        batch.set_lane(b, lanes[static_cast<std::size_t>(b)]);
    }
    std::vector<Real> norms;
    const std::vector<Real> fid = batch.fidelity_lanes(other, &norms);
    StateVector lane(dims);
    for (int b = 0; b < 3; ++b) {
        const std::size_t ub = static_cast<std::size_t>(b);
        batch.extract_lane(b, lane);
        for (Index i = 0; i < dims.size(); ++i) {
            EXPECT_NEAR(std::abs(lane[i] - lanes[ub][i]), 0.0, 1e-15);
        }
        EXPECT_NEAR(fid[ub], 1.0, 1e-13);
        EXPECT_NEAR(norms[ub], 1.0, 1e-13);
    }
    EXPECT_THROW(other.fidelity_lanes(batch), std::invalid_argument);
}

/** Unitary ops of all six kernel classes over {3, 2, 3, 3}: two complex
 *  diagonals (a random two-qutrit one and T on the qubit), a
 *  permutation, a monomial, single-wire d=2 and d=3, controlled and
 *  dense. */
std::vector<CompiledOp>
unitary_kernel_pool(const WireDims& dims, Rng& rng)
{
    std::vector<CompiledOp> ops;
    auto add = [&](const Gate& g, std::vector<int> wires, KernelKind kind) {
        ops.push_back(exec::compile_op(dims, g, wires));
        EXPECT_EQ(ops.back().kind, kind) << g.name();
    };
    Matrix phases(9, 9);
    for (std::size_t i = 0; i < 9; ++i) {
        phases(i, i) = std::polar(1.0, rng.uniform() * 6.28);
    }
    add(Gate("rdiag", {3, 3}, phases), {0, 3}, KernelKind::kDiagonal);
    add(gates::T(), {1}, KernelKind::kDiagonal);
    add(gates::Xplus1().controlled(3, 2), {0, 2}, KernelKind::kPermutation);
    add(Gate("Z3xX+1", {3, 3},
             gates::Z3().matrix().kron(gates::Xplus1().matrix())),
        {2, 0}, KernelKind::kMonomial);
    add(gates::H(), {1}, KernelKind::kSingleWireD2);
    add(gates::H3(), {3}, KernelKind::kSingleWireD3);
    add(gates::fourier(3).controlled(3, 1), {2, 3}, KernelKind::kControlled);
    add(Gate("haar", {3, 3}, haar_random_unitary(9, rng)), {3, 2},
        KernelKind::kDense);
    return ops;
}

TEST(Batched, FramedRandomSequencesMatchUnframed) {
    // A framed batch multiplies diagonals into its lane-shared frame c
    // and carries c through every other kernel. Random sequences of all
    // six kernel classes, with gate-error-style lane round trips (the
    // lane extracted into a one-lane batch, an op applied there, the lane
    // stored back) between them, must leave the true states within 1e-12
    // of an unframed batch's, with and without a phase frame; and a
    // diagonal must leave the framed batch's stored lanes bitwise
    // untouched.
    Rng rng(315);
    const WireDims dims({3, 2, 3, 3});
    const std::vector<CompiledOp> pool = unitary_kernel_pool(dims, rng);
    for (const int lanes : {1, 12}) {
        for (const bool phased : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "lanes " << lanes
                         << (phased ? ", phased" : ""));
            BatchedStateVector plain(dims, lanes);
            random_lanes(plain, rng);
            BatchedStateVector framed = plain;
            framed.start_frame();
            if (phased) {
                start_random_phase_frame(plain, rng);
                framed.start_phase_frame();
                std::copy_n(plain.phase_frame(),
                            static_cast<std::size_t>(dims.num_wires()) *
                                static_cast<std::size_t>(lanes),
                            framed.phase_frame());
            }
            const std::size_t slots = static_cast<std::size_t>(dims.size()) *
                                      static_cast<std::size_t>(lanes);
            BatchedStateVector one(dims, 1);
            ExecScratch ps, fs;
            int diagonals = 0;
            for (int step = 0; step < 80; ++step) {
                const CompiledOp& op = pool[rng.uniform_int(pool.size())];
                const std::vector<Complex> before(framed.data(),
                                                  framed.data() + slots);
                exec::apply_op_batched(op, framed, fs);
                exec::apply_op_batched(op, plain, ps);
                if (op.kind == KernelKind::kDiagonal) {
                    ++diagonals;
                    ASSERT_EQ(std::memcmp(before.data(), framed.data(),
                                          slots * sizeof(Complex)),
                              0)
                        << "step " << step;
                }
                if (step % 5 == 2) {
                    const int j = static_cast<int>(
                        rng.uniform_int(static_cast<std::uint64_t>(lanes)));
                    const CompiledOp& err =
                        pool[rng.uniform_int(pool.size())];
                    for (BatchedStateVector* b : {&plain, &framed}) {
                        b->extract_lane(j, one);
                        exec::apply_op_batched(err, one, ps);
                        b->set_lane(j, one);
                    }
                }
            }
            EXPECT_GT(diagonals, 0);
            for (int b = 0; b < lanes; ++b) {
                const StateVector got = framed.lane_state(b);
                const StateVector want = plain.lane_state(b);
                for (Index i = 0; i < dims.size(); ++i) {
                    ASSERT_NEAR(std::abs(got[i] - want[i]), 0.0, 1e-12)
                        << "lane " << b << " index " << i;
                }
            }
        }
    }
}

TEST(Batched, StrictModeChecksTheFrame) {
    // Under QD_VERIFY=strict every op on a framed batch is followed by a
    // check that each frame entry is finite and nonzero (an underflowed
    // or overflowed factor would silently zero or poison every lane).
    Rng rng(316);
    const WireDims dims({3, 2, 3, 3});
    BatchedStateVector batch(dims, 3);
    random_lanes(batch, rng);
    batch.start_frame();
    EXPECT_NO_THROW(batch.check_frame());
    const CompiledOp t =
        exec::compile_op(dims, gates::T(), std::vector<int>{1});
    ExecScratch scratch;
    verify::set_strict(true);
    EXPECT_NO_THROW(exec::apply_op_batched(t, batch, scratch));
    batch.frame()[5] = Complex(0, 0);
    EXPECT_THROW(exec::apply_op_batched(t, batch, scratch),
                 std::logic_error);
    batch.frame()[5] = Complex(1, std::numeric_limits<Real>::infinity());
    EXPECT_THROW(exec::apply_op_batched(t, batch, scratch),
                 std::logic_error);
    verify::set_strict(false);
    EXPECT_NO_THROW(exec::apply_op_batched(t, batch, scratch));
    verify::clear_strict();
    EXPECT_THROW(batch.check_frame(), std::logic_error);
}

// ---------------------------------------------------------------- support

/** Fills lane b of both batches with the same qubit-subspace Haar state
 *  (digits 0 and 1 only): the sparse inputs of the Figure 11 runs. */
void
sparse_lanes(BatchedStateVector& tracked, BatchedStateVector& dense,
             Rng& rng)
{
    for (int b = 0; b < tracked.lanes(); ++b) {
        const StateVector s =
            haar_random_qubit_subspace_state(tracked.dims(), rng);
        tracked.set_lane(b, s);
        dense.set_lane(b, s);
    }
}

/** EXPECT the occupancy flags of `batch` to cover every nonzero slot. */
void
expect_support_covers_nonzeros(const BatchedStateVector& batch)
{
    ASSERT_TRUE(batch.tracked());
    const std::size_t B = static_cast<std::size_t>(batch.lanes());
    for (Index i = 0; i < batch.size(); ++i) {
        if (batch.support()[i] != 0) {
            continue;
        }
        for (std::size_t b = 0; b < B; ++b) {
            ASSERT_EQ(batch.data()[i * B + b], Complex(0, 0))
                << "index " << i << " lane " << b
                << " is outside the support";
        }
    }
    EXPECT_NO_THROW(batch.check_support());
}

/** EXPECT the stored lanes of two batches to agree bitwise up to the sign
 *  of zeros (== on each real), and their damping frames at the tracked
 *  batch's occupied indices (elsewhere a tracked frame is stale). */
void
expect_same_lanes(const BatchedStateVector& tracked,
                  const BatchedStateVector& dense)
{
    const std::size_t B = static_cast<std::size_t>(tracked.lanes());
    for (Index i = 0; i < tracked.size(); ++i) {
        for (std::size_t b = 0; b < B; ++b) {
            const Complex x = tracked.data()[i * B + b];
            const Complex y = dense.data()[i * B + b];
            ASSERT_EQ(x.real(), y.real()) << "index " << i << " lane " << b;
            ASSERT_EQ(x.imag(), y.imag()) << "index " << i << " lane " << b;
        }
        if (tracked.frame() != nullptr && tracked.support()[i] != 0) {
            ASSERT_EQ(tracked.frame()[i], dense.frame()[i]) << "index " << i;
        }
    }
}

/** Runs every kernel class in turn over a sparse-input tracked batch and
 *  the same lanes in a dense batch, plain, damping-framed, phase-framed
 *  or both. After every op the stored lanes agree bitwise (up to zero
 *  signs), the support covers the nonzeros, and the true states and the
 *  fidelities agree bitwise. */
void
check_support_walk(const WireDims& dims, int qubit, bool damped,
                   bool phased, int lanes, Rng& rng)
{
    SCOPED_TRACE(::testing::Message()
                 << "wires " << dims.num_wires() << ", lanes " << lanes
                 << (damped ? ", damped" : "") << (phased ? ", phased" : ""));
    BatchedStateVector tracked(dims, lanes, false, exec::Support::kTracked);
    BatchedStateVector dense(dims, lanes);
    ASSERT_TRUE(tracked.tracked());
    ASSERT_FALSE(dense.tracked());
    sparse_lanes(tracked, dense, rng);
    const BatchedStateVector start = dense;
    if (damped) {
        start_varied_frame(tracked);
        start_varied_frame(dense);
    }
    if (phased) {
        start_random_phase_frame(dense, rng);
        tracked.start_phase_frame();
        std::copy_n(dense.phase_frame(),
                    static_cast<std::size_t>(dims.num_wires()) *
                        static_cast<std::size_t>(lanes),
                    tracked.phase_frame());
    }
    ExecScratch ts, ds;
    for (const CompiledOp& op : every_kernel_class(dims, qubit, rng)) {
        SCOPED_TRACE(exec::kernel_name(op.kind));
        exec::apply_op_batched(op, tracked, ts);
        exec::apply_op_batched(op, dense, ds);
        expect_same_lanes(tracked, dense);
        expect_support_covers_nonzeros(tracked);
        for (int b = 0; b < lanes; ++b) {
            const StateVector got = tracked.lane_state(b);
            const StateVector want = dense.lane_state(b);
            for (Index i = 0; i < dims.size(); ++i) {
                ASSERT_EQ(got[i], want[i]) << "lane " << b << " index " << i;
            }
        }
        if (damped) {
            std::vector<Real> tn, dn;
            EXPECT_EQ(tracked.fidelity_lanes(start, &tn),
                      dense.fidelity_lanes(start, &dn));
            EXPECT_EQ(tn, dn);
        } else {
            EXPECT_EQ(tracked.fidelity_lanes(start),
                      dense.fidelity_lanes(start));
        }
    }
    // A sparse input walks a fraction of the register.
    EXPECT_LT(tracked.support_indices().size(),
              static_cast<std::size_t>(dims.size()));
}

TEST(Batched, SupportWalkMatchesDenseWalkBitwise) {
    Rng rng(311);
    for (const auto& reg :
         std::vector<std::vector<int>>{{3, 3, 3, 3}, {3, 2, 3, 3}}) {
        const WireDims dims(reg);
        const int qubit = reg[1] == 2 ? 1 : -1;
        for (const bool damped : {false, true}) {
            for (const bool phased : {false, true}) {
                for (const int lanes : {1, 5, 12}) {
                    check_support_walk(dims, qubit, damped, phased, lanes,
                                       rng);
                }
            }
        }
    }
}

TEST(Batched, SupportTracksWritesAndDrops) {
    // A fresh tracked batch holds |0...0> on support {0}; set_lane flags
    // the lane's nonzeros, a kernel flags the outputs it moves amplitude
    // to and drops the ones it empties, and copies keep the support.
    const WireDims dims = WireDims::uniform(3, 3);
    BatchedStateVector batch(dims, 2, false, exec::Support::kTracked);
    EXPECT_EQ(batch.support_indices(), std::vector<Index>{0});
    EXPECT_EQ(batch.lane_state(1)[0], Complex(1, 0));
    StateVector s(dims);
    s.amplitudes()[0] = 0;
    s.amplitudes()[1] = Complex(0.6, 0);
    s.amplitudes()[3] = Complex(0, 0.8);
    batch.set_lane(0, s);
    EXPECT_EQ(batch.support_indices(), (std::vector<Index>{0, 1, 3}));
    // X+1 on wire 2 maps digit 0 -> 1 -> 2: lane 1's index 0 moves to 1,
    // lane 0's 1 to 2 and 3 to 4; index 0 empties in both lanes and is
    // dropped.
    const CompiledOp x =
        exec::compile_op(dims, gates::Xplus1(), std::vector<int>{2});
    ExecScratch scratch;
    exec::apply_op_batched(x, batch, scratch);
    EXPECT_EQ(batch.support_indices(), (std::vector<Index>{1, 2, 4}));
    EXPECT_EQ(batch.at(2, 0), Complex(0.6, 0));
    EXPECT_EQ(batch.at(1, 1), Complex(1, 0));
    const BatchedStateVector copy = batch;
    EXPECT_TRUE(copy.tracked());
    EXPECT_EQ(copy.support_indices(), batch.support_indices());
    EXPECT_EQ(copy.lane_state(0)[4], Complex(0, 0.8));
    // A write through at() must be flagged with occupy().
    batch.at(26, 1) = Complex(0.5, 0);
    EXPECT_THROW(batch.check_support(), std::logic_error);
    batch.occupy(26);
    EXPECT_NO_THROW(batch.check_support());
    // A one-lane batch carries a lane out and back.
    BatchedStateVector one(dims, 1, false, exec::Support::kTracked);
    batch.extract_lane(1, one);
    EXPECT_EQ(one.support_indices(), (std::vector<Index>{1, 2, 4, 26}));
    exec::apply_op_batched(x, one, scratch);
    batch.set_lane(0, one);
    EXPECT_EQ(batch.at(2, 0), Complex(1, 0));
    EXPECT_EQ(batch.at(24, 0), Complex(0.5, 0));
    EXPECT_EQ(batch.at(4, 0), Complex(0, 0));
    EXPECT_NO_THROW(batch.check_support());
    BatchedStateVector dense_one(dims, 1);
    EXPECT_THROW(batch.extract_lane(0, dense_one), std::invalid_argument);
    EXPECT_THROW(batch.set_lane(0, dense_one), std::invalid_argument);
}

TEST(Batched, SupportReductionsMatchDenseBitwise) {
    // The per-lane reductions and the diagonal and frame passes of a
    // tracked batch walk its support and agree bitwise with the dense
    // batch.
    Rng rng(313);
    const WireDims dims({3, 2, 3, 3});
    BatchedStateVector tracked(dims, 5, false, exec::Support::kTracked);
    BatchedStateVector dense(dims, 5);
    sparse_lanes(tracked, dense, rng);
    EXPECT_EQ(tracked.norm_sq_lanes(), dense.norm_sq_lanes());
    for (int w = 0; w < dims.num_wires(); ++w) {
        EXPECT_EQ(tracked.populations_lanes(w), dense.populations_lanes(w));
    }
    const std::vector<std::uint16_t> key = cycling_key(dims);
    std::vector<Real> tb, db;
    EXPECT_EQ(tracked.scale_by_table_lanes(key, kScale, &tb),
              dense.scale_by_table_lanes(key, kScale, &db));
    EXPECT_EQ(tb, db);
    const std::vector<Complex> diag = {Complex(1, 0), Complex(0.8, 0),
                                       Complex(0.3, 0.1)};
    tracked.apply_diag1_masked(diag, 0, {1, 0, 1, 1, 0});
    dense.apply_diag1_masked(diag, 0, {1, 0, 1, 1, 0});
    EXPECT_EQ(tracked.normalize_lanes(), dense.normalize_lanes());
    expect_same_lanes(tracked, dense);
    start_random_phase_frame(dense, rng);
    tracked.start_phase_frame();
    std::copy_n(dense.phase_frame(), 4 * 5, tracked.phase_frame());
    tracked.fold_phase_frame();
    dense.fold_phase_frame();
    expect_same_lanes(tracked, dense);
    start_varied_frame(tracked);
    start_varied_frame(dense);
    std::vector<Real> tn, tm, dn, dm;
    tracked.damped_norm_sq_lanes(key, kScale, tn, tm);
    dense.damped_norm_sq_lanes(key, kScale, dn, dm);
    EXPECT_EQ(tn, dn);
    EXPECT_EQ(tm, dm);
    tracked.fold_frame();
    dense.fold_frame();
    expect_same_lanes(tracked, dense);
    expect_support_covers_nonzeros(tracked);
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
