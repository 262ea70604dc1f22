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
#include <numeric>
#include <optional>

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "qdsim/exec/batched_state.h"
#include "qdsim/gate_library.h"
#include "qdsim/random_state.h"
#include "qdsim/simulator.h"
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
    // The last qutrit wire has the shortest runs: the single-wire kernel's
    // OpenMP threshold (runs per register) is easiest to reach there.
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

TEST(Batched, DampingEpilogueMatchesOpThenStandaloneWalkBitwise) {
    // The fused epilogue must leave every lane exactly where the plain
    // kernel followed by the standalone walk leaves it (amplitudes and
    // norms), and its amplitudes must be the per-lane single-shot op then
    // scale_by_table. The norm is summed per chunk of outer blocks, so
    // against scale_by_table's index-order sum it only agrees to rounding.
    Rng rng(305);
    const WireDims dims({3, 2, 3, 3});
    const std::vector<std::uint16_t> key = cycling_key(dims);
    for (const CompiledOp& op : every_kernel_class(dims, 1, rng)) {
        for (const int lanes : {1, 3, 12, 17}) {
            SCOPED_TRACE(::testing::Message()
                         << exec::kernel_name(op.kind) << ", lanes " << lanes);
            BatchedStateVector fused(dims, lanes);
            std::vector<StateVector> ref = random_lanes(fused, rng);
            BatchedStateVector split = fused;
            ExecScratch bscratch;
            std::vector<Real> fused_norms, split_norms;
            exec::apply_op_batched_damped(op, fused, bscratch, key, kScale,
                                          fused_norms);
            exec::apply_op_batched(op, split, bscratch);
            exec::damp_op_batched(op, split, bscratch, key, kScale,
                                  split_norms);
            ASSERT_EQ(fused_norms.size(), static_cast<std::size_t>(lanes));
            ASSERT_EQ(split_norms.size(), static_cast<std::size_t>(lanes));

            exec::ExecScratch scratch;
            for (int b = 0; b < lanes; ++b) {
                const std::size_t ub = static_cast<std::size_t>(b);
                ASSERT_EQ(fused_norms[ub], split_norms[ub]) << "lane " << b;
                exec::apply_op(op, ref[ub], scratch);
                EXPECT_NEAR(fused_norms[ub],
                            ref[ub].scale_by_table(key, kScale), 1e-14);
            }
            expect_lanes_bitwise_equal(fused, ref, "fused epilogue");
            expect_lanes_bitwise_equal(split, ref, "standalone epilogue");
        }
    }
    BatchedStateVector batch(dims, 2);
    std::vector<Real> norms;
    ExecScratch bscratch;
    const std::vector<int> wire0 = {0};
    const CompiledOp op = exec::compile_op(dims, gates::H3(), wire0);
    EXPECT_THROW(exec::damp_op_batched(op, batch, bscratch, {0, 1}, kScale,
                                       norms),
                 std::invalid_argument);
    EXPECT_THROW(exec::apply_op_batched_damped(op, batch, bscratch, {0, 1},
                                               kScale, norms),
                 std::invalid_argument);
}

#ifdef _OPENMP
TEST(Batched, DampingEpilogueIndependentOfThreadCount) {
    // Width-11 qutrit register: every kernel class clears the outer-block
    // threshold, so the OpenMP branch runs; the chunked norm partials must
    // make amplitudes and norms bitwise equal at 1 and 4 threads.
    Rng rng(306);
    const WireDims dims = WireDims::uniform(11, 3);
    const std::vector<std::uint16_t> key = cycling_key(dims);
    const int lanes = 3;
    BatchedStateVector start(dims, lanes);
    random_lanes(start, rng);
    const int saved = omp_get_max_threads();
    for (const CompiledOp& op : every_kernel_class(dims, -1, rng)) {
        SCOPED_TRACE(exec::kernel_name(op.kind));
        std::vector<BatchedStateVector> out;
        std::vector<std::vector<Real>> norms(2);
        for (const int threads : {1, 4}) {
            omp_set_num_threads(threads);
            out.push_back(start);
            ExecScratch bscratch;
            exec::apply_op_batched_damped(op, out.back(), bscratch, key,
                                          kScale, norms[out.size() - 1]);
        }
        omp_set_num_threads(saved);
        for (int b = 0; b < lanes; ++b) {
            const std::size_t ub = static_cast<std::size_t>(b);
            ASSERT_EQ(norms[0][ub], norms[1][ub]) << "lane " << b;
        }
        ASSERT_EQ(std::memcmp(out[0].data(), out[1].data(),
                              static_cast<std::size_t>(dims.size()) *
                                  static_cast<std::size_t>(lanes) *
                                  sizeof(Complex)),
                  0);
    }
}
#endif

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
