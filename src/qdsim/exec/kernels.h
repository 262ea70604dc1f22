/**
 * @file kernels.h
 * Gate compilation: the kernel classes, the compiled operation, and the
 * single-shot entry point.
 *
 * `compile_op` inspects the gate's cached structure (permutation action,
 * diagonality, controlled-subspace split — all derived once at Gate
 * construction) and its geometry, and routes it to the cheapest kernel:
 *
 *  - kPermutation: pure index remap along precomputed cycles; zero complex
 *    multiplies. Covers X/CX/Toffoli-family gates of any arity.
 *  - kDiagonal: in-place scale by the diagonal; any arity.
 *  - kMonomial: generalized permutations (exactly one nonzero per row and
 *    column — X^j Z^k depolarizing terms, and the phase∘permutation
 *    products the fusion stage emits): values move along precomputed
 *    cycles with one phase multiply each, no matvec.
 *  - kSingleWireD2 / kSingleWireD3: fully unrolled dense 2x2 / 3x3 kernels
 *    walking the wire's rows directly (no offset tables at all).
 *  - kControlled: touches only the `d^N / d^c` amplitudes where the `c`
 *    control operands hold their activation values, applying the inner
 *    dense operator there.
 *  - kDense: generic gather/multiply/scatter against precomputed offsets —
 *    the fallback, and the shape every other kernel is property-tested
 *    against (via StateVector::apply, the reference implementation).
 *
 * There is one set of kernel bodies (batched_kernels.cc), templated on
 * the lane count: `apply_op` runs them at a compile-time count of 1,
 * `apply_op_batched` at the batch width, and `conjugate_op` applies a
 * density operator as rho -> K rho K^dagger with both (K over rho's D
 * columns as lanes, then conj(K) on each row). All go through one block
 * driver, allocation-free and div/mod-free in the inner loops, which
 * walks every pass on its calling thread. Parallelism has one policy and
 * lives above the kernels: run_noisy_trials runs trajectory batches on
 * its workers and qd_served runs jobs on its pool, each worker with its
 * own ExecScratch, so passes never nest a second level of threads.
 */
#ifndef QDSIM_EXEC_KERNELS_H
#define QDSIM_EXEC_KERNELS_H

#include <cstdint>
#include <span>
#include <vector>

#include "qdsim/exec/apply_plan.h"
#include "qdsim/gate.h"
#include "qdsim/obs/counters.h"
#include "qdsim/state_vector.h"

namespace qd::exec {

/** Which specialized kernel a compiled operation runs on. */
enum class KernelKind : std::uint8_t {
    kPermutation,
    kDiagonal,
    kMonomial,
    kSingleWireD2,
    kSingleWireD3,
    kControlled,
    kDense,
};

/** Human-readable kernel name (bench/test logging). */
const char* kernel_name(KernelKind kind);

/** Reusable buffer, one per executing thread, grown on demand: `tmp`
 *  gathers operand blocks for the matvec kernels (outputs store straight
 *  back to the state, so there is no scatter buffer) or holds one lane
 *  row during permutation cycle walks; `lane_table` holds the per-lane
 *  operator table of a pass over a phase-framed batch (batched_kernels.h);
 *  the support_* buffers hold a pass over a tracked batch: the block
 *  bases it walks, the offsets it flags, which local ordinals it reads,
 *  and one all-zero byte per index that deduplicates the bases.
 *  Kernels never allocate once the scratch has grown to the largest block
 *  they have run. */
struct ExecScratch {
    std::vector<Complex> tmp;
    std::vector<Complex> lane_table;
    std::vector<Index> support_bases;
    std::vector<Index> support_marks;
    std::vector<std::uint8_t> support_reads;
    std::vector<std::uint8_t> support_seen;
};

/**
 * One operation compiled against a fixed register: the chosen kernel plus
 * the precomputed data it consumes. Immutable after compile_op; safe to
 * share across threads (each thread brings its own ExecScratch).
 */
struct CompiledOp {
    KernelKind kind = KernelKind::kDense;
    /** Original gate; keeps the matrix payload alive for kDense. */
    Gate gate;
    std::vector<int> wires;
    /** Offset tables; null for the single-wire unrolled kernels. */
    std::shared_ptr<const ApplyPlan> plan;

    /** Indices of the circuit operations this compiled op realises, in
     *  application order. One entry for a plain compilation; several when
     *  the fusion stage merged adjacent operations into this block. */
    std::vector<std::uint32_t> source_ops;

    // kPermutation / kMonomial: concatenated non-trivial cycles of local
    // offsets (already composed with the plan's local_offset table). For
    // kMonomial, cycle_phases aligns with cycle_offsets: the value moving
    // from cycle slot i to slot i+1 is scaled by cycle_phases[i], and
    // length-1 cycles are fixed points with a non-unit phase.
    std::vector<Index> cycle_offsets;
    std::vector<Complex> cycle_phases;
    std::vector<std::uint32_t> cycle_lengths;

    // kDiagonal: the matrix diagonal, local-block order.
    std::vector<Complex> diag;

    // kSingleWireD2 / kSingleWireD3: row-major unitary entries and the
    // wire's run geometry (see StateVector::apply_diag1 for the layout).
    Complex u[9] = {};
    Index stride1 = 0;
    Index period1 = 0;

    // kControlled: fixed offset selecting the active control digits, the
    // target-block offsets relative to base + ctrl_offset, and the inner
    // dense operator.
    Index ctrl_offset = 0;
    std::vector<Index> inner_offset;
    Matrix inner;
};

/**
 * Generalized-permutation scan: perm[c] = r and phase[c] = op(r, c) if
 * every column and every row of `op` has exactly one entry above kTol.
 * Covers all X^j Z^k depolarizing terms and phase∘permutation fusion
 * products; returns false for anything else (e.g. non-invertible Kraus
 * jumps), which falls through to the dense kernels.
 */
bool monomial_action(const Matrix& op, std::vector<Index>& perm,
                     std::vector<Complex>& phase);

/**
 * Compiles one (gate, wires) application site against `dims`, choosing the
 * kernel from the gate's cached structure. `cache` (optional) shares
 * ApplyPlans between operations on the same wires.
 *
 * @throws std::invalid_argument on wire/dimension mismatches (same
 *         contract as Circuit::append / StateVector::apply).
 */
CompiledOp compile_op(const WireDims& dims, const Gate& gate,
                      std::span<const int> wires, PlanCache* cache = nullptr);

/** Executes a compiled operation in place: the batched kernel bodies at a
 *  compile-time lane count of 1 (defined in batched_kernels.cc). `psi`
 *  must be over the dims the op was compiled for. */
void apply_op(const CompiledOp& op, StateVector& psi, ExecScratch& scratch);

/** Dispatch counter for one application of `kind`: the single-shot
 *  counter, or the batched counter when `batched` (advanced by the
 *  lane count there). The d=2/d=3 unrolled kernels share one
 *  "single_wire" class. */
obs::Counter kernel_counter(KernelKind kind, bool batched) noexcept;

/** Rough work estimate for one application of `op` that walks `total`
 *  amplitudes (the register, or a tracked batch's occupied blocks), in
 *  real flops (a complex multiply-add counted as 8). Pure index moves
 *  (permutations) count 0. */
std::uint64_t op_flop_estimate(const CompiledOp& op, Index total) noexcept;

}  // namespace qd::exec

#endif  // QDSIM_EXEC_KERNELS_H
