/**
 * @file superop.h
 * Compiled superoperator application: k-local operators on density
 * matrices via the same ApplyPlan offset tables the state-vector kernels
 * use.
 *
 * A k-local operator K (block size b) acts on a D x D density matrix as
 * rho -> K rho K^dagger. Expanding K to the full register and multiplying
 * costs O(D^3) per operator; instead, the row index and the column index
 * of rho each decompose into `outer = D / b` disjoint blocks exactly like
 * a state vector does, so the conjugation runs as two strided block
 * passes — K on the row index, K^dagger on the column index — at
 * O(D^2 * b) with zero per-entry index arithmetic (the plan's offset
 * tables are shared with the state-vector engine via PlanCache).
 *
 * Structured operators route to cheaper kernels, mirroring the
 * state-vector kernel classes:
 *  - kDiagonal: the expanded diagonal is tabulated once; conjugation is a
 *    single fused O(D^2) pass rho(r,c) *= d[r] * conj(d[c]). Covers phase
 *    gates and the amplitude-damping no-jump operator.
 *  - kMonomial: generalized permutations (exactly one nonzero per row and
 *    column — every X^j Z^k depolarizing term): rows/columns move along
 *    precomputed cycles with a phase multiply, O(D^2) data movement.
 *  - kControlled: identity except on one control subspace; only the
 *    active rows/columns get the inner dense operator, O(D^2 * t) with
 *    t the target block.
 *  - kDense: generic gather/multiply/scatter block passes, O(D^2 * b).
 */
#ifndef QDSIM_EXEC_SUPEROP_H
#define QDSIM_EXEC_SUPEROP_H

#include <cstdint>
#include <span>
#include <vector>

#include "qdsim/exec/apply_plan.h"
#include "qdsim/exec/kernels.h"
#include "qdsim/gate.h"
#include "qdsim/matrix.h"

namespace qd::exec {

/** Which specialized superoperator kernel a compiled operator runs on. */
enum class SuperOpKind : std::uint8_t {
    kDiagonal,
    kMonomial,
    kControlled,
    kDense,
};

/** Human-readable kernel name (bench/test logging). */
const char* superop_kernel_name(SuperOpKind kind);

/**
 * One k-local operator compiled for density-matrix application against a
 * fixed register. Immutable after compile_superop; safe to share across
 * threads (each thread brings its own ExecScratch).
 */
struct CompiledSuperOp {
    SuperOpKind kind = SuperOpKind::kDense;
    /** Full register dimension D (rho is D x D, row-major). */
    Index dim = 0;
    /** Offset tables over the operand wires; shared with the state-vector
     *  engine when compiled through a PlanCache. */
    std::shared_ptr<const ApplyPlan> plan;

    // kDense: the local b x b operator (wires[0] most significant).
    Matrix block;

    // kDiagonal: the operator's diagonal expanded to the full register,
    // length D (entry r is the scale of row/column r).
    std::vector<Complex> full_diag;

    // kMonomial: concatenated cycles of local offsets (already composed
    // with the plan's local_offset table) and, aligned with them, the
    // multiplier picked up when a value moves from cycle slot i to slot
    // i+1. Length-1 cycles are fixed points with a non-unit phase.
    std::vector<Index> cycle_offsets;
    std::vector<Complex> cycle_phases;
    std::vector<std::uint32_t> cycle_lengths;

    // kControlled: fixed offset selecting the active control digits, the
    // target-block offsets relative to base + ctrl_offset, and the inner
    // dense operator.
    Index ctrl_offset = 0;
    std::vector<Index> inner_offset;
    Matrix inner;
};

/**
 * Compiles a k-local operator (not necessarily unitary — Kraus operators
 * welcome) for density-matrix application. The operator matrix is
 * `block x block` over `wires` with wires[0] the most significant digit,
 * the same convention as Gate and StateVector::apply. `cache` (optional)
 * shares ApplyPlans with other operators on the same wires; `plan_salt`
 * distinguishes plan variants in the cache (fused groups are keyed by
 * the fusion cap — see PlanCache).
 *
 * @throws std::invalid_argument on size/wire mismatches.
 */
CompiledSuperOp compile_superop(const WireDims& dims, const Matrix& op,
                                std::span<const int> wires,
                                PlanCache* cache = nullptr,
                                Index plan_salt = 0);

/** Gate overload: reuses the gate's cached structure (notably the
 *  controlled-subspace split, which plain matrix inspection skips). */
CompiledSuperOp compile_superop(const WireDims& dims, const Gate& gate,
                                std::span<const int> wires,
                                PlanCache* cache = nullptr,
                                Index plan_salt = 0);

/** A -> K_full A: applies the compiled operator to the row index of the
 *  row-major D x D matrix at `a`. */
void superop_apply_left(const CompiledSuperOp& op, Complex* a,
                        ExecScratch& scratch);

/** A -> A K_full^dagger: applies the operator's adjoint to the column
 *  index of the row-major D x D matrix at `a`. */
void superop_apply_right_adjoint(const CompiledSuperOp& op, Complex* a,
                                 ExecScratch& scratch);

/** rho -> K rho K^dagger in place (fused single pass for kDiagonal).
 *  `rho` must be D x D over the dims the operator was compiled for. */
void superop_conjugate(const CompiledSuperOp& op, Matrix& rho,
                       ExecScratch& scratch);

}  // namespace qd::exec

#endif  // QDSIM_EXEC_SUPEROP_H
