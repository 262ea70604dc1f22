/**
 * @file batched_kernels.h
 * Batched variants of the specialized gate-application kernels.
 *
 * `apply_op_batched` executes one CompiledOp over every lane of a
 * BatchedStateVector in a single pass: the plan's offset tables and the
 * gate payload are read once per amplitude block instead of once per shot,
 * and the per-amplitude work runs over the B contiguous lanes with
 * `QD_SIMD` inner loops. Outer blocks go parallel via OpenMP on large
 * registers.
 *
 * The kernel bodies are the ones single-shot `apply_op` runs (kernels.h):
 * one template per kernel class over the lane count, instantiated at a
 * compile-time 1 for a StateVector and at the runtime batch width here.
 * The floating-point operations of an amplitude do not depend on the lane
 * count, so lane b of a batched pass is bitwise identical to an unbatched
 * apply_op on the same state (property-tested in
 * tests/qdsim/test_batched.cc). That is what lets the trajectory engine
 * mix batched passes with per-lane single-shot fallbacks for divergent
 * events.
 *
 * A batch that carries a damping frame (BatchedStateVector::frame:
 * lane b's state is f (.) x_b with one real factor per amplitude shared
 * by every lane) runs the same bodies with the frame threaded through:
 * permutation and monomial kernels move f along their cycles, diagonal
 * kernels leave it alone, and the single-wire, controlled and dense
 * kernels multiply the amplitudes they gather by f and reset those
 * entries to 1. f depends on the circuit alone, so lanes stay bitwise
 * independent of the batch width, and a framed pass followed by
 * fold_frame() equals fold_frame() followed by the plain pass to
 * rounding (property-tested). The trajectory engine's no-jump damping
 * then costs one pass over f per moment instead of a sweep of the batch.
 *
 * A batch that carries a phase frame (BatchedStateVector::phase_frame:
 * lane b's state is P_b (f (.) x_b), P_b a product of per-wire phase
 * diagonals) runs P_S^dagger U P_S on the op's wires S from per-lane
 * tables built once per call, before any OpenMP region: diagonal ops
 * are unchanged, cycle moves take a per-lane ratio ph(src) / ph(dst),
 * and single-wire, controlled and dense ops multiply by per-lane block
 * matrices. A phased pass followed by fold_phase_frame() equals the fold
 * followed by the plain pass to rounding, and lanes stay bitwise
 * independent of the batch width (property-tested). Coherent dephasing
 * then costs the trajectory engine no sweep of the batch.
 *
 * A tracked batch (BatchedStateVector::tracked: an occupancy set over
 * the basis indices) runs the same bodies over a third block source
 * beside the plan and wire walks: only the outer blocks holding an
 * occupied index the kernel reads (for a controlled op, one in its
 * active-control block; for a permutation, one on a cycle). After each
 * block the walk flags the amplitudes the kernel wrote that are nonzero
 * in some lane and clears the rest, so the set stays a superset of the
 * nonzeros, and QD_VERIFY=strict checks that after every pass. A skipped
 * block holds exact zeros, which every kernel maps to zeros, so lanes are
 * bitwise the dense walk's up to the sign of zeros; frame entries in
 * skipped blocks are left alone. The work measure of that walk's OpenMP
 * threshold is its amplitude slots (amplitudes times lanes), not the
 * register size, and obs::Counter::kBatWalkedSlots and kEstimatedFlops
 * count the amplitudes a pass walks. A dense batch takes the plan and
 * wire walks after one branch.
 *
 * `conjugate_op` runs the exact density-matrix engine on the same bodies:
 * a row-major D x D rho is a lane-interleaved batch of D lanes, so
 * rho -> K rho is one batched pass, and rho -> rho K^dagger is one
 * single-shot pass of conj(K) per row. There is no second kernel set and
 * no OpenMP region outside run_blocks.
 */
#ifndef QDSIM_EXEC_BATCHED_KERNELS_H
#define QDSIM_EXEC_BATCHED_KERNELS_H

#include "qdsim/exec/batched_state.h"
#include "qdsim/exec/compiled_circuit.h"
#include "qdsim/exec/kernels.h"

namespace qd::exec {

/** Former name of the per-thread scratch; batched and single-shot passes
 *  share ExecScratch. */
using BatchedScratch = ExecScratch;

/** Executes a compiled operation on every lane in place, carrying the
 *  batch's damping frame when it has one. `psi` must be over the dims
 *  the op was compiled for. */
void apply_op_batched(const CompiledOp& op, BatchedStateVector& psi,
                      ExecScratch& scratch);

/**
 * rho -> K rho K^dagger in place. `k` is K and `k_conj` its elementwise
 * conjugate, both compiled (compile_op) over the register rho is the
 * density matrix of; rho is D x D, row-major, and need not be Hermitian.
 * Counts one batched dispatch of `k` over D lanes and D single-shot
 * applications of `k_conj`.
 * @throws std::invalid_argument if rho is not D x D for the op's register.
 */
void conjugate_op(const CompiledOp& k, const CompiledOp& k_conj,
                  Matrix& rho, ExecScratch& scratch);

/** Applies all operations of a compiled circuit to every lane in order. */
void run_batched(const CompiledCircuit& compiled, BatchedStateVector& psi,
                 ExecScratch& scratch);

}  // namespace qd::exec

#endif  // QDSIM_EXEC_BATCHED_KERNELS_H
