/**
 * @file batched_kernels.h
 * Batched variants of the specialized gate-application kernels.
 *
 * `apply_op_batched` executes one CompiledOp over every lane of a
 * BatchedStateVector in a single pass: the plan's offset tables and the
 * gate payload are read once per amplitude block instead of once per shot,
 * and the per-amplitude work runs over the B contiguous lanes with
 * `QD_SIMD` inner loops, on the calling thread (kernels.h: parallelism
 * comes from trajectory batches and daemon jobs, not from a pass).
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
 * A batch that carries a frame (BatchedStateVector::frame: lane b's
 * state is c (.) x_b with one complex factor per amplitude shared by
 * every lane) runs a diagonal op on the frame alone: c *= diag, one
 * one-lane pass through the diagonal body, the stored lanes bitwise
 * untouched. The other bodies thread c through: permutation and monomial
 * kernels move c along their cycles (a monomial's phases stay in the
 * lanes), and the single-wire, controlled and dense kernels multiply the
 * amplitudes they gather by c and reset those entries to 1. c depends on
 * the circuit alone, so lanes stay bitwise independent of the batch
 * width, and a framed pass followed by fold_frame() equals fold_frame()
 * followed by the plain pass to rounding (property-tested). The
 * trajectory engine's T gates and no-jump damping then cost a pass over
 * c instead of a sweep of the batch. A framed diagonal counts one lane's
 * walked slots (obs::Counter::kBatWalkedSlots) and its class counter
 * still advances by the lane count. Under QD_VERIFY=strict every op on a
 * framed batch is followed by BatchedStateVector::check_frame.
 *
 * A batch that carries a phase frame (BatchedStateVector::phase_frame:
 * lane b's state is P_b (c (.) x_b), P_b a product of per-wire phase
 * diagonals) runs P_S^dagger U P_S on the op's wires S from per-lane
 * tables built once per call, before the pass: diagonal ops
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
 * skipped blocks are left alone. obs::Counter::kBatWalkedSlots and
 * kEstimatedFlops count the amplitudes a pass walks. A dense batch takes the plan and
 * wire walks after one branch.
 *
 * `conjugate_op` runs the exact density-matrix engine on the same bodies:
 * a row-major D x D rho is a lane-interleaved batch of D lanes, so
 * rho -> K rho is one batched pass, and rho -> rho K^dagger is one
 * single-shot pass of conj(K) per row. There is no second kernel set and
 * no second block driver.
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

/** Executes a compiled operation on every lane in place, through the
 *  batch's frames when it has them (a diagonal op on a framed batch
 *  multiplies the frame only). `psi` must be over the dims
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
