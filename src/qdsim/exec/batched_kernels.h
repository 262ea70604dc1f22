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
 * `apply_op_batched_damped` is the same pass with the trajectory engine's
 * no-jump damping step as an epilogue: right after the kernel writes an
 * outer block, every amplitude of that block (touched or not) is scaled
 * by its damping-table entry and added into the lane's squared norm, while
 * the block is still in cache — so the damping adds no sweep of its own
 * to a moment. Norms are summed per fixed-size chunk of outer blocks
 * and the chunk partials combined in chunk order: the result depends on
 * the op's block geometry only, never on the OpenMP thread count, and
 * `damp_op_batched` (the epilogue on its own, same walk) reproduces it
 * bitwise after a plain `apply_op_batched`.
 *
 * `conjugate_op` runs the exact density-matrix engine on the same bodies:
 * a row-major D x D rho is a lane-interleaved batch of D lanes, so
 * rho -> K rho is one batched pass, and rho -> rho K^dagger is one
 * single-shot pass of conj(K) per row. There is no second kernel set and
 * no OpenMP region outside run_blocks.
 */
#ifndef QDSIM_EXEC_BATCHED_KERNELS_H
#define QDSIM_EXEC_BATCHED_KERNELS_H

#include <cstdint>
#include <vector>

#include "qdsim/exec/batched_state.h"
#include "qdsim/exec/compiled_circuit.h"
#include "qdsim/exec/kernels.h"

namespace qd::exec {

/** Former name of the per-thread scratch; batched and single-shot passes
 *  share ExecScratch. */
using BatchedScratch = ExecScratch;

/** Executes a compiled operation on every lane in place. `psi` must be
 *  over the dims the op was compiled for. */
void apply_op_batched(const CompiledOp& op, BatchedStateVector& psi,
                      ExecScratch& scratch);

/**
 * apply_op_batched with the no-jump damping epilogue: afterwards every
 * amplitude idx of every lane has been multiplied by scale[key[idx]], and
 * norm_sq[b] holds lane b's squared norm of the result. Each lane is
 * bitwise equal to apply_op_batched followed by damp_op_batched.
 * @throws std::invalid_argument if key.size() != psi.size().
 */
void apply_op_batched_damped(const CompiledOp& op, BatchedStateVector& psi,
                             ExecScratch& scratch,
                             const std::vector<std::uint16_t>& key,
                             const std::vector<Real>& scale,
                             std::vector<Real>& norm_sq);

/** The damping epilogue of apply_op_batched_damped on its own: the same
 *  walk over `op`'s outer blocks, without the gate. */
void damp_op_batched(const CompiledOp& op, BatchedStateVector& psi,
                     ExecScratch& scratch,
                     const std::vector<std::uint16_t>& key,
                     const std::vector<Real>& scale,
                     std::vector<Real>& norm_sq);

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
