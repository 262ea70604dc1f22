/**
 * @file error_placement.h
 * Shared gate-error placement and the one noisy compilation both noise
 * engines run.
 *
 * The trajectory engine (trajectory.cc) and the exact density-matrix
 * engine (density_matrix.cc) must attach depolarizing error channels to
 * exactly the same operands with exactly the same probabilities, and run
 * exactly the same fused partition — the convergence tests compare the
 * two. enumerate_error_sites is the single source of truth for the
 * placement: one-qudit gates get one single-qudit channel, two-qudit
 * gates one two-qudit channel, and wider (undecomposed) gates a
 * conservative independent two-qudit channel per adjacent operand pair.
 * compile_noisy is the single source of truth for the partition: both
 * engines build from the NoisyProgram it returns, and CompileService
 * admission audits that same program before an engine takes it.
 */
#ifndef NOISE_ERROR_PLACEMENT_H
#define NOISE_ERROR_PLACEMENT_H

#include <cstdint>
#include <vector>

#include "noise/noise_model.h"
#include "qdsim/circuit.h"
#include "qdsim/exec/compiled_circuit.h"
#include "qdsim/moments.h"

namespace qd::noise {

/** One depolarizing channel attached to a gate application site. */
struct ErrorSite {
    /** Register wires the channel acts on (1 or 2 of them). */
    std::vector<int> wires;
    /** Dimensions of those wires (operand order). */
    std::vector<int> dims;
    /** Per-channel probability (feed to depolarizing1/depolarizing2). */
    Real per_channel = 0;
};

/**
 * Enumerates the error channels each operation draws under `model`.
 * Entry i lists the sites of circuit.ops()[i] (empty when the model's
 * corresponding gate-error probability is zero).
 */
std::vector<std::vector<ErrorSite>> enumerate_error_sites(
    const Circuit& circuit, const NoiseModel& model);

/**
 * Fusion fences derived from the error placement: entry i is non-zero
 * iff operation i draws at least one channel, so the compile-time fusion
 * stage (exec/fusion.h) pins that op's trailing boundary and the channel
 * keeps its pre-fusion attachment point.
 */
std::vector<std::uint8_t> error_fences(
    const std::vector<std::vector<ErrorSite>>& sites);

/**
 * A noisy circuit compiled once, as both noise engines run it. Under
 * idle noise (damping or dephasing) or with fusion off, the ops are laid
 * out in ASAP-moment order with a fence after each moment's last op, so
 * fusion merges only the wire-disjoint ops of one moment into a moment
 * kernel; otherwise they stay in circuit order, fenced by the gate
 * errors, so every channel keeps its pre-fusion attachment point.
 */
struct NoisyProgram {
    /** Plans of `compiled`, shared with whatever the engine compiles next
     *  (ideal reference, error operators, channels). */
    exec::PlanCache cache;
    /** The noisy compilation of the laid-out ops; its source_ops index
     *  layout positions. Fused blocks still hold their gates, which the
     *  fusion audit and the density engine's conj(K) read. */
    exec::CompiledCircuit compiled;
    /** Schedule over compiled-op indices: the ASAP moments of a by-moment
     *  layout, else one moment holding every compiled op. */
    std::vector<Moment> moments;
    /** Layout position -> circuit op; empty keeps circuit order. */
    std::vector<std::uint32_t> order;
    /** fence_after per layout position, as compiled. */
    std::vector<std::uint8_t> fences;
    /** Per compiled op: the error sites of its source ops, in op order
     *  (a member's gate errors commute with the other members of its
     *  moment kernel, so they apply after it). */
    std::vector<std::vector<ErrorSite>> sites;
};

/** Compiles `circuit` under `model`'s noise layout (see NoisyProgram). */
NoisyProgram compile_noisy(const Circuit& circuit, const NoiseModel& model,
                           const exec::FusionOptions& fusion);

}  // namespace qd::noise

#endif  // NOISE_ERROR_PLACEMENT_H
