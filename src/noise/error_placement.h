/**
 * @file error_placement.h
 * Shared gate-error placement policy for the noise engines.
 *
 * The trajectory engine (trajectory.cc) and the exact density-matrix
 * engine (density_matrix.cc) must attach depolarizing error channels to
 * exactly the same operands with exactly the same probabilities — the
 * convergence tests compare the two. This module is the single source of
 * truth for that placement: one-qudit gates get one single-qudit channel,
 * two-qudit gates one two-qudit channel, and wider (undecomposed) gates a
 * conservative independent two-qudit channel per adjacent operand pair.
 */
#ifndef NOISE_ERROR_PLACEMENT_H
#define NOISE_ERROR_PLACEMENT_H

#include <cstdint>
#include <vector>

#include "noise/noise_model.h"
#include "qdsim/circuit.h"
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
 * keeps its pre-fusion attachment point. Single source of truth for the
 * trajectory AND density engines — both must fence identically for their
 * convergence comparisons to stay valid.
 */
std::vector<std::uint8_t> error_fences(
    const std::vector<std::vector<ErrorSite>>& sites);

/** The op order and fusion fences a noisy circuit compiles under. */
struct NoisyLayout {
    /** True: ASAP-moment order with a fence after each moment's last op.
     *  False: circuit order with error_fences. */
    bool by_moment = false;
    /** The ASAP schedule over circuit ops (by_moment only). */
    std::vector<Moment> moments;
    /** Layout position -> circuit op (by_moment only; empty keeps circuit
     *  order). */
    std::vector<std::uint32_t> order;
    /** fence_after per layout position. */
    std::vector<std::uint8_t> fences;
};

/**
 * The layout the noise engines compile a noisy circuit in: under idle
 * noise (damping or dephasing) or with fusion off, ASAP-moment order
 * fenced after every moment, so fusion merges only the wire-disjoint ops
 * of one moment; otherwise circuit order fenced by the gate errors
 * (`sites`, from enumerate_error_sites). Single source of truth for the
 * trajectory and density compiles (the density engine runs a by-moment
 * layout one op at a time) and CompileService admission, so the audited
 * partition is the compiled one.
 */
NoisyLayout noisy_layout(const Circuit& circuit, const NoiseModel& model,
                         const std::vector<std::vector<ErrorSite>>& sites,
                         bool fusion_enabled);

}  // namespace qd::noise

#endif  // NOISE_ERROR_PLACEMENT_H
