/**
 * @file batched_state.h
 * B-way batched state vector for Monte-Carlo trajectory sweeps.
 *
 * Stores B independent shots ("lanes") of the same register interleaved in
 * amplitude-major layout: amplitude `idx` of lane `b` lives at
 * `amps[b + B*idx]`, so the B lanes of one amplitude are contiguous and the
 * per-amplitude work of a kernel vectorises across lanes with
 * `#pragma omp simd`. One pass of a compiled circuit over a
 * BatchedStateVector advances B trajectories while reading every apply-plan
 * offset table once instead of B times (cf. the batched Monte-Carlo runs of
 * superconducting-qutrit noise studies, arXiv:2305.16507).
 *
 * Every per-lane primitive replicates the arithmetic of its StateVector
 * counterpart operation-for-operation, in the same order, so a lane's
 * amplitudes stay BITWISE identical to an unbatched shot run with the same
 * RNG stream — results are independent of the batch width and of thread
 * scheduling.
 *
 * Every pass walks the batch once, front to back: the lane reductions
 * (norms, fidelities) keep all lanes' accumulators live across one sweep
 * instead of re-walking the batch per lane tile.
 *
 * Damping frame: the trajectory engine's no-jump damping is a real
 * diagonal that depends on the circuit alone, so it is kept out of the
 * lanes in one factor per amplitude shared by every lane, f[idx]: while a
 * frame is set, lane b's state is f (.) x_b, with x_b the stored
 * amplitudes. A damped moment then costs `scale_frame` (one pass over f,
 * 1/(2B) of the batch) instead of a sweep over the batch; the gate
 * kernels carry f (batched_kernels.h); normalisation is deferred to the
 * final fidelity. scale_by_table_lanes, norm_sq_lanes, normalize_lanes
 * and populations_lanes need a batch without a damping frame.
 *
 * Phase frame: coherent idle dephasing is a per-lane diagonal that
 * factors over the wires, P_b = (x)_w diag(e^{i m Theta[w][b]}) over the
 * wire's levels m, so it is kept out of the lanes as n x B accumulated
 * angles: while a phase frame is set, lane b's state is P_b (f (.) x_b).
 * A dephased moment only adds its angles to Theta (phase_frame()); the
 * gate kernels run P_S^dagger U P_S on the wires S they act on
 * (batched_kernels.h), so the phase costs arithmetic on the amplitudes a
 * kernel already touches and never a sweep of the batch. P is applied
 * once per batch, inside the fidelity sweep; fold_phase_frame folds it
 * into the lanes with apply_product_diag_lanes.
 *
 * Both frames are diagonal, so every diagonal pass (apply_diag1_masked,
 * apply_product_diag_lanes, the damping frame's passes) commutes with
 * them and runs on the stored amplitudes, and P leaves norms and
 * populations alone. The lane accessors and the fidelity (set_lane,
 * extract_lane, lane_state, fidelity_lanes) work on the true state
 * P_b (f (.) x_b).
 *
 * Divergent per-lane events (damping jumps, gate-error draws) are handled
 * by extracting the lane to a StateVector, running the existing
 * single-shot code, and writing the lane back.
 */
#ifndef QDSIM_EXEC_BATCHED_STATE_H
#define QDSIM_EXEC_BATCHED_STATE_H

#include <cstdint>
#include <vector>

#include "qdsim/basis.h"
#include "qdsim/state_vector.h"

namespace qd::exec {

/** B trajectory states over one register, lane-interleaved. */
class BatchedStateVector {
  public:
    /** All lanes initialised to |00...0>. `lanes` must be >= 1. With
     *  `frame_room`, the buffer is sized for a later start_frame() (which
     *  then allocates nothing); a copy taken before the frame starts does
     *  not carry the room. */
    BatchedStateVector(WireDims dims, int lanes, bool frame_room = false);

    const WireDims& dims() const { return dims_; }
    int lanes() const { return lanes_; }
    /** Amplitudes per lane (the register size, not the storage size). */
    Index size() const { return dims_.size(); }

    Complex* data() { return amps_.data(); }
    const Complex* data() const { return amps_.data(); }

    /** Amplitude `idx` of lane `lane`. */
    Complex& at(Index idx, int lane) {
        return amps_[static_cast<std::size_t>(idx) *
                         static_cast<std::size_t>(lanes_) +
                     static_cast<std::size_t>(lane)];
    }
    const Complex& at(Index idx, int lane) const {
        return amps_[static_cast<std::size_t>(idx) *
                         static_cast<std::size_t>(lanes_) +
                     static_cast<std::size_t>(lane)];
    }

    /** Overwrites one lane with `src` (dims must match); under the
     *  frames the stored amplitudes are P^dagger src / f. */
    void set_lane(int lane, const StateVector& src);

    /** Copies one lane into `dst` (dims must match); under the frames,
     *  P (f (.) x_lane). */
    void extract_lane(int lane, StateVector& dst) const;

    /** Starts a damping frame of all ones (no-op on the lanes' states).
     *  The frame lives in the batch's own buffer, after the lanes. */
    void start_frame();

    /** The frame, one factor per amplitude; null when none is set. */
    Real* frame() {
        return framed_ ? reinterpret_cast<Real*>(amps_.data() + lane_amps())
                       : nullptr;
    }
    const Real* frame() const {
        return framed_ ? reinterpret_cast<const Real*>(amps_.data() +
                                                       lane_amps())
                       : nullptr;
    }

    /** f[idx] *= scale[key[idx]] (every lane's state takes the real
     *  diagonal scale[key[.]]). Requires a frame; key.size() must equal
     *  size(). */
    void scale_frame(const std::vector<std::uint16_t>& key,
                     const std::vector<Real>& scale);

    /** Multiplies the frame into every lane and resets it to ones. */
    void fold_frame();

    /**
     * One read sweep giving, per lane, the squared norm of the state and
     * of the state after a scale_frame(key, scale) still to come:
     * norm_sq[b] = sum (f|x_b|)^2, scaled[b] = sum (f s|x_b|)^2, both in
     * amplitude-index order. Requires a frame.
     */
    void damped_norm_sq_lanes(const std::vector<std::uint16_t>& key,
                              const std::vector<Real>& scale,
                              std::vector<Real>& norm_sq,
                              std::vector<Real>& scaled) const;

    /** Starts a phase frame of zero angles (a no-op on the lanes'
     *  states). */
    void start_phase_frame();

    /** The phase frame's angles, theta[wire * lanes() + lane]; null when
     *  none is set. */
    Real* phase_frame() { return phased_ ? theta_.data() : nullptr; }
    const Real* phase_frame() const {
        return phased_ ? theta_.data() : nullptr;
    }

    /** Multiplies P into every lane (apply_product_diag_lanes) and resets
     *  the angles to zero. */
    void fold_phase_frame();

    /** Materialises one lane as a standalone StateVector. */
    StateVector lane_state(int lane) const;

    /**
     * amps[idx] *= scale[key[idx]] on every lane in one read+write sweep;
     * returns the per-lane squared norms (same accumulation order as
     * StateVector::scale_by_table, so the values match an unbatched shot
     * bitwise). key.size() must equal size().
     */
    std::vector<Real> scale_by_table_lanes(
        const std::vector<std::uint16_t>& key,
        const std::vector<Real>& scale);

    /** Per-lane squared norms, accumulated in amplitude-index order.
     *  Needs a batch without a frame (fidelity_lanes gives a framed
     *  batch's norms). */
    std::vector<Real> norm_sq_lanes() const;

    /**
     * Normalises the lanes selected by `mask` (empty mask = every lane).
     * Returns one flag per lane: false iff the lane was selected and its
     * norm was zero or non-finite (such lanes are left untouched, matching
     * StateVector::normalize); deselected lanes report true. Needs a
     * batch without a frame.
     */
    std::vector<std::uint8_t> normalize_lanes(
        const std::vector<std::uint8_t>& mask = {});

    /** Per-lane per-level populations of `wire`, laid out as
     *  pops[level * lanes() + lane]; matches StateVector::populations
     *  bitwise per lane. */
    std::vector<Real> populations_lanes(int wire) const;

    /** Applies a single-wire diagonal to the lanes selected by `mask`
     *  (empty = all), skipping unit factors exactly like
     *  StateVector::apply_diag1. Used for the batched no-jump K0. */
    void apply_diag1_masked(const std::vector<Complex>& diag, int wire,
                            const std::vector<std::uint8_t>& mask = {});

    /**
     * Per-lane product-of-per-wire-diagonals pass (the phase frame's
     * fold): factors[lane][wire] has dim(wire) unit-modulus entries. The (wire, level, lane) step ratios (diag_step_ratio) are
     * computed once per call; then one incremental odometer drives every
     * lane in a single read+write sweep; each lane's running factor takes
     * one step-ratio multiply per digit step (per lane, bitwise the
     * single-shot odometer in tests/qdsim/product_diag_reference.h).
     */
    void apply_product_diag_lanes(
        const std::vector<std::vector<std::vector<Complex>>>& factors);

    /** Per-lane squared overlap |<this_b|other_b>|^2 (pure-state fidelity),
     *  lane b against lane b; `other` must have no frame of either kind.
     *  Registers and lane counts must match. With `norm_sq` (damping-framed
     *  batches only), the same sweep also stores each lane's squared norm
     *  there. A phase frame is applied in the same sweep. */
    std::vector<Real> fidelity_lanes(const BatchedStateVector& other,
                                     std::vector<Real>* norm_sq =
                                         nullptr) const;

  private:
    /** Writes lane `lane` (under its frames, if any) to d[0..size()). */
    void copy_lane_out(int lane, Complex* d) const;

    /** Lane `lane`'s phase-frame factors of `wire`: e^{i m Theta}, one per
     *  level m. */
    std::vector<Complex> phase_factors(int lane, int wire) const;

    /** Complex slots of the lanes; a frame's reals follow them. */
    std::size_t lane_amps() const {
        return static_cast<std::size_t>(dims_.size()) *
               static_cast<std::size_t>(lanes_);
    }

    WireDims dims_;
    int lanes_ = 1;
    /** The lanes, then (while framed_) the frame: one allocation, so a
     *  frame is freed with its batch instead of being parked by the
     *  allocator between batches. */
    std::vector<Complex> amps_;
    bool framed_ = false;
    /** The phase frame's n x B angles (while phased_). */
    std::vector<Real> theta_;
    bool phased_ = false;
};

}  // namespace qd::exec

#endif  // QDSIM_EXEC_BATCHED_STATE_H
