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
 * Frame: the trajectory engine's no-jump damping and the circuit's
 * diagonal gates act on every lane alike, so they are kept out of the
 * lanes in one complex factor per amplitude shared by every lane, c[idx]:
 * while a frame is set, lane b's state is c (.) x_b, with x_b the stored
 * amplitudes. A damped moment then costs `scale_frame` (one pass over c,
 * 1/B of the batch) instead of a sweep over the batch, and a diagonal
 * gate multiplies c alone (batched_kernels.h), leaving the lanes as they
 * are; the other gate kernels carry c; normalisation is deferred to the
 * final fidelity. scale_by_table_lanes, norm_sq_lanes, normalize_lanes
 * and populations_lanes need a batch without a frame. Under
 * QD_VERIFY=strict every op on a framed batch is followed by
 * check_frame().
 *
 * Phase frame: coherent idle dephasing is a per-lane diagonal that
 * factors over the wires, P_b = (x)_w diag(e^{i m Theta[w][b]}) over the
 * wire's levels m, so it is kept out of the lanes as n x B accumulated
 * angles: while a phase frame is set, lane b's state is P_b (c (.) x_b).
 * A dephased moment only adds its angles to Theta (phase_frame()); the
 * gate kernels run P_S^dagger U P_S on the wires S they act on
 * (batched_kernels.h), so the phase costs arithmetic on the amplitudes a
 * kernel already touches and never a sweep of the batch. P is applied
 * once per batch, inside the fidelity sweep; fold_phase_frame folds it
 * into the lanes with apply_product_diag_lanes.
 *
 * Both frames are diagonal, so they commute with each other and with
 * every diagonal pass (apply_diag1_masked, apply_product_diag_lanes, the
 * frame's passes), which runs on the stored amplitudes, and P leaves
 * norms and populations alone. The lane accessors and the fidelity
 * (set_lane, extract_lane, lane_state, fidelity_lanes) work on the true
 * state P_b (c (.) x_b).
 *
 * Divergent per-lane events (damping jumps, gate-error draws) are handled
 * by copying the lane into a one-lane batch (extract_lane), running the
 * same kernels and per-lane primitives on it, and writing it back.
 *
 * Support tracking: a batch built with Support::kTracked keeps an
 * occupancy set, one flag per basis index, holding every index that may
 * be nonzero in some lane (the union over lanes; cf. the state-sparsity
 * simulations of Jaques & Haener, arXiv:2105.01533). The paper's qutrit
 * constructions use |2> only as transient storage and Figure 11 draws
 * its inputs from the qubit subspace, so such a trajectory occupies a
 * few percent of the 3^n register. The gate kernels then visit only the
 * outer blocks holding an occupied index (batched_kernels.h) and flag
 * the outputs they write, dropping those that are exactly zero in every
 * lane; set_lane, extract_lane, fidelity_lanes, the frames' passes and
 * the per-lane reductions walk the set in increasing index order (the
 * phase frame's odometer still steps through every index, touching the
 * amplitudes of the occupied ones only). A skipped amplitude is an exact
 * zero, so per lane every pass is bitwise its dense counterpart, except
 * possibly for the sign of a zero. Tracked frame entries at unoccupied
 * indices are neither reset by the kernels nor scaled, so a tracked
 * frame differs from the dense one there, and a set_lane at such an
 * index divides by a factor that depends on the other lanes; the
 * trajectory engine therefore runs tracked batches without a frame. The
 * buffer comes from calloc, so pages no lane ever touches stay
 * unfaulted.
 *
 * A dense batch (the default) walks every index: each pass tests for a
 * support once and then runs its dense loop. Writes through data() or
 * at() to a tracked batch must flag the indices they make nonzero with
 * occupy().
 */
#ifndef QDSIM_EXEC_BATCHED_STATE_H
#define QDSIM_EXEC_BATCHED_STATE_H

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "qdsim/basis.h"
#include "qdsim/state_vector.h"

namespace qd::exec {

/** Which amplitudes the passes over a batch walk. */
enum class Support : std::uint8_t {
    kDense,    ///< every basis index
    kTracked,  ///< the occupancy set (see the file comment)
};

/** B trajectory states over one register, lane-interleaved. */
class BatchedStateVector {
  public:
    /** All lanes initialised to |00...0>. `lanes` must be >= 1. With
     *  `frame_room`, the buffer is sized for a later start_frame() (which
     *  then allocates nothing); a copy taken before the frame starts does
     *  not carry the room. A tracked batch starts with support {0}. */
    BatchedStateVector(WireDims dims, int lanes, bool frame_room = false,
                       Support support = Support::kDense);

    BatchedStateVector(const BatchedStateVector& other);
    BatchedStateVector(BatchedStateVector&& other) noexcept = default;
    BatchedStateVector& operator=(const BatchedStateVector& other);
    BatchedStateVector& operator=(BatchedStateVector&& other) noexcept =
        default;

    const WireDims& dims() const { return dims_; }
    int lanes() const { return lanes_; }
    /** Amplitudes per lane (the register size, not the storage size). */
    Index size() const { return dims_.size(); }

    Complex* data() { return amps_.get(); }
    const Complex* data() const { return amps_.get(); }

    /** Amplitude `idx` of lane `lane`. */
    Complex& at(Index idx, int lane) {
        return amps_.get()[static_cast<std::size_t>(idx) *
                               static_cast<std::size_t>(lanes_) +
                           static_cast<std::size_t>(lane)];
    }
    const Complex& at(Index idx, int lane) const {
        return amps_.get()[static_cast<std::size_t>(idx) *
                               static_cast<std::size_t>(lanes_) +
                           static_cast<std::size_t>(lane)];
    }

    /** True iff the batch keeps an occupancy set. */
    bool tracked() const { return !support_.empty(); }

    /** The occupancy flags, one per basis index (nonzero = may be
     *  nonzero in some lane); null for a dense batch. */
    std::uint8_t* support() {
        return support_.empty() ? nullptr : support_.data();
    }
    const std::uint8_t* support() const {
        return support_.empty() ? nullptr : support_.data();
    }

    /** Flags `idx` as possibly nonzero (after a write through data() or
     *  at()); a no-op on a dense batch. */
    void occupy(Index idx) {
        if (!support_.empty()) {
            support_[static_cast<std::size_t>(idx)] = 1;
        }
    }

    /** Calls visit(idx) for every occupied index in increasing order;
     *  every index of a dense batch. */
    template <class Visit>
    void for_each_occupied(Visit visit) const;

    /** The occupied indices in increasing order; every index for a dense
     *  batch. */
    std::vector<Index> support_indices() const;

    /** The strict-mode check: throws std::logic_error if some lane is
     *  nonzero at an index outside the occupancy set (a no-op on a dense
     *  batch). Reads the whole batch. */
    void check_support() const;

    /** Overwrites one lane with `src` (dims must match); under the
     *  frames the stored amplitudes are P^dagger src / c. A tracked batch
     *  writes the occupied indices and src's nonzeros, and flags the
     *  latter. */
    void set_lane(int lane, const StateVector& src);

    /** Copies one lane into `dst` (dims must match); under the frames,
     *  P (c (.) x_lane). */
    void extract_lane(int lane, StateVector& dst) const;

    /** Copies one lane into lane 0 of `dst`, a one-lane batch over the
     *  same register without frames, tracked iff this batch is; a tracked
     *  `dst` takes this batch's support, and only its occupied rows are
     *  written. The lane's state is the same as extract_lane's. */
    void extract_lane(int lane, BatchedStateVector& dst) const;

    /** Overwrites one lane with lane 0 of `src` (a one-lane batch as for
     *  extract_lane), like set_lane(int, const StateVector&); a tracked
     *  batch writes its occupied indices and src's, and flags the
     *  latter. */
    void set_lane(int lane, const BatchedStateVector& src);

    /** Starts a frame of all ones (no-op on the lanes' states). The
     *  frame lives in the batch's own buffer, after the lanes. */
    void start_frame();

    /** The frame, one complex factor per amplitude; null when none is
     *  set. */
    Complex* frame() {
        return framed_ ? amps_.get() + lane_amps() : nullptr;
    }
    const Complex* frame() const {
        return framed_ ? amps_.get() + lane_amps() : nullptr;
    }

    /** The strict-mode check of a framed batch: throws std::logic_error
     *  if some frame entry is zero or not finite (a no-op without a
     *  frame). Reads the whole frame. */
    void check_frame() const;

    /** c[idx] *= scale[key[idx]] (every lane's state takes the real
     *  diagonal scale[key[.]]), on the occupied indices of a tracked
     *  batch. Requires a frame; key.size() must equal size(). */
    void scale_frame(const std::vector<std::uint16_t>& key,
                     const std::vector<Real>& scale);

    /** Multiplies the frame into every lane and resets it to ones. */
    void fold_frame();

    /** Multiplies the frame into every lane and drops it. */
    void end_frame();

    /**
     * One read sweep giving, per lane, the squared norm of the state and
     * of the state after a scale_frame(key, scale) still to come:
     * norm_sq[b] = sum |c x_b|^2, scaled[b] = sum |(c s) x_b|^2, both in
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
     * bitwise). With `before`, the same sweep stores each lane's squared
     * norm ahead of the scaling there. key.size() must equal size().
     */
    std::vector<Real> scale_by_table_lanes(
        const std::vector<std::uint16_t>& key,
        const std::vector<Real>& scale,
        std::vector<Real>* before = nullptr);

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
     * fold): factors[lane][wire] has dim(wire) unit-modulus entries. On a
     * dense batch the (wire, level, lane) step ratios (diag_step_ratio)
     * are computed once per call; then one incremental odometer drives
     * every lane in a single read+write sweep; each lane's running factor
     * takes one step-ratio multiply per digit step (per lane, bitwise the
     * single-shot odometer in tests/qdsim/product_diag_reference.h). A
     * tracked batch multiplies its occupied rows only.
     */
    void apply_product_diag_lanes(
        const std::vector<std::vector<std::vector<Complex>>>& factors);

    /** Per-lane squared overlap |<this_b|other_b>|^2 (pure-state fidelity),
     *  lane b against lane b, walking this batch's support; `other` must
     *  have no frame of either kind. Registers and lane counts must match.
     *  With `norm_sq`, the same sweep also stores each lane's squared norm
     *  there. A phase frame is applied in the same sweep. */
    std::vector<Real> fidelity_lanes(const BatchedStateVector& other,
                                     std::vector<Real>* norm_sq =
                                         nullptr) const;

  private:
    struct FreeDeleter {
        void operator()(Complex* p) const { std::free(p); }
    };

    /** Allocates `slots` zeroed complexes (pages stay unfaulted until
     *  written). */
    static std::unique_ptr<Complex, FreeDeleter> allocate(std::size_t slots);

    /** Writes lane `lane` (under its frames, if any) to d[0..size()); a
     *  tracked batch writes its occupied indices, and zeros the others
     *  when `zero_fill`. */
    void copy_lane_out(int lane, Complex* d, bool zero_fill = true) const;

    /** Writes src[i] (P^dagger src[i] / c under the frames) to lane
     *  `lane`; a tracked batch writes its occupied indices and those
     *  where present(i), which it flags. */
    template <class Present>
    void store_lane(int lane, const Complex* src, Present present);

    /** Throws unless `other` is a one-lane, frameless batch over this
     *  register, tracked iff this batch is. */
    void check_lane_batch(const BatchedStateVector& other) const;

    /** Lane `lane`'s phase-frame factors of `wire`: e^{i m Theta}, one per
     *  level m. */
    std::vector<Complex> phase_factors(int lane, int wire) const;

    /** Complex slots of the lanes; a frame follows them. */
    std::size_t lane_amps() const {
        return static_cast<std::size_t>(dims_.size()) *
               static_cast<std::size_t>(lanes_);
    }

    WireDims dims_;
    int lanes_ = 1;
    /** The lanes, then (while framed_) the frame: one allocation of
     *  `slots_` complexes, so a frame is freed with its batch instead of
     *  being parked by the allocator between batches. */
    std::unique_ptr<Complex, FreeDeleter> amps_;
    std::size_t slots_ = 0;
    bool framed_ = false;
    /** The occupancy flags of a tracked batch; empty when dense. */
    std::vector<std::uint8_t> support_;
    /** The phase frame's n x B angles (while phased_). */
    std::vector<Real> theta_;
    bool phased_ = false;
};

template <class Visit>
void
BatchedStateVector::for_each_occupied(Visit visit) const
{
    const Index n = dims_.size();
    if (support_.empty()) {
        for (Index i = 0; i < n; ++i) {
            visit(i);
        }
        return;
    }
    // Eight flags per word: the empty words of a sparse set cost one
    // load each.
    const std::uint8_t* f = support_.data();
    Index i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t w;
        std::memcpy(&w, f + i, sizeof w);
        while (w != 0) {
            const int byte = __builtin_ctzll(w) / 8;
            visit(i + static_cast<Index>(byte));
            w &= ~(std::uint64_t{0xff} << (8 * byte));
        }
    }
    for (; i < n; ++i) {
        if (f[i] != 0) {
            visit(i);
        }
    }
}

}  // namespace qd::exec

#endif  // QDSIM_EXEC_BATCHED_STATE_H
