/**
 * @file state_vector.h
 * Dense mixed-radix state vector with Einstein-summation-style k-local
 * operator application.
 *
 * This is the workhorse of the simulator (paper Section 6.2): gates are
 * applied by gathering/scattering the d^k amplitudes of each operand block,
 * never materialising the d^N x d^N circuit matrix. Memory and time per gate
 * are O(d^N * d^k).
 */
#ifndef QDSIM_STATE_VECTOR_H
#define QDSIM_STATE_VECTOR_H

#include <span>
#include <vector>

#include "qdsim/basis.h"
#include "qdsim/matrix.h"

namespace qd {

/**
 * State vector over a mixed-radix register.
 *
 * Amplitudes are stored densely indexed per WireDims. Supports application
 * of arbitrary (not necessarily unitary) k-local operators, which the noise
 * engine uses for Kraus jump operators followed by renormalisation.
 */
class StateVector {
  public:
    /** Initialises to |00...0>. */
    explicit StateVector(WireDims dims);

    /** Initialises to the classical basis state given by `digits`. */
    StateVector(WireDims dims, const std::vector<int>& digits);

    /**
     * Adopts an explicit amplitude vector (not renormalised). Used by the
     * batched execution engine to materialise one lane of a
     * exec::BatchedStateVector as a standalone state. (A named factory, not
     * a constructor: a braced list of ints must keep selecting the
     * basis-state constructor above.)
     * @throws std::invalid_argument if amps.size() != dims.size().
     */
    static StateVector from_amplitudes(WireDims dims,
                                       std::vector<Complex> amps);

    const WireDims& dims() const { return dims_; }
    Index size() const { return dims_.size(); }

    Complex& operator[](Index i) { return amps_[i]; }
    const Complex& operator[](Index i) const { return amps_[i]; }
    const std::vector<Complex>& amplitudes() const { return amps_; }
    std::vector<Complex>& amplitudes() { return amps_; }

    /**
     * Applies a k-local operator to the given wires.
     *
     * @param op    A (prod dims of wires) square matrix in the basis ordered
     *              with wires[0] as the most significant digit.
     * @param wires Distinct wire indices the operator acts on.
     * @throws std::invalid_argument if the operator size does not match the
     *         operand dims, or if wires are out of range or not distinct
     *         (a duplicate wire would silently corrupt the state).
     */
    void apply(const Matrix& op, std::span<const int> wires);

    /** Applies a diagonal single-wire operator (fast path for no-jump
     *  evolution and phase noise). `diag` has dim(wire) entries. */
    void apply_diag1(const std::vector<Complex>& diag, int wire);

    /**
     * Multiplies amplitude idx by scale[level_counts_key(idx)] in one pass
     * and returns the resulting squared norm. `key` maps each basis index
     * to a small table key (e.g. packed excited-level counts); used for the
     * fused no-jump amplitude-damping step. key.size() must equal size().
     */
    Real scale_by_table(const std::vector<std::uint16_t>& key,
                        const std::vector<Real>& scale);

    /** <this|other>; registers must have equal dims. */
    Complex inner(const StateVector& other) const;

    /** L2 norm. */
    Real norm() const;

    /**
     * Scales amplitudes so norm() == 1. Returns false — leaving the state
     * untouched — when the norm is zero or non-finite, which signals a
     * fully-damped or otherwise invalid state; callers that cannot
     * tolerate that (e.g. trajectory jump branches) must check the
     * result instead of silently continuing with an unnormalised state.
     */
    [[nodiscard]] bool normalize();

    /** Probability that `wire` is measured in `level`:
     *  sum of |amp|^2 over basis states with that digit. */
    Real population(int wire, int level) const;

    /** Per-level populations of a wire (length dim(wire), sums to norm^2). */
    std::vector<Real> populations(int wire) const;

    /** Squared overlap |<this|other>|^2, the fidelity for pure states. */
    Real fidelity(const StateVector& other) const;

  private:
    WireDims dims_;
    std::vector<Complex> amps_;
};

/**
 * The factor a product-of-per-wire-diagonals odometer (the fold of the
 * batched phase frame, BatchedStateVector::apply_product_diag_lanes, and
 * the walk its lane accessors and fidelity apply the frame with) multiplies
 * into its running product when a wire's digit steps to `v`: f[v] /
 * f[v - 1], or f[0] / f[d - 1] when the digit rolls over to 0
 * (d = f.size()). Shared with the tests' single-shot reference so both
 * take the same quotient of the same operands.
 */
inline Complex
diag_step_ratio(const std::vector<Complex>& f, int v)
{
    const std::size_t uv = static_cast<std::size_t>(v);
    return uv == 0 ? f[0] / f[f.size() - 1] : f[uv] / f[uv - 1];
}

}  // namespace qd

#endif  // QDSIM_STATE_VECTOR_H
