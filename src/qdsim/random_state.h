/**
 * @file random_state.h
 * O(d^N) Haar-random state generation (paper Section 6.2).
 *
 * Other libraries generate a Haar-random d^N x d^N unitary and truncate to a
 * column; here the column is sampled directly: i.i.d. complex Gaussians
 * followed by normalisation, which is exactly the first column of a Haar
 * unitary in distribution.
 */
#ifndef QDSIM_RANDOM_STATE_H
#define QDSIM_RANDOM_STATE_H

#include <vector>

#include "qdsim/rng.h"
#include "qdsim/state_vector.h"

namespace qd {

/** Haar-random pure state over the full mixed-radix register. */
StateVector haar_random_state(const WireDims& dims, Rng& rng);

/**
 * Haar-random state supported on the qubit subspace: amplitudes are nonzero
 * only on basis states whose digits are all < 2. This models the paper's
 * protocol where circuit inputs and outputs are qubits and only intermediate
 * states occupy |2>.
 */
StateVector haar_random_qubit_subspace_state(const WireDims& dims, Rng& rng);

/**
 * Calls visit(idx) for every basis index of the qubit subspace (all
 * digits < 2), in increasing index order — the order in which
 * haar_random_qubit_subspace_state draws its amplitudes.
 */
template <class Visit>
void
for_each_qubit_subspace_index(const WireDims& dims, Visit visit)
{
    const int n = dims.num_wires();
    // Binary odometer over the mixed-radix strides.
    std::vector<int> digits(static_cast<std::size_t>(n), 0);
    Index idx = 0;
    for (;;) {
        visit(idx);
        int w = n - 1;
        for (; w >= 0; --w) {
            const std::size_t uw = static_cast<std::size_t>(w);
            if (digits[uw] == 0) {
                digits[uw] = 1;
                idx += dims.stride(w);
                break;
            }
            digits[uw] = 0;
            idx -= dims.stride(w);
        }
        if (w < 0) {
            return;
        }
    }
}

/** Haar-random unitary of dimension n via QR of a complex Ginibre matrix
 *  (test utility; used to property-test gate algebra, not in hot paths). */
Matrix haar_random_unitary(std::size_t n, Rng& rng);

}  // namespace qd

#endif  // QDSIM_RANDOM_STATE_H
