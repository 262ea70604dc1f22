/**
 * @file product_diag_reference.h
 * Single-shot reference for the batched dephasing pass
 * (BatchedStateVector::apply_product_diag_lanes), shared by the state and
 * batched-engine tests.
 */
#ifndef TESTS_QDSIM_PRODUCT_DIAG_REFERENCE_H
#define TESTS_QDSIM_PRODUCT_DIAG_REFERENCE_H

#include <stdexcept>
#include <vector>

#include "qdsim/state_vector.h"

namespace qd::reference {

/**
 * amp[idx] *= prod_w factors[w][digit_w(idx)], driven by an incremental
 * odometer (wire n-1 least significant) whose running product takes one
 * diag_step_ratio multiply per digit step — the multiply sequence every
 * lane of apply_product_diag_lanes must reproduce bitwise.
 * @throws std::invalid_argument if a wire's factor count is wrong.
 */
inline void
apply_product_diag(StateVector& psi,
                   const std::vector<std::vector<Complex>>& factors)
{
    const WireDims& dims = psi.dims();
    const int n = dims.num_wires();
    if (static_cast<int>(factors.size()) != n) {
        throw std::invalid_argument("apply_product_diag: factor count");
    }
    // ratio[first[w] + v]: the factor the running product picks up when
    // wire w's digit steps to v (rolling over to 0 divides out the wire's
    // accumulated product).
    std::vector<std::size_t> first(static_cast<std::size_t>(n));
    std::vector<Complex> ratio;
    for (int w = 0; w < n; ++w) {
        const auto& f = factors[static_cast<std::size_t>(w)];
        if (static_cast<int>(f.size()) != dims.dim(w)) {
            throw std::invalid_argument("apply_product_diag: factor size");
        }
        first[static_cast<std::size_t>(w)] = ratio.size();
        for (int v = 0; v < dims.dim(w); ++v) {
            ratio.push_back(diag_step_ratio(f, v));
        }
    }
    std::vector<int> odo(static_cast<std::size_t>(n), 0);
    Complex cur(1, 0);
    for (int w = 0; w < n; ++w) {
        cur *= factors[static_cast<std::size_t>(w)][0];
    }
    const Index total = dims.size();
    for (Index idx = 0;; ++idx) {
        psi[idx] *= cur;
        if (idx + 1 >= total) {
            break;
        }
        for (int w = n - 1;; --w) {
            const std::size_t uw = static_cast<std::size_t>(w);
            if (++odo[uw] < dims.dim(w)) {
                cur *= ratio[first[uw] + static_cast<std::size_t>(odo[uw])];
                break;
            }
            cur *= ratio[first[uw]];
            odo[uw] = 0;
        }
    }
}

}  // namespace qd::reference

#endif  // TESTS_QDSIM_PRODUCT_DIAG_REFERENCE_H
