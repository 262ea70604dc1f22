/**
 * @file density_reference.h
 * Dense reference oracle for the exact density-matrix engine: every
 * k-local operator is expanded to the full D x D register and applied
 * with dense matrix products, O(D^3) per operator. The compiled path
 * (noise::DensityMatrix on exec::conjugate_op) is property-tested
 * against it in tests/noise/test_density_matrix.cc and benchmarked
 * against it in bench/bench_density.cc.
 */
#ifndef TESTS_NOISE_DENSITY_REFERENCE_H
#define TESTS_NOISE_DENSITY_REFERENCE_H

#include <span>
#include <utility>

#include "noise/kraus.h"
#include "qdsim/basis.h"
#include "qdsim/matrix.h"

namespace qd::reference {

/** Expands a k-local operator on `wires` (wires[0] most significant) to
 *  the full register of `dims` (dense; small registers only). */
inline Matrix
expand(const WireDims& dims, const Matrix& op, std::span<const int> wires)
{
    const Index total = dims.size();
    Matrix full(total, total);
    const int k = static_cast<int>(wires.size());
    for (Index r = 0; r < total; ++r) {
        for (Index c = 0; c < total; ++c) {
            // Non-operand digits must agree.
            bool same = true;
            for (int w = 0; w < dims.num_wires() && same; ++w) {
                bool is_operand = false;
                for (const int t : wires) {
                    if (t == w) {
                        is_operand = true;
                        break;
                    }
                }
                if (!is_operand && dims.digit(r, w) != dims.digit(c, w)) {
                    same = false;
                }
            }
            if (!same) {
                continue;
            }
            Index lr = 0, lc = 0;
            for (int i = 0; i < k; ++i) {
                const int d = dims.dim(wires[i]);
                lr = lr * static_cast<Index>(d) +
                     static_cast<Index>(dims.digit(r, wires[i]));
                lc = lc * static_cast<Index>(d) +
                     static_cast<Index>(dims.digit(c, wires[i]));
            }
            full(r, c) = op(lr, lc);
        }
    }
    return full;
}

/** rho -> U rho U^dagger with U expanded to the full register. */
inline void
apply_unitary_dense(const WireDims& dims, Matrix& rho, const Matrix& u,
                    std::span<const int> wires)
{
    const Matrix full = expand(dims, u, wires);
    rho = full * rho * full.dagger();
}

/** rho -> sum_i K_i rho K_i^dagger with every K_i expanded. */
inline void
apply_channel_dense(const WireDims& dims, Matrix& rho,
                    const noise::KrausChannel& channel,
                    std::span<const int> wires)
{
    Matrix acc(rho.rows(), rho.cols());
    for (const Matrix& k : channel.operators) {
        const Matrix full = expand(dims, k, wires);
        acc = acc + full * rho * full.dagger();
    }
    rho = std::move(acc);
}

}  // namespace qd::reference

#endif  // TESTS_NOISE_DENSITY_REFERENCE_H
