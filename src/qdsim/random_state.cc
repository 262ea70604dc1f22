#include "qdsim/random_state.h"

#include <cmath>
#include <stdexcept>

namespace qd {

StateVector
haar_random_state(const WireDims& dims, Rng& rng)
{
    StateVector psi(dims);
    for (Index i = 0; i < psi.size(); ++i) {
        psi[i] = rng.complex_gaussian();
    }
    if (!psi.normalize()) {
        throw std::runtime_error(
            "haar_random_state: degenerate zero-norm draw");
    }
    return psi;
}

StateVector
haar_random_qubit_subspace_state(const WireDims& dims, Rng& rng)
{
    StateVector psi(dims);
    for_each_qubit_subspace_index(
        dims, [&](Index idx) { psi[idx] = rng.complex_gaussian(); });
    if (!psi.normalize()) {
        throw std::runtime_error(
            "haar_random_qubit_subspace_state: degenerate zero-norm draw");
    }
    return psi;
}

Matrix
haar_random_unitary(std::size_t n, Rng& rng)
{
    // QR via modified Gram-Schmidt on a Ginibre matrix; normalise the phase
    // of each column's leading entry so R has a positive diagonal (required
    // for Haar correctness).
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            a(i, j) = rng.complex_gaussian();
        }
    }
    Matrix q(n, n);
    for (std::size_t col = 0; col < n; ++col) {
        std::vector<Complex> v(n);
        for (std::size_t i = 0; i < n; ++i) {
            v[i] = a(i, col);
        }
        for (std::size_t prev = 0; prev < col; ++prev) {
            Complex dot(0, 0);
            for (std::size_t i = 0; i < n; ++i) {
                dot += std::conj(q(i, prev)) * v[i];
            }
            for (std::size_t i = 0; i < n; ++i) {
                v[i] -= dot * q(i, prev);
            }
        }
        Real nrm = 0;
        for (const Complex& x : v) {
            nrm += std::norm(x);
        }
        nrm = std::sqrt(nrm);
        for (std::size_t i = 0; i < n; ++i) {
            q(i, col) = v[i] / nrm;
        }
    }
    return q;
}

}  // namespace qd
