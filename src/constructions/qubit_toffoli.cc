#include "constructions/qubit_toffoli.h"

#include <cmath>
#include <stdexcept>

#include "qdsim/eigen.h"
#include "qdsim/gate_library.h"

namespace qd::ctor {

namespace {

/** Appends a plain CNOT. */
void
cnot(Circuit& c, int ctrl, int tgt)
{
    c.append(gates::CNOT(), {ctrl, tgt});
}

/** Appends the controlled form of a single-qubit gate. */
void
cu(Circuit& c, int ctrl, int tgt, const Gate& u)
{
    c.append(u.controlled(2, 1), {ctrl, tgt});
}

/**
 * The square root V of the level-`level` operator u = root^(2^-level) of
 * the sqrt recursion, named u.name() + "^1/2". V is taken from `root`
 * directly, root^(2^-(level+1)): rooting the previous root again
 * compounds the eigendecomposition error of nearly degenerate
 * eigenvalues, and at 11 controls it left gates visibly non-unitary.
 */
Gate
half_root(const Gate& u, const Matrix& root, int level)
{
    return gates::from_matrix(u.name() + "^1/2", u.dims(),
                              unitary_power(root, std::ldexp(1.0, -level - 1)));
}

/**
 * CC(U) with 5 two-qubit gates (Barenco Lemma 6.1):
 * CV(b,t) CNOT(a,b) CV+(b,t) CNOT(a,b) CV(a,t), V = sqrt(U).
 */
void
ccu_5gate(Circuit& c, int a, int b, int t, const Gate& v)
{
    const Gate v_dag = v.inverse();
    cu(c, b, t, v);
    cnot(c, a, b);
    cu(c, b, t, v_dag);
    cnot(c, a, b);
    cu(c, a, t, v);
}

}  // namespace

void
append_toffoli_network(Circuit& c, int a, int b, int t)
{
    const Gate h = gates::H(), tg = gates::T(), td = gates::T().inverse();
    c.append(h, {t});
    cnot(c, b, t);
    c.append(td, {t});
    cnot(c, a, t);
    c.append(tg, {t});
    cnot(c, b, t);
    c.append(td, {t});
    cnot(c, a, t);
    c.append(tg, {b});
    c.append(tg, {t});
    c.append(h, {t});
    cnot(c, a, b);
    c.append(tg, {a});
    c.append(td, {b});
    cnot(c, a, b);
}

void
append_toffoli(Circuit& circuit, int a, int b, int t,
               const QubitDecompOptions& options)
{
    if (options.decompose_toffoli) {
        append_toffoli_network(circuit, a, b, t);
    } else {
        circuit.append(gates::CCX(), {a, b, t});
    }
}

void
append_mcx_vchain(Circuit& circuit, const std::vector<int>& controls,
                  int target, const std::vector<int>& borrows,
                  const QubitDecompOptions& options)
{
    const std::size_t n = controls.size();
    if (n == 0) {
        circuit.append(gates::X(), {target});
        return;
    }
    if (n == 1) {
        cnot(circuit, controls[0], target);
        return;
    }
    if (n == 2) {
        append_toffoli(circuit, controls[0], controls[1], target, options);
        return;
    }
    if (borrows.size() < n - 2) {
        throw std::invalid_argument(
            "append_mcx_vchain: need n-2 dirty borrows");
    }
    // The V-shaped network of Barenco Lemma 7.2, applied twice. g[i] are
    // the borrows; the descending staircase ANDs controls into the chain
    // and the ascending one uncomputes the garbage.
    //
    //   top gate:  Tof(c[n-1], g[n-3], target)
    //   mids:      Tof(c[i+1], g[i-1], g[i])     i = n-3 .. 1
    //   bottom:    Tof(c[0],   c[1],   g[0])
    const auto v_shape = [&](bool include_top) {
        if (include_top) {
            append_toffoli(circuit, controls[n - 1],
                           borrows[n - 3], target, options);
        }
        for (std::size_t i = n - 3; i >= 1; --i) {
            append_toffoli(circuit, controls[i + 1], borrows[i - 1],
                           borrows[i], options);
        }
        append_toffoli(circuit, controls[0], controls[1], borrows[0],
                       options);
        for (std::size_t i = 1; i <= n - 3; ++i) {
            append_toffoli(circuit, controls[i + 1], borrows[i - 1],
                           borrows[i], options);
        }
        if (include_top) {
            append_toffoli(circuit, controls[n - 1],
                           borrows[n - 3], target, options);
        }
    };
    v_shape(true);
    v_shape(false);
}

void
append_mcx_single_borrow(Circuit& circuit, const std::vector<int>& controls,
                         int target, int borrow,
                         const QubitDecompOptions& options)
{
    const std::size_t n = controls.size();
    if (n <= 2) {
        append_mcx_vchain(circuit, controls, target, {}, options);
        return;
    }
    const std::size_t n1 = (n + 1) / 2;
    const std::vector<int> ca(controls.begin(),
                              controls.begin() + static_cast<long>(n1));
    std::vector<int> cb(controls.begin() + static_cast<long>(n1),
                        controls.end());

    // A: ANDs ca into the borrow, borrowing cb + target.
    std::vector<int> borrows_a = cb;
    borrows_a.push_back(target);
    // B: ANDs cb + borrow into the target, borrowing ca.
    std::vector<int> cb_plus = cb;
    cb_plus.push_back(borrow);

    // Sequence A B A B gives target ^= [ca][cb] and restores the borrow.
    append_mcx_vchain(circuit, ca, borrow, borrows_a, options);
    append_mcx_vchain(circuit, cb_plus, target, ca, options);
    append_mcx_vchain(circuit, ca, borrow, borrows_a, options);
    append_mcx_vchain(circuit, cb_plus, target, ca, options);
}

namespace {

/** append_mcu_no_ancilla at recursion depth `level`: u is
 *  root^(2^-level). */
void
mcu_no_ancilla(Circuit& circuit, const std::vector<int>& controls,
               int target, const Gate& u, const Matrix& root, int level,
               const QubitDecompOptions& options,
               const std::vector<int>& extra_borrows)
{
    const std::size_t n = controls.size();
    if (n == 0) {
        circuit.append(u, {target});
        return;
    }
    if (n == 1) {
        cu(circuit, controls[0], target, u);
        return;
    }
    if (n == 2) {
        // Special-case plain X for cheaper Toffolis.
        if (u.matrix().approx_equal(gates::X().matrix())) {
            append_toffoli(circuit, controls[0], controls[1], target,
                           options);
        } else {
            ccu_5gate(circuit, controls[0], controls[1], target,
                      half_root(u, root, level));
        }
        return;
    }

    const int pivot = controls[n - 1];
    const std::vector<int> rest(controls.begin(), controls.end() - 1);

    const Gate v = half_root(u, root, level);
    const Gate v_dag = v.inverse();

    // Borrow pool for the inner multi-controlled NOTs: the target plus any
    // wires already peeled off by outer recursion levels.
    std::vector<int> pool = extra_borrows;
    pool.push_back(target);

    const auto inner_mcx = [&]() {
        if (rest.size() <= 2) {
            append_mcx_vchain(circuit, rest, pivot, {}, options);
        } else if (pool.size() >= rest.size() - 2) {
            append_mcx_vchain(circuit, rest, pivot, pool, options);
        } else {
            append_mcx_single_borrow(circuit, rest, pivot, pool.front(),
                                     options);
        }
    };

    cu(circuit, pivot, target, v);
    inner_mcx();
    cu(circuit, pivot, target, v_dag);
    inner_mcx();

    std::vector<int> deeper = extra_borrows;
    deeper.push_back(pivot);
    mcu_no_ancilla(circuit, rest, target, v, root, level + 1, options,
                   deeper);
}

}  // namespace

void
append_mcu_no_ancilla(Circuit& circuit, const std::vector<int>& controls,
                      int target, const Gate& u,
                      const QubitDecompOptions& options,
                      const std::vector<int>& extra_borrows)
{
    mcu_no_ancilla(circuit, controls, target, u, u.matrix(), 0, options,
                   extra_borrows);
}

}  // namespace qd::ctor
