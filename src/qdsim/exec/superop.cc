#include "qdsim/exec/superop.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "qdsim/obs/counters.h"
#include "qdsim/obs/trace.h"

namespace qd::exec {

namespace {

/** Register dimension above which the superoperator outer block passes go
 *  parallel (3^6): the disjoint row/column block structure mirrors the
 *  state-vector kernels' outer loops, but rho passes touch D^2 entries,
 *  so the threshold sits on D rather than on block count. Below it the
 *  loops stay serial (and bitwise identical to the pre-OpenMP engine). */
constexpr Index kSuperParallelDim = 729;

/** Expands the local diagonal to the full register: entry r of the result
 *  is the diagonal value of row r's operand digits. */
std::vector<Complex>
expand_diagonal(const Matrix& op, const ApplyPlan& plan, Index dim)
{
    std::vector<Complex> full(static_cast<std::size_t>(dim));
    const Index block = plan.block;
    for (Index o = 0; o < plan.outer_count(); ++o) {
        const Index base = plan.base_of(o);
        for (Index b = 0; b < block; ++b) {
            full[static_cast<std::size_t>(base + plan.local_offset
                                                     [static_cast<
                                                         std::size_t>(b)])] =
                op(static_cast<std::size_t>(b), static_cast<std::size_t>(b));
        }
    }
    return full;
}

/**
 * Row-block pass: for every base in the plan (shifted by `extra`), gathers
 * the `n` rows at offsets `off` of the row-major dim x dim matrix `a` and
 * overwrites them with m * rows (m is n x n, row-major). The gather buffer
 * makes the update safe in place.
 */
void
left_block_pass(const ApplyPlan& plan, Index extra, const Index* off,
                Index n, const Complex* m, Complex* a, Index dim,
                ExecScratch& scratch)
{
    const std::size_t need = static_cast<std::size_t>(n * dim);
    auto do_block = [&](Index o, Complex* gath) {
        const Index base = plan.base_of(o) + extra;
        for (Index i = 0; i < n; ++i) {
            std::memcpy(gath + i * dim, a + (base + off[i]) * dim,
                        static_cast<std::size_t>(dim) * sizeof(Complex));
        }
        for (Index r = 0; r < n; ++r) {
            Complex* dst = a + (base + off[r]) * dim;
            const Complex* row = m + r * n;
            const Complex* src0 = gath;
            const Complex c0 = row[0];
            for (Index c = 0; c < dim; ++c) {
                dst[c] = c0 * src0[c];
            }
            for (Index i = 1; i < n; ++i) {
                const Complex ci = row[i];
                if (ci == Complex(0, 0)) {
                    continue;
                }
                const Complex* src = gath + i * dim;
                for (Index c = 0; c < dim; ++c) {
                    dst[c] += ci * src[c];
                }
            }
        }
    };
#ifdef _OPENMP
    if (dim >= kSuperParallelDim && plan.outer_count() > 1) {
        // Blocks cover disjoint row sets by construction, so the outer
        // loop parallelises exactly like the state-vector kernels; each
        // thread gathers into its own buffer.
        const std::int64_t nouter =
            static_cast<std::int64_t>(plan.outer_count());
#pragma omp parallel
        {
            std::vector<Complex> gath(need);
#pragma omp for schedule(static)
            for (std::int64_t o = 0; o < nouter; ++o) {
                do_block(static_cast<Index>(o), gath.data());
            }
        }
        return;
    }
#endif
    if (scratch.tmp.size() < need) {
        scratch.tmp.resize(need);
    }
    for (Index o = 0; o < plan.outer_count(); ++o) {
        do_block(o, scratch.tmp.data());
    }
}

/**
 * Column-block pass: for every row of `a` and every base in the plan
 * (shifted by `extra`), gathers the `n` entries at offsets `off` and
 * overwrites them with conj(m) * entries — the right-multiplication by
 * m_full^dagger.
 */
void
right_block_pass(const ApplyPlan& plan, Index extra, const Index* off,
                 Index n, const Complex* m, Complex* a, Index dim,
                 ExecScratch& scratch)
{
    auto do_row = [&](Index r, Complex* gath) {
        Complex* p = a + r * dim;
        for (Index o = 0; o < plan.outer_count(); ++o) {
            const Index base = plan.base_of(o) + extra;
            for (Index i = 0; i < n; ++i) {
                gath[i] = p[base + off[i]];
            }
            for (Index j = 0; j < n; ++j) {
                const Complex* row = m + j * n;
                Complex acc(0, 0);
                for (Index i = 0; i < n; ++i) {
                    acc += std::conj(row[i]) * gath[i];
                }
                p[base + off[j]] = acc;
            }
        }
    };
#ifdef _OPENMP
    if (dim >= kSuperParallelDim) {
        // Rows of rho are independent under right-multiplication.
        const std::int64_t nrows = static_cast<std::int64_t>(dim);
#pragma omp parallel
        {
            std::vector<Complex> gath(static_cast<std::size_t>(n));
#pragma omp for schedule(static)
            for (std::int64_t r = 0; r < nrows; ++r) {
                do_row(static_cast<Index>(r), gath.data());
            }
        }
        return;
    }
#endif
    if (scratch.tmp.size() < static_cast<std::size_t>(n)) {
        scratch.tmp.resize(static_cast<std::size_t>(n));
    }
    for (Index r = 0; r < dim; ++r) {
        do_row(r, scratch.tmp.data());
    }
}

/** Scalar cycle walk (see build_monomial_cycles for the layout). */
inline void
walk_cycles_scalar(const CompiledSuperOp& op, Complex* p, Index base,
                   bool conj_phase)
{
    const Index* c = op.cycle_offsets.data();
    const Complex* v = op.cycle_phases.data();
    for (const std::uint32_t len : op.cycle_lengths) {
        auto mul = [conj_phase](Complex x, Complex ph) {
            return conj_phase ? x * std::conj(ph) : x * ph;
        };
        if (len == 1) {
            p[base + c[0]] = mul(p[base + c[0]], v[0]);
        } else {
            const Complex tmp = mul(p[base + c[len - 1]], v[len - 1]);
            for (std::uint32_t i = len - 1; i >= 1; --i) {
                p[base + c[i]] = mul(p[base + c[i - 1]], v[i - 1]);
            }
            p[base + c[0]] = tmp;
        }
        c += len;
        v += len;
    }
}

/** Row cycle walk: same as the scalar walk but each slot is a whole row. */
void
walk_cycles_rows(const CompiledSuperOp& op, Complex* a, Index base,
                 Index dim, ExecScratch& scratch)
{
    if (scratch.tmp.size() < static_cast<std::size_t>(dim)) {
        scratch.tmp.resize(static_cast<std::size_t>(dim));
    }
    Complex* tmp = scratch.tmp.data();
    const Index* c = op.cycle_offsets.data();
    const Complex* v = op.cycle_phases.data();
    auto scale_copy = [dim](Complex* dst, const Complex* src, Complex ph) {
        for (Index i = 0; i < dim; ++i) {
            dst[i] = src[i] * ph;
        }
    };
    for (const std::uint32_t len : op.cycle_lengths) {
        if (len == 1) {
            Complex* row = a + (base + c[0]) * dim;
            for (Index i = 0; i < dim; ++i) {
                row[i] *= v[0];
            }
        } else {
            scale_copy(tmp, a + (base + c[len - 1]) * dim, v[len - 1]);
            for (std::uint32_t i = len - 1; i >= 1; --i) {
                scale_copy(a + (base + c[i]) * dim,
                           a + (base + c[i - 1]) * dim, v[i - 1]);
            }
            std::memcpy(a + (base + c[0]) * dim, tmp,
                        static_cast<std::size_t>(dim) * sizeof(Complex));
        }
        c += len;
        v += len;
    }
}

CompiledSuperOp
compile_core(const WireDims& dims, const Matrix& op,
             std::span<const int> wires, PlanCache* cache,
             const Gate* structured, Index plan_salt)
{
    if (op.rows() != op.cols()) {
        throw std::invalid_argument("compile_superop: operator not square");
    }
    Index block = 1;
    for (const int w : wires) {
        if (w < 0 || w >= dims.num_wires()) {
            throw std::invalid_argument(
                "compile_superop: wire index out of range");
        }
        block *= static_cast<Index>(dims.dim(w));
    }
    if (static_cast<Index>(op.rows()) != block) {
        throw std::invalid_argument(
            "compile_superop: operator size does not match operand dims");
    }

    CompiledSuperOp out;
    out.dim = dims.size();
    out.plan = cache != nullptr ? cache->get(wires, plan_salt)
                                : make_apply_plan(dims, wires);

    if (op.is_diagonal(kTol)) {
        out.kind = SuperOpKind::kDiagonal;
        out.full_diag = expand_diagonal(op, *out.plan, out.dim);
        return out;
    }
    std::vector<Index> perm;
    std::vector<Complex> phase;
    if (monomial_action(op, perm, phase)) {
        out.kind = SuperOpKind::kMonomial;
        build_monomial_cycles(perm, phase, *out.plan, out.cycle_offsets,
                              out.cycle_phases, out.cycle_lengths);
        return out;
    }
    if (structured != nullptr && structured->has_controlled_structure()) {
        const ControlledStructure& cs = structured->controlled_structure();
        out.kind = SuperOpKind::kControlled;
        for (int i = 0; i < cs.num_controls; ++i) {
            out.ctrl_offset +=
                static_cast<Index>(
                    cs.control_values[static_cast<std::size_t>(i)]) *
                dims.stride(wires[static_cast<std::size_t>(i)]);
        }
        out.inner_offset = local_offsets(
            dims, wires.subspan(static_cast<std::size_t>(cs.num_controls)));
        out.inner = cs.inner;
        return out;
    }
    out.kind = SuperOpKind::kDense;
    out.block = op;
    return out;
}

}  // namespace

const char*
superop_kernel_name(SuperOpKind kind)
{
    switch (kind) {
        case SuperOpKind::kDiagonal:
            return "diagonal";
        case SuperOpKind::kMonomial:
            return "monomial";
        case SuperOpKind::kControlled:
            return "controlled";
        case SuperOpKind::kDense:
            return "dense";
    }
    return "unknown";
}

CompiledSuperOp
compile_superop(const WireDims& dims, const Matrix& op,
                std::span<const int> wires, PlanCache* cache,
                Index plan_salt)
{
    return compile_core(dims, op, wires, cache, nullptr, plan_salt);
}

CompiledSuperOp
compile_superop(const WireDims& dims, const Gate& gate,
                std::span<const int> wires, PlanCache* cache,
                Index plan_salt)
{
    if (gate.empty()) {
        throw std::invalid_argument("compile_superop: empty gate");
    }
    return compile_core(dims, gate.matrix(), wires, cache, &gate,
                        plan_salt);
}

void
superop_apply_left(const CompiledSuperOp& op, Complex* a,
                   ExecScratch& scratch)
{
    const ApplyPlan& plan = *op.plan;
    const Index dim = op.dim;
    switch (op.kind) {
        case SuperOpKind::kDiagonal:
#ifdef _OPENMP
            if (dim >= kSuperParallelDim) {
#pragma omp parallel for schedule(static)
                for (std::int64_t r = 0;
                     r < static_cast<std::int64_t>(dim); ++r) {
                    const Complex s =
                        op.full_diag[static_cast<std::size_t>(r)];
                    Complex* row = a + static_cast<Index>(r) * dim;
                    for (Index c = 0; c < dim; ++c) {
                        row[c] *= s;
                    }
                }
                return;
            }
#endif
            for (Index r = 0; r < dim; ++r) {
                const Complex s = op.full_diag[static_cast<std::size_t>(r)];
                Complex* row = a + r * dim;
                for (Index c = 0; c < dim; ++c) {
                    row[c] *= s;
                }
            }
            return;
        case SuperOpKind::kMonomial:
#ifdef _OPENMP
            if (dim >= kSuperParallelDim && plan.outer_count() > 1) {
                // Row blocks are disjoint across the outer index; each
                // thread walks with its own row buffer.
                const std::int64_t nouter =
                    static_cast<std::int64_t>(plan.outer_count());
#pragma omp parallel
                {
                    ExecScratch local;
#pragma omp for schedule(static)
                    for (std::int64_t o = 0; o < nouter; ++o) {
                        walk_cycles_rows(op, a,
                                         plan.base_of(static_cast<Index>(o)),
                                         dim, local);
                    }
                }
                return;
            }
#endif
            for (Index o = 0; o < plan.outer_count(); ++o) {
                walk_cycles_rows(op, a, plan.base_of(o), dim, scratch);
            }
            return;
        case SuperOpKind::kControlled:
            left_block_pass(plan, op.ctrl_offset, op.inner_offset.data(),
                            static_cast<Index>(op.inner_offset.size()),
                            op.inner.data().data(), a, dim, scratch);
            return;
        case SuperOpKind::kDense:
            left_block_pass(plan, 0, plan.local_offset.data(), plan.block,
                            op.block.data().data(), a, dim, scratch);
            return;
    }
}

void
superop_apply_right_adjoint(const CompiledSuperOp& op, Complex* a,
                            ExecScratch& scratch)
{
    const ApplyPlan& plan = *op.plan;
    const Index dim = op.dim;
    switch (op.kind) {
        case SuperOpKind::kDiagonal:
#ifdef _OPENMP
            if (dim >= kSuperParallelDim) {
#pragma omp parallel for schedule(static)
                for (std::int64_t r = 0;
                     r < static_cast<std::int64_t>(dim); ++r) {
                    Complex* row = a + static_cast<Index>(r) * dim;
                    for (Index c = 0; c < dim; ++c) {
                        row[c] *= std::conj(
                            op.full_diag[static_cast<std::size_t>(c)]);
                    }
                }
                return;
            }
#endif
            for (Index r = 0; r < dim; ++r) {
                Complex* row = a + r * dim;
                for (Index c = 0; c < dim; ++c) {
                    row[c] *=
                        std::conj(op.full_diag[static_cast<std::size_t>(c)]);
                }
            }
            return;
        case SuperOpKind::kMonomial:
#ifdef _OPENMP
            if (dim >= kSuperParallelDim) {
#pragma omp parallel for schedule(static)
                for (std::int64_t r = 0;
                     r < static_cast<std::int64_t>(dim); ++r) {
                    Complex* p = a + static_cast<Index>(r) * dim;
                    for (Index o = 0; o < plan.outer_count(); ++o) {
                        walk_cycles_scalar(op, p, plan.base_of(o), true);
                    }
                }
                return;
            }
#endif
            for (Index r = 0; r < dim; ++r) {
                Complex* p = a + r * dim;
                for (Index o = 0; o < plan.outer_count(); ++o) {
                    walk_cycles_scalar(op, p, plan.base_of(o), true);
                }
            }
            return;
        case SuperOpKind::kControlled:
            right_block_pass(plan, op.ctrl_offset, op.inner_offset.data(),
                             static_cast<Index>(op.inner_offset.size()),
                             op.inner.data().data(), a, dim, scratch);
            return;
        case SuperOpKind::kDense:
            right_block_pass(plan, 0, plan.local_offset.data(), plan.block,
                             op.block.data().data(), a, dim, scratch);
            return;
    }
}

void
superop_conjugate(const CompiledSuperOp& op, Matrix& rho,
                  ExecScratch& scratch)
{
    if (static_cast<Index>(rho.rows()) != op.dim ||
        static_cast<Index>(rho.cols()) != op.dim) {
        throw std::invalid_argument(
            "superop_conjugate: rho size does not match compiled register");
    }
    // Counter hook stays OUTSIDE the OpenMP regions below: one count per
    // conjugation, charged to the calling thread (see obs/counters.h for
    // why in-region counting would also be race-free but is avoided).
    if (obs::enabled()) {
        static constexpr obs::Counter kByKind[4] = {
            obs::Counter::kSuperDiagonal,
            obs::Counter::kSuperMonomial,
            obs::Counter::kSuperControlled,
            obs::Counter::kSuperDense,
        };
        obs::count_unchecked(kByKind[static_cast<unsigned>(op.kind)]);
    }
    obs::ScopedSpan span("density", "superop_conjugate");
    Complex* a = rho.data().data();
    if (op.kind == SuperOpKind::kDiagonal) {
        // Fused single pass: rho(r, c) *= d[r] * conj(d[c]).
        const Complex* d = op.full_diag.data();
        const Index dim = op.dim;
#ifdef _OPENMP
        if (dim >= kSuperParallelDim) {
#pragma omp parallel for schedule(static)
            for (std::int64_t r = 0; r < static_cast<std::int64_t>(dim);
                 ++r) {
                const Complex dr = d[r];
                Complex* row = a + static_cast<Index>(r) * dim;
                for (Index c = 0; c < dim; ++c) {
                    row[c] *= dr * std::conj(d[c]);
                }
            }
            return;
        }
#endif
        for (Index r = 0; r < dim; ++r) {
            const Complex dr = d[r];
            Complex* row = a + r * dim;
            for (Index c = 0; c < dim; ++c) {
                row[c] *= dr * std::conj(d[c]);
            }
        }
        return;
    }
    superop_apply_left(op, a, scratch);
    superop_apply_right_adjoint(op, a, scratch);
}

}  // namespace qd::exec
