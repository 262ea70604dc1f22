#include "qdsim/verify/plan_audit.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "qdsim/exec/apply_plan.h"
#include "qdsim/exec/kernels.h"

namespace qd::verify {

namespace {

using exec::ApplyPlan;
using exec::CompiledOp;
using exec::KernelKind;

std::string
wires_str(std::span<const int> wires)
{
    std::ostringstream out;
    out << '[';
    for (std::size_t i = 0; i < wires.size(); ++i) {
        out << (i ? "," : "") << wires[i];
    }
    out << ']';
    return out.str();
}

bool
complex_close(const Complex& a, const Complex& b)
{
    return std::abs(a - b) <= kLooseTol;
}

}  // namespace

void
audit_plan(const WireDims& dims, std::span<const int> wires,
           const ApplyPlan& plan, Report& report, std::ptrdiff_t op_index)
{
    const Index size = dims.size();
    const std::string where = "plan over wires " + wires_str(wires);

    Index block = 1;
    bool wires_ok = true;
    for (const int w : wires) {
        if (w < 0 || w >= dims.num_wires()) {
            wires_ok = false;
            break;
        }
        block *= static_cast<Index>(dims.dim(w));
    }
    if (!wires_ok) {
        report.add("plan.block-mismatch", Severity::kError, op_index,
                   where + ": wire out of range for the register");
        return;
    }
    if (plan.block != block) {
        report.add("plan.block-mismatch", Severity::kError, op_index,
                   where + ": block " + std::to_string(plan.block) +
                       " != operand-dim product " + std::to_string(block));
        return;
    }
    if (plan.local_offset.size() != static_cast<std::size_t>(plan.block)) {
        report.add("plan.table-size", Severity::kError, op_index,
                   where + ": local_offset table has " +
                       std::to_string(plan.local_offset.size()) +
                       " entries, block is " + std::to_string(plan.block));
        return;
    }
    if (plan.outer * plan.block != size) {
        report.add("plan.outer-mismatch", Severity::kError, op_index,
                   where + ": outer * block = " +
                       std::to_string(plan.outer * plan.block) +
                       " != register size " + std::to_string(size));
    }

    // Local offsets: in bounds, and equal to the canonical table (the
    // kernels' gather/scatter indices are base + local_offset[b]).
    Index max_local = 0;
    for (std::size_t b = 0; b < plan.local_offset.size(); ++b) {
        const Index off = plan.local_offset[b];
        if (off >= size) {
            report.add("plan.offset-bounds", Severity::kError, op_index,
                       where + ": local_offset[" + std::to_string(b) +
                           "] = " + std::to_string(off) +
                           " outside register size " + std::to_string(size));
        }
        max_local = std::max(max_local, off);
    }
    const std::vector<Index> expected = exec::local_offsets(dims, wires);
    if (plan.local_offset != expected) {
        report.add("plan.offset-mismatch", Severity::kError, op_index,
                   where + ": local_offset table differs from the "
                           "canonical wire-stride table");
    }

    // Base offsets: every reachable amplitude index base + local must be
    // inside the register, whichever way bases are produced.
    if (!plan.base_offsets.empty()) {
        if (plan.base_offsets.size() != static_cast<std::size_t>(plan.outer)) {
            report.add("plan.table-size", Severity::kError, op_index,
                       where + ": base_offsets table has " +
                           std::to_string(plan.base_offsets.size()) +
                           " entries, outer is " + std::to_string(plan.outer));
        }
        for (std::size_t o = 0; o < plan.base_offsets.size(); ++o) {
            const Index base = plan.base_offsets[o];
            if (base >= size || max_local >= size - base) {
                report.add("plan.offset-bounds", Severity::kError, op_index,
                           where + ": base_offsets[" + std::to_string(o) +
                               "] = " + std::to_string(base) +
                               " + max local offset " +
                               std::to_string(max_local) +
                               " reaches outside register size " +
                               std::to_string(size));
            }
        }
    } else {
        Index strided_outer = 1;
        Index max_base = 0;
        bool strides_ok = plan.other_dims.size() == plan.other_strides.size();
        for (std::size_t i = 0; strides_ok && i < plan.other_dims.size();
             ++i) {
            strided_outer *= plan.other_dims[i];
            max_base += (plan.other_dims[i] - 1) * plan.other_strides[i];
        }
        if (!strides_ok) {
            report.add("plan.table-size", Severity::kError, op_index,
                       where + ": other_dims/other_strides length mismatch");
        } else {
            if (strided_outer != plan.outer) {
                report.add("plan.outer-mismatch", Severity::kError, op_index,
                           where + ": strided base generator covers " +
                               std::to_string(strided_outer) +
                               " configurations, outer is " +
                               std::to_string(plan.outer));
            }
            if (plan.outer > 0 &&
                (max_base >= size || max_local >= size - max_base)) {
                report.add("plan.offset-bounds", Severity::kError, op_index,
                           where + ": max strided base " +
                               std::to_string(max_base) +
                               " + max local offset " +
                               std::to_string(max_local) +
                               " reaches outside register size " +
                               std::to_string(size));
            }
        }
    }
}

void
audit_compiled_op(const WireDims& dims, const CompiledOp& op, Report& report,
                  std::ptrdiff_t op_index, exec::PlanCache* cache)
{
    const std::string where =
        std::string(exec::kernel_name(op.kind)) + " op on wires " +
        wires_str(op.wires);

    if (op.gate.empty()) {
        report.add("plan.kernel-class", Severity::kError, op_index,
                   where + ": compiled op holds an empty gate");
        return;
    }
    if (op.plan) {
        audit_plan(dims, op.wires, *op.plan, report, op_index);
    }

    // Kernel-class assignment: a fresh dispatch on the same (gate, wires)
    // must land on the same kernel with the same precomputed data.
    CompiledOp fresh;
    try {
        fresh = exec::compile_op(dims, op.gate, op.wires, cache);
    } catch (const std::exception& e) {
        report.add("plan.kernel-class", Severity::kError, op_index,
                   where + ": compile_op rejects this site: " + e.what());
        return;
    }
    if (fresh.kind != op.kind) {
        report.add("plan.kernel-class", Severity::kError, op_index,
                   where + ": compiled as " + exec::kernel_name(op.kind) +
                       " but compile_op dispatches " +
                       exec::kernel_name(fresh.kind));
        return;
    }

    const auto data_mismatch = [&](const std::string& what) {
        report.add("plan.kernel-data", Severity::kError, op_index,
                   where + ": " + what +
                       " differs from a fresh compilation's");
    };
    switch (op.kind) {
        case KernelKind::kPermutation:
        case KernelKind::kMonomial: {
            if (op.cycle_offsets != fresh.cycle_offsets ||
                op.cycle_lengths != fresh.cycle_lengths) {
                data_mismatch("cycle table");
            }
            for (const Index off : op.cycle_offsets) {
                if (off >= dims.size()) {
                    report.add("plan.offset-bounds", Severity::kError,
                               op_index,
                               where + ": cycle offset " +
                                   std::to_string(off) +
                                   " outside register size " +
                                   std::to_string(dims.size()));
                }
            }
            if (op.kind == KernelKind::kMonomial) {
                bool ok = op.cycle_phases.size() == fresh.cycle_phases.size();
                for (std::size_t i = 0; ok && i < op.cycle_phases.size();
                     ++i) {
                    ok = complex_close(op.cycle_phases[i],
                                       fresh.cycle_phases[i]);
                }
                if (!ok) {
                    data_mismatch("cycle phase table");
                }
            }
            break;
        }
        case KernelKind::kDiagonal: {
            bool ok = op.diag.size() == fresh.diag.size();
            for (std::size_t i = 0; ok && i < op.diag.size(); ++i) {
                ok = complex_close(op.diag[i], fresh.diag[i]);
            }
            if (!ok) {
                data_mismatch("diagonal table");
            }
            break;
        }
        case KernelKind::kSingleWireD2:
        case KernelKind::kSingleWireD3: {
            const int w = op.wires[0];
            if (op.stride1 != dims.stride(w) ||
                op.period1 != dims.stride(w) *
                                  static_cast<Index>(dims.dim(w))) {
                report.add("plan.kernel-data", Severity::kError, op_index,
                           where + ": single-wire run geometry does not "
                                   "match the wire's stride/period");
            }
            const std::size_t d = static_cast<std::size_t>(dims.dim(w));
            bool ok = true;
            for (std::size_t r = 0; r < d; ++r) {
                for (std::size_t c = 0; c < d; ++c) {
                    ok = ok && complex_close(op.u[r * d + c],
                                             op.gate.matrix()(r, c));
                }
            }
            if (!ok) {
                data_mismatch("unrolled unitary");
            }
            break;
        }
        case KernelKind::kControlled: {
            // Independent re-derivation from the gate's cached structure:
            // the activation mask is sum control_value * wire stride, the
            // target table the canonical local offsets of the trailing
            // operands, the inner operator the structure's.
            if (!op.gate.has_controlled_structure()) {
                report.add("plan.ctrl-mask", Severity::kError, op_index,
                           where + ": controlled kernel but the gate has "
                                   "no derived controlled structure");
                break;
            }
            const ControlledStructure& cs = op.gate.controlled_structure();
            const auto nc = static_cast<std::size_t>(cs.num_controls);
            Index mask = 0;
            for (std::size_t i = 0; i < nc && i < op.wires.size(); ++i) {
                mask += static_cast<Index>(cs.control_values[i]) *
                        dims.stride(op.wires[i]);
            }
            if (op.ctrl_offset != mask) {
                report.add("plan.ctrl-mask", Severity::kError, op_index,
                           where + ": control offset " +
                               std::to_string(op.ctrl_offset) +
                               " != derive_controlled_structure mask " +
                               std::to_string(mask));
            }
            const std::vector<int> targets(op.wires.begin() +
                                               static_cast<std::ptrdiff_t>(
                                                   nc),
                                           op.wires.end());
            if (op.inner_offset != exec::local_offsets(dims, targets)) {
                report.add("plan.ctrl-mask", Severity::kError, op_index,
                           where + ": inner offset table differs from the "
                                   "target wires' canonical offsets");
            }
            if (op.inner.rows() != cs.inner.rows() ||
                !op.inner.approx_equal(cs.inner, kLooseTol)) {
                report.add("plan.ctrl-mask", Severity::kError, op_index,
                           where + ": inner operator differs from the "
                                   "derived controlled structure's");
            }
            break;
        }
        case KernelKind::kDense:
            break;
    }
}

void
audit_compiled(const exec::CompiledCircuit& compiled, Report& report,
               std::span<const std::uint32_t> order)
{
    const WireDims& dims = compiled.dims();
    exec::PlanCache cache(dims);
    std::vector<std::uint8_t> seen(compiled.num_source_ops(), 0);
    bool cover_ok = true;

    for (std::size_t i = 0; i < compiled.ops().size(); ++i) {
        const CompiledOp& op = compiled.ops()[i];
        std::ptrdiff_t anchor = -1;
        if (!op.source_ops.empty()) {
            const std::uint32_t first = op.source_ops.front();
            anchor = order.empty() || first >= order.size() ? first
                                                            : order[first];
        }
        audit_compiled_op(dims, op, report, anchor, &cache);

        std::uint32_t prev = 0;
        for (std::size_t j = 0; j < op.source_ops.size(); ++j) {
            const std::uint32_t s = op.source_ops[j];
            if (s >= seen.size() || seen[s] || (j > 0 && s <= prev)) {
                cover_ok = false;
            } else {
                seen[s] = 1;
            }
            prev = s;
        }
        if (op.source_ops.empty()) {
            cover_ok = false;
        }
    }
    for (const std::uint8_t s : seen) {
        cover_ok = cover_ok && s;
    }
    if (!cover_ok) {
        report.add("plan.source-cover", Severity::kError, -1,
                   "compiled ops do not cover every source operation "
                   "exactly once in ascending member order");
    }
}

}  // namespace qd::verify
