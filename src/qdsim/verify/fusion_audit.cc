#include "qdsim/verify/fusion_audit.h"

#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "qdsim/exec/kernels.h"
#include "qdsim/gate.h"

namespace qd::verify {

namespace {

using exec::FusedGroup;

/** Coarse kernel class of a gate, mirroring fusion.cc's classify():
 *  0 = light (permutation/diagonal/monomial), 1 = controlled, 2 = heavy. */
int
coarse_class(const Gate& gate)
{
    if (gate.is_permutation() || gate.is_diagonal_gate()) {
        return 0;
    }
    std::vector<Index> perm;
    std::vector<Complex> phase;
    if (exec::monomial_action(gate.matrix(), perm, phase)) {
        return 0;
    }
    return gate.has_controlled_structure() ? 1 : 2;
}

/** The fused operator of a group the audit has no compiled gate for, as
 *  a Gate, so its cached structure classifies exactly the way compile_op
 *  will. */
Gate
probe_gate(const WireDims& dims, std::span<const Operation> ops,
           const FusedGroup& group)
{
    std::vector<int> gdims;
    gdims.reserve(group.wires.size());
    for (const int w : group.wires) {
        gdims.push_back(dims.dim(w));
    }
    return Gate("fused-audit", std::move(gdims),
                exec::fused_matrix(dims, ops, group));
}

std::string
members_str(const FusedGroup& group)
{
    std::string s = "group {";
    for (std::size_t i = 0; i < group.members.size(); ++i) {
        if (i != 0) {
            s += ',';
        }
        s += std::to_string(group.members[i]);
    }
    return s + "}";
}

/** Structural invariants of a partition; returns true when the cover is
 *  sound enough for the order/fence/cost checks to be meaningful. */
bool
check_cover(std::span<const Operation> ops,
            std::span<const FusedGroup> groups, Report& report)
{
    std::vector<std::uint8_t> seen(ops.size(), 0);
    bool ok = true;
    for (const FusedGroup& g : groups) {
        if (g.members.empty()) {
            report.add("fusion.cover", Severity::kError, -1,
                       "empty fused group in the partition");
            ok = false;
            continue;
        }
        std::uint32_t prev = 0;
        for (std::size_t j = 0; j < g.members.size(); ++j) {
            const std::uint32_t m = g.members[j];
            if (m >= ops.size()) {
                report.add("fusion.cover", Severity::kError, -1,
                           members_str(g) + ": member " + std::to_string(m) +
                               " outside the operation sequence");
                ok = false;
            } else if (seen[m]) {
                report.add("fusion.cover", Severity::kError,
                           static_cast<std::ptrdiff_t>(m),
                           members_str(g) + ": op appears in two groups");
                ok = false;
            } else {
                seen[m] = 1;
            }
            if (j > 0 && m <= prev) {
                report.add("fusion.cover", Severity::kError,
                           static_cast<std::ptrdiff_t>(m),
                           members_str(g) + ": members not ascending");
                ok = false;
            }
            prev = m;
        }
    }
    for (std::size_t i = 0; i < seen.size(); ++i) {
        if (!seen[i]) {
            report.add("fusion.cover", Severity::kError,
                       static_cast<std::ptrdiff_t>(i),
                       "op missing from every fused group");
            ok = false;
        }
    }
    return ok;
}

void
check_wires(const WireDims& dims, std::span<const Operation> ops,
            const FusedGroup& g, Report& report)
{
    std::set<int> wire_set;
    for (const int w : g.wires) {
        if (w < 0 || w >= dims.num_wires() || !wire_set.insert(w).second) {
            report.add("fusion.wires", Severity::kError,
                       g.members.empty()
                           ? -1
                           : static_cast<std::ptrdiff_t>(g.members.front()),
                       members_str(g) + ": group wire " + std::to_string(w) +
                           " out of range or duplicated");
            return;
        }
    }
    for (const std::uint32_t m : g.members) {
        if (m >= ops.size()) {
            continue;
        }
        for (const int w : ops[m].wires) {
            if (!wire_set.count(w)) {
                report.add("fusion.wires", Severity::kError,
                           static_cast<std::ptrdiff_t>(m),
                           members_str(g) + ": member op wire " +
                               std::to_string(w) +
                               " not covered by the group wires");
            }
        }
    }
}

std::uint64_t
group_cost(const WireDims& dims, const FusedGroup& g, const Gate& fused)
{
    return exec::estimate_block_cost(dims, g.wires, fused, dims.size());
}

std::uint64_t
member_cost_sum(const WireDims& dims, std::span<const Operation> ops,
                const FusedGroup& g)
{
    std::uint64_t sum = 0;
    for (const std::uint32_t m : g.members) {
        const Operation& op = ops[m];
        sum += exec::estimate_block_cost(dims, op.wires, op.gate,
                                         dims.size());
    }
    return sum;
}

/** Admission slack absorbing float noise in fused-matrix products. */
bool
cost_within(std::uint64_t cand, std::uint64_t parts)
{
    return static_cast<double>(cand) <=
           static_cast<double>(parts) * (1.0 + 1e-9) + 1.0;
}

/** Cap, class-algebra and (check_cost) cost checks of every fused
 *  multi-wire group. `fused[k]` is groups[k]'s fused operator when the
 *  partition comes from a compilation; empty builds each from its
 *  members. */
void
check_caps_and_cost(const WireDims& dims, std::span<const Operation> ops,
                    std::span<const FusedGroup> groups,
                    std::span<const Gate> fused, bool check_cost,
                    Report& report)
{
    for (std::size_t k = 0; k < groups.size(); ++k) {
        const FusedGroup& g = groups[k];
        if (g.wires.size() <= 1) {
            continue;  // single-wire collapses run the unrolled kernels
        }
        if (g.members.size() < 2) {
            continue;  // nothing fused; compiled exactly like a plain op
        }
        const Gate gate = fused.empty() ? probe_gate(dims, ops, g) : fused[k];
        const std::ptrdiff_t anchor =
            static_cast<std::ptrdiff_t>(g.members.front());
        if (gate.block_size() > exec::kFusionMaxBlock) {
            report.add("fusion.cap", Severity::kError, anchor,
                       members_str(g) + ": fused block " +
                           std::to_string(gate.block_size()) +
                           " exceeds the cap " +
                           std::to_string(exec::kFusionMaxBlock));
        }

        // Class algebra: a group built purely from light members must
        // still land on a light (cycle-walk/diagonal) kernel.
        bool all_light = true;
        for (const std::uint32_t m : g.members) {
            all_light = all_light && coarse_class(ops[m].gate) == 0;
        }
        if (all_light && coarse_class(gate) != 0) {
            report.add("fusion.class-algebra", Severity::kError, anchor,
                       members_str(g) +
                           ": light members fused into a non-light block");
        }

        if (check_cost) {
            const std::uint64_t cost = group_cost(dims, g, gate);
            const std::uint64_t parts = member_cost_sum(dims, ops, g);
            if (!cost_within(cost, parts)) {
                report.add("fusion.cost-regression", Severity::kError,
                           anchor,
                           members_str(g) + ": fused cost " +
                               std::to_string(cost) +
                               " exceeds bound over member costs " +
                               std::to_string(parts));
            }
        }
    }
}

void
check_order_and_fences(std::span<const Operation> ops,
                       std::span<const std::uint8_t> fence_after,
                       std::span<const FusedGroup> groups, Report& report)
{
    const std::size_t n = ops.size();

    // Execution position of every op in the concatenated group order.
    std::vector<std::size_t> exec_pos(n, 0);
    std::size_t pos = 0;
    for (const FusedGroup& g : groups) {
        for (const std::uint32_t m : g.members) {
            exec_pos[m] = pos++;
        }
    }

    // Commute safety: when op m executes, every earlier op sharing one of
    // its wires must already have executed (ops may only slide past
    // disjoint-wire groups). Per-wire pending index sets give the
    // earliest not-yet-executed op on each wire.
    std::vector<std::set<std::uint32_t>> pending;
    int max_wire = -1;
    for (const Operation& op : ops) {
        for (const int w : op.wires) {
            max_wire = std::max(max_wire, w);
        }
    }
    pending.resize(static_cast<std::size_t>(max_wire + 1));
    for (std::uint32_t m = 0; m < n; ++m) {
        for (const int w : ops[m].wires) {
            if (w >= 0) {
                pending[static_cast<std::size_t>(w)].insert(m);
            }
        }
    }
    for (const FusedGroup& g : groups) {
        for (const std::uint32_t m : g.members) {
            for (const int w : ops[m].wires) {
                if (w < 0) {
                    continue;
                }
                auto& set = pending[static_cast<std::size_t>(w)];
                if (!set.empty() && *set.begin() < m) {
                    report.add("fusion.commute", Severity::kError,
                               static_cast<std::ptrdiff_t>(m),
                               members_str(g) + ": op slid past op " +
                                   std::to_string(*set.begin()) +
                                   " sharing wire " + std::to_string(w));
                }
            }
            for (const int w : ops[m].wires) {
                if (w >= 0) {
                    pending[static_cast<std::size_t>(w)].erase(m);
                }
            }
        }
    }

    if (fence_after.empty()) {
        return;
    }

    // Fences: nothing after fence f may execute before anything at or
    // before f (prefix-max vs suffix-min of execution positions), and no
    // group may span a fence internally.
    std::vector<std::size_t> fence_prefix(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        fence_prefix[i + 1] = fence_prefix[i] + (fence_after[i] ? 1 : 0);
    }
    for (const FusedGroup& g : groups) {
        const std::uint32_t lo = g.members.front();
        const std::uint32_t hi = g.members.back();
        if (fence_prefix[hi] - fence_prefix[lo] > 0) {
            report.add("fusion.fence-span", Severity::kError,
                       static_cast<std::ptrdiff_t>(lo),
                       members_str(g) + ": fused block spans a noise fence "
                                        "between its members");
        }
    }
    std::vector<std::size_t> prefix_max(n, 0);
    std::vector<std::size_t> suffix_min(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        prefix_max[i] =
            i ? std::max(prefix_max[i - 1], exec_pos[i]) : exec_pos[i];
    }
    for (std::size_t i = n; i-- > 0;) {
        suffix_min[i] = i + 1 < n ? std::min(suffix_min[i + 1], exec_pos[i])
                                  : exec_pos[i];
    }
    for (std::size_t f = 0; f + 1 < n; ++f) {
        if (fence_after[f] && prefix_max[f] > suffix_min[f + 1]) {
            report.add("fusion.fence-span", Severity::kError,
                       static_cast<std::ptrdiff_t>(f),
                       "an op crossed the noise fence after op " +
                           std::to_string(f) + " in the fused order");
        }
    }
}

void
audit_partition_impl(const WireDims& dims, std::span<const Operation> ops,
                     std::span<const std::uint8_t> fence_after,
                     std::span<const FusedGroup> groups,
                     std::span<const Gate> fused, bool check_cost,
                     Report& report)
{
    if (!fence_after.empty() && fence_after.size() != ops.size()) {
        report.add("fusion.cover", Severity::kError, -1,
                   "fence_after length does not match the op sequence");
        return;
    }
    if (!check_cover(ops, groups, report)) {
        return;
    }
    for (const FusedGroup& g : groups) {
        check_wires(dims, ops, g, report);
    }
    check_order_and_fences(ops, fence_after, groups, report);
    check_caps_and_cost(dims, ops, groups, fused, check_cost, report);
}

}  // namespace

void
audit_partition(const WireDims& dims, std::span<const Operation> ops,
                std::span<const std::uint8_t> fence_after,
                std::span<const FusedGroup> groups, Report& report)
{
    audit_partition_impl(dims, ops, fence_after, groups, {},
                         /*check_cost=*/true, report);
}

void
audit_fusion(const exec::CompiledCircuit& compiled,
             std::span<const Operation> ops,
             std::span<const std::uint8_t> fence_after,
             const exec::FusionOptions& options, Report& report)
{
    const WireDims& dims = compiled.dims();
    std::vector<FusedGroup> groups;
    std::vector<Gate> fused;
    groups.reserve(compiled.num_ops());
    fused.reserve(compiled.num_ops());
    for (const exec::CompiledOp& op : compiled.ops()) {
        if (op.gate.empty()) {
            return;  // released payload; audit_compiled reports it
        }
        groups.push_back(FusedGroup{op.wires, op.source_ops});
        fused.push_back(op.gate);
    }
    // Structural invariants; the singleton-sum cost bound is replaced by
    // the exact two-level contract below (stage-1 single-wire collapses
    // may legitimately exceed it — the builder's documented exemption).
    audit_partition_impl(dims, ops, fence_after, groups, fused,
                         /*check_cost=*/false, report);
    if (report.has_errors()) {
        return;  // cover/order broken; cost accounting is meaningless
    }

    if (!options.enabled) {
        return;  // every op its own group: no merge to account for
    }
    const std::vector<FusedGroup> stage1 =
        exec::fuse_stage1(dims, ops, fence_after);
    std::vector<std::size_t> op_to_group(ops.size(), 0);
    for (std::size_t k = 0; k < groups.size(); ++k) {
        for (const std::uint32_t m : groups[k].members) {
            op_to_group[m] = k;
        }
    }
    // A stage-1 group's cost, evaluated on first use: a lone op is its own
    // operator, a group stage 2 kept whole is the compiled op's gate, and
    // only groups merged on into a stage-2 union need their product.
    std::vector<std::uint64_t> stage1_cost(stage1.size(), 0);
    std::vector<std::uint8_t> costed(stage1.size(), 0);
    const auto cost_of = [&](std::size_t s) {
        const FusedGroup& g = stage1[s];
        if (!costed[s]) {
            const std::size_t k = op_to_group[g.members.front()];
            Gate gate;
            if (g.members.size() == 1) {
                gate = ops[g.members.front()].gate;
            } else if (groups[k].members == g.members &&
                       groups[k].wires == g.wires) {
                gate = fused[k];
            } else {
                gate = probe_gate(dims, ops, g);
            }
            stage1_cost[s] = group_cost(dims, g, gate);
            costed[s] = 1;
        }
        return stage1_cost[s];
    };

    // Stage-1 contract: a multi-wire class-algebra merge never exceeds
    // the summed cost of its members (light stays light, controlled
    // merges share one pass, dense blocks only absorb).
    std::vector<std::size_t> op_to_stage1(ops.size(), 0);
    for (std::size_t s = 0; s < stage1.size(); ++s) {
        const FusedGroup& g = stage1[s];
        for (const std::uint32_t m : g.members) {
            op_to_stage1[m] = s;
        }
        if (g.wires.size() > 1 && g.members.size() > 1 &&
            !cost_within(cost_of(s), member_cost_sum(dims, ops, g))) {
            report.add("fusion.cost-regression", Severity::kError,
                       static_cast<std::ptrdiff_t>(g.members.front()),
                       members_str(g) +
                           ": stage-1 merge costlier than its members");
        }
    }

    // Stage-2 contract: a union merge of whole stage-1 groups was
    // admitted at est(union) <= sum(est(stage-1 parts)).
    for (std::size_t k = 0; k < groups.size(); ++k) {
        const FusedGroup& g = groups[k];
        std::set<std::size_t> parts;
        for (const std::uint32_t m : g.members) {
            parts.insert(op_to_stage1[m]);
        }
        if (parts.size() < 2) {
            continue;  // identical to a stage-1 group (or finer; stage 2
                       // only coarsens, so finer would fail the cover)
        }
        bool whole = true;
        for (const std::size_t s : parts) {
            whole = whole && std::includes(g.members.begin(),
                                           g.members.end(),
                                           stage1[s].members.begin(),
                                           stage1[s].members.end());
        }
        if (!whole) {
            continue;  // not a coarsening; structural checks already ran
        }
        std::uint64_t part_sum = 0;
        for (const std::size_t s : parts) {
            part_sum += cost_of(s);
        }
        const std::uint64_t cost = group_cost(dims, g, fused[k]);
        if (!cost_within(cost, part_sum)) {
            report.add("fusion.cost-regression", Severity::kError,
                       static_cast<std::ptrdiff_t>(g.members.front()),
                       members_str(g) + ": union cost " +
                           std::to_string(cost) +
                           " exceeds the admission bound over its stage-1 "
                           "parts (" +
                           std::to_string(part_sum) + ")");
        }
    }
}

}  // namespace qd::verify
