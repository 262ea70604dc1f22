#include "noise/error_placement.h"

namespace qd::noise {

std::vector<std::vector<ErrorSite>>
enumerate_error_sites(const Circuit& circuit, const NoiseModel& model)
{
    std::vector<std::vector<ErrorSite>> sites(circuit.num_ops());
    for (std::size_t i = 0; i < circuit.num_ops(); ++i) {
        const Operation& op = circuit.ops()[i];
        const int arity = op.gate.arity();
        if (arity == 1) {
            if (model.p1 <= 0) {
                continue;
            }
            const int d = op.gate.dims()[0];
            sites[i].push_back(
                ErrorSite{op.wires, {d}, model.per_channel_1q(d)});
            continue;
        }
        if (model.p2 <= 0) {
            continue;
        }
        if (arity == 2) {
            sites[i].push_back(ErrorSite{
                op.wires, op.gate.dims(),
                model.per_channel_2q(op.gate.dims()[0],
                                     op.gate.dims()[1])});
            continue;
        }
        // Three-or-more-qudit gates: an independent two-qudit error on
        // each adjacent operand pair (conservative count for undecomposed
        // circuits, matching the paper's per-gate accounting).
        for (std::size_t j = 0; j + 1 < op.wires.size(); j += 2) {
            const std::vector<int> pair_dims = {op.gate.dims()[j],
                                                op.gate.dims()[j + 1]};
            sites[i].push_back(ErrorSite{
                {op.wires[j], op.wires[j + 1]},
                pair_dims,
                model.per_channel_2q(pair_dims[0], pair_dims[1])});
        }
    }
    return sites;
}

std::vector<std::uint8_t>
error_fences(const std::vector<std::vector<ErrorSite>>& sites)
{
    std::vector<std::uint8_t> fences(sites.size(), 0);
    for (std::size_t i = 0; i < sites.size(); ++i) {
        fences[i] = sites[i].empty() ? 0 : 1;
    }
    return fences;
}

NoisyLayout
noisy_layout(const Circuit& circuit, const NoiseModel& model,
             const std::vector<std::vector<ErrorSite>>& sites,
             bool fusion_enabled)
{
    NoisyLayout layout;
    layout.by_moment =
        model.has_damping() || model.has_dephasing() || !fusion_enabled;
    if (!layout.by_moment) {
        layout.fences = error_fences(sites);
        return layout;
    }
    layout.moments = schedule_asap(circuit);
    layout.order.reserve(circuit.num_ops());
    layout.fences.reserve(circuit.num_ops());
    for (const Moment& moment : layout.moments) {
        for (const std::size_t i : moment.op_indices) {
            layout.order.push_back(static_cast<std::uint32_t>(i));
            layout.fences.push_back(0);
        }
        layout.fences.back() = 1;
    }
    return layout;
}

}  // namespace qd::noise
