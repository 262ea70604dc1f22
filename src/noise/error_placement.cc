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

NoisyProgram
compile_noisy(const Circuit& circuit, const NoiseModel& model,
              const exec::FusionOptions& fusion)
{
    NoisyProgram program{exec::PlanCache(circuit.dims()), {}, {}, {}, {}, {}};
    const std::vector<std::vector<ErrorSite>> op_sites =
        enumerate_error_sites(circuit, model);
    // The schedule over circuit ops, and the moment of each position.
    std::vector<Moment> schedule;
    std::vector<std::uint32_t> moment_of;
    Circuit laid_out(circuit.dims());
    if (model.has_damping() || model.has_dephasing() || !fusion.enabled) {
        // With fusion off the compile ignores the fences: one kernel per
        // op on the ASAP moment schedule.
        schedule = schedule_asap(circuit);
        for (std::size_t m = 0; m < schedule.size(); ++m) {
            for (const std::size_t i : schedule[m].op_indices) {
                const Operation& op = circuit.ops()[i];
                laid_out.append(op.gate, op.wires);
                program.order.push_back(static_cast<std::uint32_t>(i));
                program.fences.push_back(0);
                moment_of.push_back(static_cast<std::uint32_t>(m));
            }
            program.fences.back() = 1;
        }
    } else {
        // Gate errors are the only noise: circuit order as one moment,
        // fenced at every op that draws a channel.
        Moment all;
        for (std::size_t i = 0; i < circuit.num_ops(); ++i) {
            all.op_indices.push_back(i);
            all.has_multi_qudit =
                all.has_multi_qudit || circuit.ops()[i].gate.arity() >= 2;
        }
        schedule.push_back(std::move(all));
        moment_of.assign(circuit.num_ops(), 0);
        program.fences = error_fences(op_sites);
    }
    program.compiled = exec::CompiledCircuit(
        program.order.empty() ? circuit : laid_out, fusion, program.fences,
        &program.cache);
    program.moments.resize(schedule.size());
    for (std::size_t m = 0; m < schedule.size(); ++m) {
        program.moments[m].has_multi_qudit = schedule[m].has_multi_qudit;
    }
    program.sites.resize(program.compiled.num_ops());
    for (std::size_t k = 0; k < program.compiled.num_ops(); ++k) {
        const std::vector<std::uint32_t>& members =
            program.compiled.ops()[k].source_ops;
        program.moments[moment_of[members.front()]].op_indices.push_back(k);
        for (const std::uint32_t s : members) {
            const auto& from =
                op_sites[program.order.empty() ? s : program.order[s]];
            program.sites[k].insert(program.sites[k].end(), from.begin(),
                                    from.end());
        }
    }
    return program;
}

}  // namespace qd::noise
