#include "noise/density_matrix.h"

#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "noise/channels.h"
#include "noise/error_placement.h"
#include "qdsim/exec/batched_kernels.h"
#include "qdsim/exec/compile_service.h"
#include "qdsim/moments.h"
#include "qdsim/obs/trace.h"
#include "qdsim/simulator.h"

namespace qd::noise {

CompiledSuperOp
compile_superop(const WireDims& dims, const Gate& gate,
                std::span<const int> wires, exec::PlanCache* cache)
{
    if (gate.empty()) {
        throw std::invalid_argument("compile_superop: empty gate");
    }
    Matrix conj = gate.matrix();
    for (Complex& v : conj.data()) {
        v = std::conj(v);
    }
    const Gate gate_conj(gate.name() + "*", gate.dims(), std::move(conj));
    CompiledSuperOp out{
        exec::compile_op(dims, gate, wires, cache),
        exec::compile_op(dims, gate_conj, wires, cache)};
    // Only the dense kernel reads the matrix through CompiledOp::gate.
    // Dropping it elsewhere keeps a channel's Kraus operators from holding
    // two b x b payloads each (a cached density program keeps them all).
    if (out.k.kind != exec::KernelKind::kDense) {
        out.k.gate = Gate();
        out.k_conj.gate = Gate();
    }
    return out;
}

CompiledSuperOp
compile_superop(const WireDims& dims, const Matrix& op,
                std::span<const int> wires, exec::PlanCache* cache)
{
    std::vector<int> gate_dims;
    for (const int w : wires) {
        if (w < 0 || w >= dims.num_wires()) {
            throw std::invalid_argument("compile_superop: wire out of range");
        }
        gate_dims.push_back(dims.dim(w));
    }
    return compile_superop(dims, Gate("kraus", std::move(gate_dims), op),
                           wires, cache);
}

CompiledChannel
compile_channel(const WireDims& dims, const KrausChannel& channel,
                std::span<const int> wires, exec::PlanCache* cache)
{
    // Even without a caller-provided cache, the channel's operators share
    // one set of tables among themselves.
    exec::PlanCache local(dims);
    exec::PlanCache* use = cache != nullptr ? cache : &local;
    CompiledChannel out;
    out.kraus.reserve(channel.operators.size());
    for (const Matrix& k : channel.operators) {
        out.kraus.push_back(compile_superop(dims, k, wires, use));
    }
    return out;
}

DensityMatrix::DensityMatrix(const StateVector& psi)
    : dims_(psi.dims()), rho_(psi.size(), psi.size()), cache_(dims_) {
    for (Index r = 0; r < psi.size(); ++r) {
        for (Index c = 0; c < psi.size(); ++c) {
            rho_(r, c) = psi[r] * std::conj(psi[c]);
        }
    }
}

DensityMatrix::DensityMatrix(WireDims dims, const std::vector<int>& digits)
    : DensityMatrix(StateVector(std::move(dims), digits)) {}

DensityMatrix::DensityMatrix(WireDims dims, Matrix rho)
    : dims_(std::move(dims)), rho_(std::move(rho)), cache_(dims_) {
    if (static_cast<Index>(rho_.rows()) != dims_.size() ||
        static_cast<Index>(rho_.cols()) != dims_.size()) {
        throw std::invalid_argument(
            "DensityMatrix: rho size does not match register dims");
    }
}

void
DensityMatrix::apply_unitary(const Matrix& u, std::span<const int> wires)
{
    apply(compile_superop(dims_, u, wires, &cache_));
}

void
DensityMatrix::apply_channel(const KrausChannel& channel,
                             std::span<const int> wires)
{
    apply(compile_channel(dims_, channel, wires, &cache_));
}

namespace {

/** rho -> K rho K^dagger, traced as one density span. */
void
conjugate(const CompiledSuperOp& op, Matrix& rho, exec::ExecScratch& scratch)
{
    obs::ScopedSpan span("density", "superop_conjugate");
    exec::conjugate_op(op.k, op.k_conj, rho, scratch);
}

}  // namespace

void
DensityMatrix::apply(const CompiledSuperOp& op)
{
    conjugate(op, rho_, scratch_);
}

void
DensityMatrix::apply(const CompiledChannel& channel)
{
    if (channel.kraus.empty()) {
        throw std::invalid_argument("DensityMatrix::apply: empty channel");
    }
    if (channel.kraus.size() == 1) {
        conjugate(channel.kraus[0], rho_, scratch_);
        return;
    }
    if (acc_.rows() != rho_.rows()) {
        acc_ = Matrix(rho_.rows(), rho_.cols());
    } else {
        acc_.data().assign(acc_.data().size(), Complex(0, 0));
    }
    for (const CompiledSuperOp& k : channel.kraus) {
        tmp_ = rho_;
        conjugate(k, tmp_, scratch_);
        const std::vector<Complex>& src = tmp_.data();
        std::vector<Complex>& dst = acc_.data();
        for (std::size_t i = 0; i < dst.size(); ++i) {
            dst[i] += src[i];
        }
    }
    std::swap(rho_, acc_);
}

Real
DensityMatrix::fidelity(const StateVector& psi) const
{
    Complex acc(0, 0);
    for (Index r = 0; r < psi.size(); ++r) {
        for (Index c = 0; c < psi.size(); ++c) {
            acc += std::conj(psi[r]) * rho_(r, c) * psi[c];
        }
    }
    return acc.real();
}

Real
DensityMatrix::trace_real() const
{
    return rho_.trace().real();
}

namespace {

/** Gaussian dephasing on one wire: rho_{jk} *= exp(-(j-k)^2 s^2 / 2),
 *  the exact average over a random phase walk of std s per level. */
void
apply_gaussian_dephasing(DensityMatrix& dm, Matrix& rho, int wire, Real s)
{
    const WireDims& dims = dm.dims();
    for (Index r = 0; r < dims.size(); ++r) {
        for (Index c = 0; c < dims.size(); ++c) {
            const int dj = dims.digit(r, wire) - dims.digit(c, wire);
            if (dj != 0) {
                rho(r, c) *= std::exp(-0.5 * s * s * dj * dj);
            }
        }
    }
}

}  // namespace

/**
 * The payload behind DensityCompilation (cached across requests by the
 * CompileService): the fully fused ideal reference, every operator
 * and channel the evolution touches — compiled once against one shared
 * plan cache — and the flattened step program that replays the exact
 * moment-by-moment (or fused-group) application order of the original
 * inline engine.
 */
struct DensityCompilation::Impl {
    /** One replayed application. kSuperOp/kChannel index into the pools;
     *  kDephase carries its operand wire and the per-moment Gaussian
     *  std-dev (dephasing_sigma * sqrt(dt)), folded at compile time. */
    struct Step {
        enum class Kind { kSuperOp, kChannel, kDephase };
        Kind kind = Kind::kSuperOp;
        std::size_t index = 0;
        int wire = 0;
        Real sigma = 0;
    };

    NoiseModel model;              ///< the model the program was built from
    exec::PlanCache cache;         ///< plans shared by every compile below
    exec::CompiledCircuit ideal;   ///< fully fused noiseless reference
    std::vector<CompiledSuperOp> superops;
    std::vector<CompiledChannel> channels;
    std::vector<Step> steps;

    Impl(const Circuit& circuit, const NoiseModel& noise_model,
         const exec::FusionOptions& fusion)
        : model(noise_model), cache(circuit.dims()),
          ideal(circuit, exec::FusionOptions{}, {}, &cache)
    {
        const WireDims& dims = circuit.dims();

        // Gate-error channels: same placement as the trajectory engine,
        // compiled once per (wires, per-channel probability).
        const auto sites = enumerate_error_sites(circuit, model);
        std::map<std::pair<std::vector<int>, Real>, std::size_t>
            channel_memo;
        std::vector<std::vector<std::size_t>> op_channels(
            circuit.num_ops());
        {
            obs::ScopedSpan compile_span("density", "compile_channels");
            for (std::size_t i = 0; i < sites.size(); ++i) {
                for (const ErrorSite& site : sites[i]) {
                    const auto key =
                        std::make_pair(site.wires, site.per_channel);
                    auto it = channel_memo.find(key);
                    if (it == channel_memo.end()) {
                        const MixedUnitaryChannel ch =
                            site.dims.size() == 1
                                ? depolarizing1(site.dims[0],
                                                site.per_channel)
                                : depolarizing2(site.dims[0], site.dims[1],
                                                site.per_channel);
                        std::size_t block = 1;
                        for (const int d : site.dims) {
                            block *= static_cast<std::size_t>(d);
                        }
                        channels.push_back(
                            compile_channel(dims, ch.to_kraus(block),
                                            site.wires, &cache));
                        it = channel_memo
                                 .emplace(key, channels.size() - 1)
                                 .first;
                    }
                    op_channels[i].push_back(it->second);
                }
            }
        }

        // No idle noise: nothing separates gates but their error
        // channels, so the moment scaffolding is irrelevant — fuse gate
        // runs between error fences into single conjugation passes
        // (channels fence the partition and attach to their pre-fusion op
        // boundaries, exactly like the trajectory engine).
        const NoisyLayout layout =
            noisy_layout(circuit, model, sites, fusion.enabled);
        if (!layout.by_moment) {
            const auto groups = exec::fuse_sites(dims, circuit.ops(),
                                                 layout.fences, fusion);
            for (const exec::FusedGroup& group : groups) {
                if (group.members.size() == 1) {
                    const Operation& op = circuit.ops()[group.members[0]];
                    superops.push_back(compile_superop(
                        dims, op.gate, op.wires, &cache));
                } else {
                    // Wrap the product in a Gate so controlled structure
                    // survives fusion on this path too (plain-matrix
                    // compilation would densify same-signature controlled
                    // products).
                    std::vector<int> gate_dims;
                    gate_dims.reserve(group.wires.size());
                    for (const int w : group.wires) {
                        gate_dims.push_back(dims.dim(w));
                    }
                    const Gate fused_gate(
                        "fused[" + std::to_string(group.members.size()) +
                            "]",
                        std::move(gate_dims),
                        exec::fused_matrix(dims, circuit.ops(), group));
                    superops.push_back(compile_superop(
                        dims, fused_gate, group.wires, &cache));
                }
                steps.push_back(
                    {Step::Kind::kSuperOp, superops.size() - 1, 0, 0});
                for (const std::uint32_t src : group.members) {
                    for (const std::size_t ch :
                         op_channels[static_cast<std::size_t>(src)]) {
                        steps.push_back({Step::Kind::kChannel, ch, 0, 0});
                    }
                }
            }
            return;
        }

        // Compile every gate once, sharing plans across same-wire ops.
        std::vector<std::size_t> gate_ops;
        gate_ops.reserve(circuit.num_ops());
        for (const Operation& op : circuit.ops()) {
            superops.push_back(
                compile_superop(dims, op.gate, op.wires, &cache));
            gate_ops.push_back(superops.size() - 1);
        }

        // Per-wire damping channels: dt depends only on the moment type,
        // so at most two compiled variants exist per wire.
        std::map<std::pair<int, Real>, std::size_t> damping_memo;
        auto damping_for = [&](int wire, Real dt) -> std::size_t {
            const auto key = std::make_pair(wire, dt);
            auto it = damping_memo.find(key);
            if (it == damping_memo.end()) {
                const int d = dims.dim(wire);
                std::vector<Real> lambdas;
                for (int m = 1; m < d; ++m) {
                    lambdas.push_back(model.lambda(m, dt));
                }
                const int wires[1] = {wire};
                channels.push_back(compile_channel(
                    dims, amplitude_damping(d, lambdas),
                    std::span<const int>(wires, 1), &cache));
                it = damping_memo.emplace(key, channels.size() - 1).first;
            }
            return it->second;
        };

        for (const Moment& moment : layout.moments) {
            for (const std::size_t idx : moment.op_indices) {
                steps.push_back(
                    {Step::Kind::kSuperOp, gate_ops[idx], 0, 0});
                for (const std::size_t ch : op_channels[idx]) {
                    steps.push_back({Step::Kind::kChannel, ch, 0, 0});
                }
            }
            const Real dt = model.moment_duration(moment.has_multi_qudit);
            for (int w = 0; w < circuit.num_wires(); ++w) {
                if (model.has_damping()) {
                    steps.push_back(
                        {Step::Kind::kChannel, damping_for(w, dt), 0, 0});
                }
                if (model.has_dephasing()) {
                    steps.push_back({Step::Kind::kDephase, 0, w,
                                     model.dephasing_sigma *
                                         std::sqrt(dt)});
                }
            }
        }
    }
};

DensityCompilation::DensityCompilation(const Circuit& circuit,
                                       const NoiseModel& model,
                                       const exec::FusionOptions& fusion)
    : impl_(std::make_unique<Impl>(circuit, model, fusion)) {}

DensityCompilation::~DensityCompilation() = default;

const NoiseModel&
DensityCompilation::model() const
{
    return impl_->model;
}

const WireDims&
DensityCompilation::dims() const
{
    return impl_->ideal.dims();
}

Real
density_matrix_fidelity(const Circuit& circuit, const NoiseModel& model,
                        const StateVector& initial,
                        const exec::FusionOptions& fusion)
{
    // The compile service verifies at admission under QD_VERIFY=strict
    // and caches the compilation across calls.
    const std::shared_ptr<const exec::CompiledArtifact> artifact =
        exec::CompileService::global().compile(circuit, model,
                                               exec::EngineKind::kDensity,
                                               fusion);
    return density_matrix_fidelity(*artifact->density, initial);
}

Real
density_matrix_fidelity(const DensityCompilation& compiled,
                        const StateVector& initial)
{
    using Step = DensityCompilation::Impl::Step;
    const DensityCompilation::Impl& impl = compiled.impl();
    const StateVector ideal = simulate(impl.ideal, initial);
    DensityMatrix dm(initial);
    Matrix& rho = dm.mutable_rho();
    obs::ScopedSpan exec_span("density", "execute");
    exec_span.arg("steps", static_cast<std::int64_t>(impl.steps.size()));
    for (const Step& step : impl.steps) {
        switch (step.kind) {
        case Step::Kind::kSuperOp:
            dm.apply(impl.superops[step.index]);
            break;
        case Step::Kind::kChannel:
            dm.apply(impl.channels[step.index]);
            break;
        case Step::Kind::kDephase:
            apply_gaussian_dephasing(dm, rho, step.wire, step.sigma);
            break;
        }
    }
    return dm.fidelity(ideal);
}

}  // namespace qd::noise
