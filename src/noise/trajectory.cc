#include "noise/trajectory.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include "noise/channels.h"
#include "noise/error_placement.h"
#include "noise/trajectory_testing.h"
#include "qdsim/exec/batched_kernels.h"
#include "qdsim/exec/batched_state.h"
#include "qdsim/exec/compile_service.h"
#include "qdsim/exec/compiled_circuit.h"
#include "qdsim/moments.h"
#include "qdsim/obs/counters.h"
#include "qdsim/obs/trace.h"
#include "qdsim/random_state.h"

namespace qd::noise {

namespace {

/** Default lanes per batched circuit pass (TrajectoryOptions::batch == 0).
 *  Lanes pay off because every lane of a pass shares one read of the
 *  plan's offset tables and the gate payload, and B lanes take one kernel
 *  dispatch instead of B. A 12-lane batch of a width-12 qutrit register
 *  spans 102 MB, but from qubit-subspace inputs it is tracked
 *  (exec::Support::kTracked): a pass walks the lanes' occupied support,
 *  about 2% of it, and pages outside the support are never faulted, so
 *  the batch's cache footprint is a few MB; a wider batch walks a larger
 *  union of supports. Measured on QUTRIT x SC and DRESSED_QUTRIT at
 *  width 12 (48 trials, 4 threads, 4-core Xeon, tracked), widths 4 to 16
 *  were within the host's noise of each other and 2 lanes were slowest;
 *  12 was fastest on the 5-qutrit bench_batch workload, with the curve
 *  flat between 8 and 16. */
constexpr int kDefaultBatchLanes = 12;

/** Live testing::DenseSupportScope count. */
std::atomic<int> g_dense_scopes{0};

}  // namespace

testing::DenseSupportScope::DenseSupportScope()
{
    g_dense_scopes.fetch_add(1);
}

testing::DenseSupportScope::~DenseSupportScope()
{
    g_dense_scopes.fetch_sub(1);
}

/**
 * Precomputed per-circuit state shared by all trajectories (the payload
 * behind TrajectoryCompilation, cached across requests by the
 * CompileService): two compiled circuits over one shared plan cache —
 * `ideal` (fully fused) for the noiseless reference passes, `noisy`
 * (fused only between noise boundaries: error sites, or moments under
 * idle noise) for the moment loop — the per-compiled-op precompiled
 * depolarizing error draws, the moment schedule and, for
 * uniform-dimension registers, a
 * per-basis-index key packing the excited-level counts (n1, n2), which
 * lets the no-jump damping operator of ALL wires apply as one
 * table-scaled pass.
 */
struct TrajectoryCompilation::Impl {
    /**
     * One precompiled error lottery: with probability `total` a uniformly
     * chosen unitary from `unitaries` fires. Compiled once per circuit so
     * every trajectory shot replays against the same plans.
     */
    struct ErrorDraw {
        Real total = 0;
        std::vector<exec::CompiledOp> unitaries;
    };

    NoiseModel model;             ///< the model every trial draws from
    exec::PlanCache cache;        ///< plans shared across both compilations
    exec::CompiledCircuit ideal;  ///< fully fused: ideal reference passes
    /** The noisy-loop compilation. Without idle noise, gate-error ops are
     *  fusion fences, so every error channel still attaches to its
     *  pre-fusion op boundary — this holds for stage-2 union merges too,
     *  because cost-model windows never span a fence. Under idle noise
     *  each moment is fenced instead and its wire-disjoint ops may merge
     *  into one kernel (compile_moments); a member's gate errors commute
     *  with the other members, so they run after the merged kernel. */
    exec::CompiledCircuit noisy;
    /** Per noisy-op index: the error lotteries drawn for that op, the
     *  draws of its source ops in op order (with error fences only the
     *  last source op of a fused group carries any).
     *  Pointers into `error_memo_`, deduplicated by (wires,
     *  probability). */
    std::vector<std::vector<const ErrorDraw*>> errors;
    /** Schedule over noisy-op indices. */
    std::vector<Moment> moments;
    /** Idle damping engine: fused (one table-scaled pass for the joint
     *  no-jump operator) for uniform registers with dim <= 3, the exact
     *  per-wire sequential loop otherwise. */
    bool accel = false;
    int width = 0;
    int dim = 0;
    std::vector<std::uint16_t> count_key;  ///< n1 * (width+1) + n2
    /** Damping jumps |m> -> |0>, jumps[wire][m - 1], applied to the
     *  one-lane batch a jumping lane is copied into (apply_jump). */
    std::vector<std::vector<exec::CompiledOp>> jumps;

    // Non-copyable: `errors` holds raw pointers into this object's
    // error_memo_; a copy would leave them dangling into the source.
    Impl(const Impl&) = delete;
    Impl& operator=(const Impl&) = delete;

    Impl(const Circuit& circuit, const NoiseModel& noise_model,
         const exec::FusionOptions& fusion)
        : model(noise_model),
          cache(circuit.dims()),
          ideal(circuit, fusion, {}, &cache) {
        const auto sites = enumerate_error_sites(circuit, model);
        const NoisyLayout layout =
            noisy_layout(circuit, model, sites, fusion.enabled);
        if (layout.by_moment) {
            // With fusion off the compile ignores the fences: one kernel
            // per op on the ASAP moment schedule.
            compile_moments(circuit, layout, fusion);
        } else {
            // Gate errors are the only noise: fuse between error sites.
            // Every op that draws a channel fences the partition, pinning
            // the channel to its pre-fusion boundary (noisy_layout is the
            // single source of truth shared with the density engine).
            noisy = exec::CompiledCircuit(circuit, fusion, layout.fences,
                                          &cache);
            Moment all;
            all.op_indices.resize(noisy.num_ops());
            for (std::size_t k = 0; k < noisy.num_ops(); ++k) {
                all.op_indices[k] = k;
            }
            for (const Operation& op : circuit.ops()) {
                all.has_multi_qudit =
                    all.has_multi_qudit || op.gate.arity() >= 2;
            }
            moments.push_back(std::move(all));
        }
        build_error_draws(circuit, sites, layout.order);
        const WireDims& dims = circuit.dims();
        if (model.has_damping()) {
            build_jumps(dims);
        }
        width = dims.num_wires();
        dim = dims.dim(0);
        for (int w = 0; w < width; ++w) {
            if (dims.dim(w) != dim) {
                return;  // mixed radix: no acceleration
            }
        }
        if (dim > 3) {
            return;
        }
        count_key.resize(dims.size());
        std::vector<int> digits(static_cast<std::size_t>(width), 0);
        int n1 = 0, n2 = 0;
        const int stride = width + 1;
        for (Index idx = 0;; ++idx) {
            count_key[idx] =
                static_cast<std::uint16_t>(n1 * stride + n2);
            if (idx + 1 >= dims.size()) {
                break;
            }
            for (int w = width - 1;; --w) {
                const std::size_t uw = static_cast<std::size_t>(w);
                n1 -= digits[uw] == 1;
                n2 -= digits[uw] == 2;
                if (++digits[uw] < dim) {
                    n1 += digits[uw] == 1;
                    n2 += digits[uw] == 2;
                    break;
                }
                digits[uw] = 0;
            }
        }
        accel = true;
    }

  private:
    /**
     * Moment-kernel compile of a by-moment layout: the circuit is laid
     * out in ASAP-moment order and compiled through the fusion stage with
     * a fence after each moment's last op, so the cost model can merge
     * the wire-disjoint ops of one moment (and nothing across moments)
     * into one kernel; with fusion off it is one kernel per op in that
     * order. Fills `noisy` and `moments` (over noisy-op indices). Fused
     * blocks keep their matrix only when the dense kernel reads it.
     */
    void compile_moments(const Circuit& circuit, const NoisyLayout& layout,
                         const exec::FusionOptions& fusion) {
        const std::vector<Moment>& asap = layout.moments;
        Circuit ordered(circuit.dims());
        std::vector<std::uint32_t> moment_of;
        for (std::size_t m = 0; m < asap.size(); ++m) {
            for (const std::size_t i : asap[m].op_indices) {
                const Operation& op = circuit.ops()[i];
                ordered.append(op.gate, op.wires);
                moment_of.push_back(static_cast<std::uint32_t>(m));
            }
        }
        noisy = exec::CompiledCircuit(ordered, fusion, layout.fences, &cache);
        noisy.release_fused_payloads();
        moments.resize(asap.size());
        for (std::size_t m = 0; m < asap.size(); ++m) {
            moments[m].has_multi_qudit = asap[m].has_multi_qudit;
        }
        for (std::size_t k = 0; k < noisy.num_ops(); ++k) {
            const std::uint32_t first = noisy.ops()[k].source_ops.front();
            moments[moment_of[first]].op_indices.push_back(k);
        }
    }

    /**
     * Precompiles every depolarizing error unitary the trajectory loop can
     * draw, sharing apply plans with the compiled circuits (an error on a
     * gate's wires reuses that gate's offset tables via the shared
     * cache). Placement comes from enumerate_error_sites — the same
     * policy the exact density-matrix engine compiles against, so the two
     * stay comparable. Draws are memoised by (wires, per-channel
     * probability), so a circuit with many gates on the same wire pair
     * compiles its channel once. Per-source-op draw lists are folded onto
     * the noisy compilation through CompiledOp::source_ops (source op s
     * is circuit op order[s], or op s when `order` is empty).
     */
    void build_error_draws(const Circuit& circuit,
                           const std::vector<std::vector<ErrorSite>>& sites,
                           const std::vector<std::uint32_t>& order) {
        const WireDims& dims = circuit.dims();
        std::vector<std::vector<const ErrorDraw*>> per_op(circuit.num_ops());
        for (std::size_t i = 0; i < sites.size(); ++i) {
            for (const ErrorSite& site : sites[i]) {
                const auto key =
                    std::make_pair(site.wires, site.per_channel);
                auto it = error_memo_.find(key);
                if (it == error_memo_.end()) {
                    const MixedUnitaryChannel ch =
                        site.dims.size() == 1
                            ? depolarizing1(site.dims[0], site.per_channel)
                            : depolarizing2(site.dims[0], site.dims[1],
                                            site.per_channel);
                    ErrorDraw draw;
                    draw.total = static_cast<Real>(ch.probs.size()) *
                                 site.per_channel;
                    draw.unitaries.reserve(ch.unitaries.size());
                    for (const Matrix& u : ch.unitaries) {
                        draw.unitaries.push_back(exec::compile_op(
                            dims, Gate("err", site.dims, u), site.wires,
                            &cache));
                    }
                    it = error_memo_.emplace(key, std::move(draw)).first;
                }
                per_op[i].push_back(&it->second);
            }
        }
        errors.resize(noisy.num_ops());
        for (std::size_t k = 0; k < noisy.num_ops(); ++k) {
            for (const std::uint32_t s : noisy.ops()[k].source_ops) {
                const auto& draws =
                    per_op[order.empty() ? s : order[s]];
                errors[k].insert(errors[k].end(), draws.begin(),
                                 draws.end());
            }
        }
    }

    /** Compiles every wire's damping jumps |m> -> |0>. */
    void build_jumps(const WireDims& dims) {
        jumps.resize(static_cast<std::size_t>(dims.num_wires()));
        for (int w = 0; w < dims.num_wires(); ++w) {
            const int d = dims.dim(w);
            for (int m = 1; m < d; ++m) {
                Matrix km(static_cast<std::size_t>(d),
                          static_cast<std::size_t>(d));
                km(0, static_cast<std::size_t>(m)) = Complex(1, 0);
                const int wires[1] = {w};
                jumps[static_cast<std::size_t>(w)].push_back(
                    exec::compile_op(dims, Gate("jump", {d}, km),
                                     std::span<const int>(wires, 1),
                                     &cache));
            }
        }
    }

    /** Owns the deduplicated draws; node-based map keeps pointers stable. */
    std::map<std::pair<std::vector<int>, Real>, ErrorDraw> error_memo_;
};

TrajectoryCompilation::TrajectoryCompilation(
    const Circuit& circuit, const NoiseModel& model,
    const exec::FusionOptions& fusion)
    : impl_(std::make_unique<Impl>(circuit, model, fusion)) {}

TrajectoryCompilation::~TrajectoryCompilation() = default;

const NoiseModel&
TrajectoryCompilation::model() const
{
    return impl_->model;
}

const WireDims&
TrajectoryCompilation::dims() const
{
    return impl_->noisy.dims();
}

namespace {

// The engine helpers below predate the pimpl split and read the
// compilation through its original working name.
using EngineContext = TrajectoryCompilation::Impl;
using ErrorDraw = EngineContext::ErrorDraw;

// Divergent per-lane events (fired gate errors, damping jumps, the fused
// rare branch) run on the lane copied into a one-lane batch, dense or
// tracked as its batch is (on_lane below): the same kernels and per-lane
// primitives as the batch, each bitwise the single-shot StateVector code
// on that lane up to the sign of zeros.

/** Applies a damping jump |level> -> |0> on `wire` to a one-lane batch
 *  and renormalises. A jump is only ever drawn with probability
 *  proportional to the level's population, so a zero-norm result means
 *  the engine's bookkeeping and the state disagree — fail loudly instead
 *  of propagating NaNs. */
void
apply_jump(exec::BatchedStateVector& psi, const EngineContext& ctx, int wire,
           int level, exec::ExecScratch& scratch)
{
    obs::count(obs::Counter::kTrajDampingJumps);
    exec::apply_op_batched(ctx.jumps[static_cast<std::size_t>(wire)]
                                    [static_cast<std::size_t>(level - 1)],
                           psi, scratch);
    if (psi.normalize_lanes()[0] == 0) {
        throw std::runtime_error(
            "trajectory: damping jump produced a zero-norm state");
    }
}

/** Applies the no-jump K0 diagonal of a single wire to a one-lane batch
 *  (no renormalise). */
void
apply_k0(exec::BatchedStateVector& psi, const NoiseModel& model, Real dt,
         int wire)
{
    const int d = psi.dims().dim(wire);
    std::vector<Complex> diag(static_cast<std::size_t>(d));
    diag[0] = Complex(1, 0);
    for (int m = 1; m < d; ++m) {
        diag[static_cast<std::size_t>(m)] =
            Complex(std::sqrt(1.0 - model.lambda(m, dt)), 0);
    }
    psi.apply_diag1_masked(diag, wire);
}

/** True iff any excited level of a d-dimensional wire decays at all over
 *  dt — i.e. the wire's no-jump K0 differs from the identity. */
bool
k0_nontrivial(const NoiseModel& model, Real dt, int d)
{
    for (int m = 1; m < d; ++m) {
        if (model.lambda(m, dt) > 0) {
            return true;
        }
    }
    return false;
}

/** Builds the fused no-jump scale table (indexed by packed excited-level
 *  counts) and its inverse for one moment duration. */
void
build_damping_tables(const NoiseModel& model, Real dt,
                     const EngineContext& ctx, std::vector<Real>& scale,
                     std::vector<Real>& inv)
{
    const Real l1 = model.lambda(1, dt);
    const Real l2 = ctx.dim >= 3 ? model.lambda(2, dt) : 0.0;
    const Real s1 = std::sqrt(1.0 - l1), s2 = std::sqrt(1.0 - l2);
    const int stride = ctx.width + 1;
    scale.assign(static_cast<std::size_t>(stride * stride), 1.0);
    inv.assign(scale.size(), 1.0);
    for (int n1 = 0; n1 <= ctx.width; ++n1) {
        for (int n2 = 0; n2 + n1 <= ctx.width; ++n2) {
            const Real s = std::pow(s1, n1) * std::pow(s2, n2);
            scale[static_cast<std::size_t>(n1 * stride + n2)] = s;
            inv[static_cast<std::size_t>(n1 * stride + n2)] = 1.0 / s;
        }
    }
}

/**
 * The fused path's rejected branch, entered with the joint no-jump
 * operator still applied to `psi`: undo it, then draw the jump from the
 * per-(wire, level) populations. The engine calls it on a lane copied
 * into a one-lane batch.
 */
void
fused_rare_branch(exec::BatchedStateVector& psi, const NoiseModel& model,
                  Real dt, const EngineContext& ctx, Rng& rng,
                  const std::vector<Real>& scale,
                  const std::vector<Real>& inv, exec::ExecScratch& scratch)
{
    obs::count(obs::Counter::kTrajRareBranches);
    psi.scale_by_table_lanes(ctx.count_key, inv);
    std::vector<Real> weights;
    std::vector<std::pair<int, int>> arms;  // (wire, level)
    for (int w = 0; w < ctx.width; ++w) {
        const std::vector<Real> pops = psi.populations_lanes(w);
        for (int m = 1; m < ctx.dim; ++m) {
            weights.push_back(model.lambda(m, dt) *
                              pops[static_cast<std::size_t>(m)]);
            arms.emplace_back(w, m);
        }
    }
    const std::optional<std::size_t> pick = rng.weighted_draw(weights);
    if (!pick.has_value()) {
        // Numerically-all-zero weights: there is no jump to draw (the
        // acceptance draw lost to rounding). Fall back to the no-jump
        // evolution instead of forcing a zero-population jump, which
        // used to die renormalising a zero state.
        psi.scale_by_table_lanes(ctx.count_key, scale);
        if (psi.normalize_lanes()[0] == 0) {
            throw std::runtime_error(
                "trajectory: no-jump evolution produced a zero-norm state");
        }
        return;
    }
    apply_jump(psi, ctx, arms[*pick].first, arms[*pick].second, scratch);
    for (int w = 0; w < ctx.width; ++w) {
        if (w != arms[*pick].first) {
            apply_k0(psi, model, dt, w);
        }
    }
    if (psi.normalize_lanes()[0] == 0) {
        throw std::runtime_error(
            "trajectory: no-jump evolution produced a zero-norm state");
    }
}

// --------------------------------------------------------------------------
// The engine: B trajectory lanes advance through one compiled-circuit pass
// (B = 1 for a single trajectory). Shared work (gates, no-jump scaling,
// dephasing angles) runs on all lanes at once; divergent
// per-lane events (gate-error draws, damping jumps, the fused rare branch)
// copy the lane into a one-lane batch, run the code above on it, and write
// the lane back — which is what keeps every lane's result a function of
// its own RNG stream alone, bitwise independent of the batch width.
//
// Fused idle damping runs in a damping frame (exec::BatchedStateVector::
// frame): the joint no-jump operator of a moment is a real diagonal that
// depends on the circuit alone, so it multiplies one factor per amplitude
// shared by all lanes (f) and the gate kernels carry f; a damped moment
// costs a pass over f, not over the batch. Normalisation is deferred:
// lane b's state f (.) x_b is unnormalised, and the no-jump branch is
// taken iff u * N_b < M_b (N_b, M_b the squared norms before and after the
// moment's scaling — the draw u < M_b / N_b without the division). Since
// M_b >= s_min^2 N_b for the table's smallest entry s_min, a draw below
// s_min^2 (less a margin) accepts with no norm at all; only the other
// draws take one read sweep for N_b and M_b. Per-lane events (fired gate
// errors, the rare branch) extract f (.) x_b and store the result / f;
// they never fold f into the batch, which would make f depend on the
// lanes. The frame is folded deterministically when a lower bound on its
// entries (the product of the moments' smallest table entries since the
// last fold) nears underflow, and the final fidelity divides by the
// lane's norm.
//
// Coherent dephasing runs in a phase frame (exec::BatchedStateVector::
// phase_frame): a dephased moment draws its per-(lane, wire) angles as
// before and only adds them to the frame's n x B angles; the gate kernels
// conjugate each op by the phases of its own wires, and the final
// fidelity applies the frame. The lane accessors see the true state, so
// gate errors, the rare branch and the sequential damping engine run
// unchanged, and every draw happens in the order an engine that kicks the
// lanes each moment would take it.
//
// Support tracking: a batch whose inputs occupy at most half the register
// (qubit-subspace inputs on qutrits) is tracked (exec::Support::kTracked):
// every pass walks the union of the lanes' supports, and divergent events
// run on a one-lane tracked batch. Per lane this is bitwise the dense
// walk up to the sign of zeros, with one exception:
// a tracked batch carries no damping frame, since a frame entry at an
// index outside the support is neither reset nor scaled, so a set_lane
// there would divide by a factor that depends on the other lanes. Its
// fused damping scales the occupied rows each moment instead, which
// yields N_b and M_b in the same sweep; its lanes are renormalised where
// a frame would be folded.
//
// Determinism: results are bitwise independent of the batch width and of
// the thread count. Without fused damping or dephasing there is no frame,
// so results are bitwise those of an engine that normalises and dephases
// every moment; with them, the frames and the deferred normalisation move
// per-trial fidelities by rounding only (within 1e-12, tested), and a
// tracked batch's per-moment scaling agrees with a dense batch's frame
// within 1e-12 (tested).
// --------------------------------------------------------------------------

/** One gate error drawn for one lane: the lane and the unitary it takes. */
struct FiredError {
    int lane;
    const exec::CompiledOp* unitary;
};

/** Draws one gate's per-lane depolarizing errors into `fired`, in (error
 *  site, lane) order. The draws do not depend on the state, so they may
 *  run before the gate: each lane consumes its stream in the same order
 *  either way. */
void
draw_gate_errors(const std::vector<const ErrorDraw*>& draws,
                 std::vector<Rng>& rngs, std::vector<FiredError>& fired)
{
    fired.clear();
    const int lanes = static_cast<int>(rngs.size());
    // One draw per (error site, lane) — the same lotteries an unbatched
    // shot would test, so the draw totals are batch-width invariant.
    obs::count(obs::Counter::kTrajGateErrorDraws,
               draws.size() * static_cast<std::uint64_t>(lanes));
    for (const ErrorDraw* e : draws) {
        for (int j = 0; j < lanes; ++j) {
            Rng& rng = rngs[static_cast<std::size_t>(j)];
            if (rng.uniform() >= e->total) {
                continue;  // no error on this lane
            }
            fired.push_back(
                {j, &e->unitaries[static_cast<std::size_t>(
                        rng.uniform_int(e->unitaries.size()))]});
        }
    }
}

/** Where divergent per-lane events run: a one-lane batch, dense or
 *  tracked as the engine's batch is, built on first use and reused for
 *  the rest of the batch. */
using LaneSpill = std::optional<exec::BatchedStateVector>;

/** Copies lane `j` of `psi` into the spill, runs event(lane) on it, and
 *  writes it back. */
template <class Event>
void
on_lane(exec::BatchedStateVector& psi, int j, LaneSpill& spill, Event event)
{
    obs::count(obs::Counter::kTrajLaneExtracts);
    if (!spill.has_value()) {
        spill.emplace(psi.dims(), 1, false,
                      psi.tracked() ? exec::Support::kTracked
                                    : exec::Support::kDense);
    }
    psi.extract_lane(j, *spill);
    event(*spill);
    psi.set_lane(j, *spill);
}

/** Applies drawn gate errors in draw order, each on its extracted lane. */
void
apply_gate_errors(exec::BatchedStateVector& psi,
                  const std::vector<FiredError>& fired, LaneSpill& spill,
                  exec::ExecScratch& scratch)
{
    for (const FiredError& f : fired) {
        obs::count(obs::Counter::kTrajGateErrorsFired);
        on_lane(psi, f.lane, spill, [&](exec::BatchedStateVector& lane) {
            exec::apply_op_batched(*f.unitary, lane, scratch);
        });
    }
}

/** True iff the engine carries fused idle damping in a frame. */
bool
uses_frame(const EngineContext& ctx)
{
    return ctx.model.has_damping() && ctx.accel;
}

/** The frame is folded into the lanes once its floor (a lower bound on
 *  every factor) drops below this: far above underflow, and a stored
 *  amplitude x = (f x) / f stays finite. */
constexpr Real kFrameFoldBelow = 0x1p-500;

/** The fused no-jump tables of one moment duration: the per-count-key
 *  scale, its inverse (the rare branch undoes the scaling), its smallest
 *  entry s_min, and the draw below which a lane accepts without a norm:
 *  s_min^2 less a margin for the rounding of the norm sums. */
struct DampingTables {
    std::vector<Real> scale, inv;
    Real s_min = 1;
    Real accept_below = 0;
};

DampingTables
damping_tables(const NoiseModel& model, Real dt, const EngineContext& ctx)
{
    DampingTables t;
    build_damping_tables(model, dt, ctx, t.scale, t.inv);
    t.s_min = *std::min_element(t.scale.begin(), t.scale.end());
    t.accept_below = t.s_min * t.s_min * (1.0 - 1e-9);
    return t;
}

/**
 * Fused idle damping of one moment: draws every lane's acceptance u,
 * applies the no-jump scaling, and runs the rare branch on each rejected
 * lane (extracted as the scaled state, renormalised by 1/sqrt(N_b), as
 * fused_rare_branch expects). A framed batch takes one read sweep for
 * N_b and M_b only if some draw is not below tables.accept_below and
 * scales the frame. A tracked batch carries no damping frame (its frame
 * entries at unoccupied indices would depend on the other lanes): it
 * scales its occupied rows, which yields N_b and M_b in the same sweep.
 * `frame_floor` bounds every frame factor (a tracked batch: every
 * amplitude's accumulated scaling) from below: the scaling multiplies it
 * by s_min (kernels only move factors or reset them to 1), and the frame
 * is folded (a tracked batch's lanes renormalised) when it nears
 * underflow — a function of the circuit alone, so every lane sees the
 * same folds.
 */
void
apply_idle_damping_fused(exec::BatchedStateVector& psi,
                         const NoiseModel& model, Real dt,
                         const EngineContext& ctx,
                         const DampingTables& tables, std::vector<Rng>& rngs,
                         LaneSpill& spill, exec::ExecScratch& scratch,
                         std::vector<Real>& u, std::vector<Real>& norm_sq,
                         std::vector<Real>& scaled, Real& frame_floor)
{
    const std::size_t B = static_cast<std::size_t>(psi.lanes());
    u.resize(B);
    bool sweep = false;
    for (std::size_t j = 0; j < B; ++j) {
        u[j] = rngs[j].uniform();
        sweep = sweep || u[j] >= tables.accept_below;
    }
    if (psi.frame() == nullptr) {
        scaled =
            psi.scale_by_table_lanes(ctx.count_key, tables.scale, &norm_sq);
    } else {
        if (sweep) {
            psi.damped_norm_sq_lanes(ctx.count_key, tables.scale, norm_sq,
                                     scaled);
        }
        psi.scale_frame(ctx.count_key, tables.scale);
    }
    for (std::size_t j = 0; sweep && j < B; ++j) {
        if (u[j] < tables.accept_below) {
            continue;
        }
        if (!std::isfinite(scaled[j])) {
            throw std::runtime_error(
                "trajectory: no-jump evolution produced a non-finite state");
        }
        if (u[j] * norm_sq[j] < scaled[j]) {
            continue;
        }
        on_lane(psi, static_cast<int>(j), spill,
                [&](exec::BatchedStateVector& lane) {
            const Real r = 1.0 / std::sqrt(norm_sq[j]);
            lane.for_each_occupied([&](Index i) { lane.at(i, 0) *= r; });
            fused_rare_branch(lane, model, dt, ctx, rngs[j], tables.scale,
                              tables.inv, scratch);
        });
    }
    frame_floor *= tables.s_min;
    if (frame_floor < kFrameFoldBelow) {
        obs::count(obs::Counter::kTrajFrameFolds);
        if (psi.frame() != nullptr) {
            psi.fold_frame();
        } else {
            for (const std::uint8_t ok : psi.normalize_lanes()) {
                if (ok == 0) {
                    throw std::runtime_error(
                        "trajectory: no-jump evolution produced a "
                        "zero-norm state");
                }
            }
        }
        frame_floor = 1;
    }
}

/** Batched exact per-wire sequential idle damping (mixed radix / dim > 3):
 *  populations and the no-jump K0 run lane-parallel per wire; jump lanes
 *  take apply_jump on the extracted lane. */
void
apply_idle_damping_sequential_batched(exec::BatchedStateVector& psi,
                                      const EngineContext& ctx, Real dt,
                                      std::vector<Rng>& rngs,
                                      LaneSpill& spill,
                                      exec::ExecScratch& scratch)
{
    const NoiseModel& model = ctx.model;
    const WireDims& dims = psi.dims();
    const int lanes = psi.lanes();
    const std::size_t B = static_cast<std::size_t>(lanes);
    std::vector<std::uint8_t> k0_mask(B);
    for (int w = 0; w < dims.num_wires(); ++w) {
        const int d = dims.dim(w);
        const bool nontrivial_k0 = k0_nontrivial(model, dt, d);
        const std::vector<Real> pops = psi.populations_lanes(w);
        std::fill(k0_mask.begin(), k0_mask.end(), 0);
        std::vector<Real> weights(static_cast<std::size_t>(d), 0.0);
        for (int j = 0; j < lanes; ++j) {
            const std::size_t uj = static_cast<std::size_t>(j);
            Real total = 0;
            for (int m = 1; m < d; ++m) {
                const Real pj =
                    model.lambda(m, dt) *
                    pops[static_cast<std::size_t>(m) * B + uj];
                weights[static_cast<std::size_t>(m)] = pj;
                total += pj;
            }
            const Real u = rngs[uj].uniform();
            if (u < total) {
                Real acc = 0;
                int level = d - 1;
                for (int m = 1; m < d; ++m) {
                    acc += weights[static_cast<std::size_t>(m)];
                    if (u < acc) {
                        level = m;
                        break;
                    }
                }
                on_lane(psi, j, spill, [&](exec::BatchedStateVector& lane) {
                    apply_jump(lane, ctx, w, level, scratch);
                });
            } else if (nontrivial_k0) {
                k0_mask[uj] = 1;
            }
        }
        if (!nontrivial_k0) {
            continue;
        }
        bool any = false;
        for (const std::uint8_t m : k0_mask) {
            any = any || m != 0;
        }
        if (!any) {
            continue;
        }
        std::vector<Complex> diag(static_cast<std::size_t>(d));
        diag[0] = Complex(1, 0);
        for (int m = 1; m < d; ++m) {
            diag[static_cast<std::size_t>(m)] =
                Complex(std::sqrt(1.0 - model.lambda(m, dt)), 0);
        }
        psi.apply_diag1_masked(diag, w, k0_mask);
        const auto ok = psi.normalize_lanes(k0_mask);
        for (int j = 0; j < lanes; ++j) {
            if (k0_mask[static_cast<std::size_t>(j)] != 0 &&
                ok[static_cast<std::size_t>(j)] == 0) {
                throw std::runtime_error(
                    "trajectory: no-jump evolution produced a zero-norm "
                    "state");
            }
        }
    }
}

/** Coherent dephasing kick of one moment, carried in the batch's phase
 *  frame: lane j draws one angle per wire, in wire order, and each wire's
 *  frame angle grows by it. No amplitude is touched. */
void
apply_idle_dephasing_batched(exec::BatchedStateVector& psi,
                             const NoiseModel& model, Real dt,
                             std::vector<Rng>& rngs)
{
    const std::size_t B = static_cast<std::size_t>(psi.lanes());
    const std::size_t n = static_cast<std::size_t>(psi.dims().num_wires());
    const Real s = model.dephasing_sigma * std::sqrt(dt);
    Real* theta = psi.phase_frame();
    for (std::size_t j = 0; j < B; ++j) {
        for (std::size_t w = 0; w < n; ++w) {
            theta[w * B + j] += rngs[j].gaussian() * s;
        }
    }
}

/**
 * The trajectory moment loop. `psi` holds each lane's initial state
 * (normalised) and `ideal` its noiseless output; lane j draws from
 * rngs[j]. Advances every lane through the noisy circuit together and
 * returns each lane's fidelity against its ideal output.
 */
std::vector<Real>
run_lanes(const EngineContext& ctx, exec::BatchedStateVector& psi,
          const exec::BatchedStateVector& ideal, std::vector<Rng>& rngs,
          exec::ExecScratch& scratch)
{
    const NoiseModel& model = ctx.model;
    if (obs::enabled()) {
        obs::count_unchecked(obs::Counter::kTrajShots,
                             static_cast<std::uint64_t>(psi.lanes()));
        obs::count_unchecked(obs::Counter::kTrajBatches);
    }

    // The fused no-jump tables depend only on the moment duration, which
    // takes exactly two values — build each once per batch, not per moment.
    // A tracked batch runs fused damping without a frame.
    const bool fused = uses_frame(ctx);
    DampingTables tables_1q, tables_2q;
    if (fused) {
        tables_1q = damping_tables(model, model.dt_1q, ctx);
        tables_2q = damping_tables(model, model.dt_2q, ctx);
        if (!psi.tracked()) {
            psi.start_frame();
        }
    }
    if (model.has_dephasing()) {
        psi.start_phase_frame();
    }

    LaneSpill spill;  // reused for per-lane divergent fallbacks
    std::vector<Real> u, norm_sq, scaled;
    Real frame_floor = 1;  // lower bound on the frame's factors
    std::vector<FiredError> fired;
    for (const Moment& moment : ctx.moments) {
        obs::ScopedSpan mspan("traj", "moment");
        mspan.arg("ops",
                  static_cast<std::int64_t>(moment.op_indices.size()));
        const Real dt = model.moment_duration(moment.has_multi_qudit);
        for (const std::size_t idx : moment.op_indices) {
            // A fused moment kernel's members are wire-disjoint, so their
            // errors (drawn in member order; draws do not depend on the
            // state) commute with the other members and run after it.
            draw_gate_errors(ctx.errors[idx], rngs, fired);
            exec::apply_op_batched(ctx.noisy.ops()[idx], psi, scratch);
            apply_gate_errors(psi, fired, spill, scratch);
        }
        if (fused) {
            apply_idle_damping_fused(
                psi, model, dt, ctx,
                moment.has_multi_qudit ? tables_2q : tables_1q, rngs, spill,
                scratch, u, norm_sq, scaled, frame_floor);
        } else if (model.has_damping()) {
            apply_idle_damping_sequential_batched(psi, ctx, dt, rngs, spill,
                                                  scratch);
        }
        if (model.has_dephasing()) {
            apply_idle_dephasing_batched(psi, model, dt, rngs);
        }
    }
    if (!fused) {
        return psi.fidelity_lanes(ideal);
    }
    std::vector<Real> fid;
    if (psi.frame() != nullptr) {
        fid = psi.fidelity_lanes(ideal, &norm_sq);
    } else {
        norm_sq = psi.norm_sq_lanes();
        fid = psi.fidelity_lanes(ideal);
    }
    for (std::size_t j = 0; j < fid.size(); ++j) {
        fid[j] /= norm_sq[j];
    }
    return fid;
}

/**
 * The support trajectories starting on `occupied` basis indices (nonzero
 * in some lane) run on: tracked when that is at most half the register,
 * e.g. qubit-subspace inputs on qutrits, whose walks then visit a few
 * percent of the 3^n register; dense otherwise (qubit registers, inputs
 * over the whole register), which keeps the dense walk and the damping
 * frame. A function of the inputs' support alone (and of a live
 * testing::DenseSupportScope, which forces dense), so every lane of a
 * run and run_single_trajectory agree on it.
 */
exec::Support
support_for(const WireDims& dims, Index occupied)
{
    return 2 * occupied <= dims.size() && g_dense_scopes.load() == 0
               ? exec::Support::kTracked
               : exec::Support::kDense;
}

/** Number of basis indices whose digits are all 0 or 1. */
Index
qubit_subspace_size(const WireDims& dims)
{
    Index n = 1;
    for (int w = 0; w < dims.num_wires(); ++w) {
        n *= static_cast<Index>(std::min(dims.dim(w), 2));
    }
    return n;
}

/**
 * Draws every lane's initial state straight into the batch: Haar-random
 * over the whole register, or over its qubit subspace (every digit < 2;
 * the other amplitudes stay zero, and a tracked batch's support is
 * that subspace). Lane j draws its amplitudes from
 * rngs[j] in index order and is then normalised — bitwise
 * haar_random_state / haar_random_qubit_subspace_state followed by
 * set_lane, without the per-lane temporaries.
 */
void
draw_initial_states(exec::BatchedStateVector& psi, std::vector<Rng>& rngs,
                    bool qubit_subspace)
{
    const WireDims& dims = psi.dims();
    const int lanes = psi.lanes();
    const std::size_t B = static_cast<std::size_t>(lanes);
    if (!qubit_subspace) {
        for (Index idx = 0; idx < dims.size(); ++idx) {
            for (int j = 0; j < lanes; ++j) {
                psi.at(idx, j) =
                    rngs[static_cast<std::size_t>(j)].complex_gaussian();
            }
        }
        for (const std::uint8_t ok : psi.normalize_lanes()) {
            if (ok == 0) {
                throw std::runtime_error(
                    "trajectory: degenerate zero-norm initial state");
            }
        }
        return;
    }
    // Only the qubit-subspace rows are nonzero, so the norms and the
    // scaling visit those alone, in increasing index order: the skipped
    // terms are exact zeros, so every lane is bitwise normalize_lanes().
    std::vector<Index> support;
    std::vector<Real> norm_sq(B, 0.0);
    for_each_qubit_subspace_index(dims, [&](Index idx) {
        support.push_back(idx);
        psi.occupy(idx);
        for (std::size_t j = 0; j < B; ++j) {
            const Complex a = rngs[j].complex_gaussian();
            psi.at(idx, static_cast<int>(j)) = a;
            norm_sq[j] += a.real() * a.real() + a.imag() * a.imag();
        }
    });
    std::vector<Real> inv(B);
    for (std::size_t j = 0; j < B; ++j) {
        const Real nrm = std::sqrt(norm_sq[j]);
        if (nrm <= 0 || !std::isfinite(nrm)) {
            throw std::runtime_error(
                "trajectory: degenerate zero-norm initial state");
        }
        inv[j] = 1.0 / nrm;
    }
    for (const Index idx : support) {
        for (std::size_t j = 0; j < B; ++j) {
            Complex& a = psi.at(idx, static_cast<int>(j));
            a = Complex(a.real() * inv[j], a.imag() * inv[j]);
        }
    }
}

/**
 * Runs trials [start, start + lanes) as one batch: per-lane random initial
 * states, one batched noiseless pass for the ideal outputs, then the
 * moment loop. Writes each lane's fidelity to fidelities[start + j].
 */
void
run_trajectory_batch(const EngineContext& ctx,
                     const TrajectoryOptions& options, const Rng& root,
                     int start, int lanes, std::vector<Real>& fidelities,
                     exec::ExecScratch& scratch)
{
    obs::ScopedSpan span("traj", "shot_batch");
    span.arg("start", start);
    span.arg("lanes", lanes);
    std::vector<Rng> rngs;
    rngs.reserve(static_cast<std::size_t>(lanes));
    for (int j = 0; j < lanes; ++j) {
        rngs.push_back(root.child(static_cast<std::uint64_t>(start + j)));
    }
    const WireDims& dims = ctx.noisy.dims();
    const exec::Support support =
        options.qubit_subspace_inputs
            ? support_for(dims, qubit_subspace_size(dims))
            : exec::Support::kDense;
    exec::BatchedStateVector psi(dims, lanes, uses_frame(ctx), support);
    draw_initial_states(psi, rngs, options.qubit_subspace_inputs);
    exec::BatchedStateVector ideal = psi;
    exec::run_batched(ctx.ideal, ideal, scratch);

    const std::vector<Real> fid =
        run_lanes(ctx, psi, ideal, rngs, scratch);
    for (int j = 0; j < lanes; ++j) {
        fidelities[static_cast<std::size_t>(start + j)] =
            fid[static_cast<std::size_t>(j)];
    }
}

}  // namespace

Real
run_single_trajectory(const TrajectoryCompilation& compiled,
                      const StateVector& initial,
                      const StateVector& ideal_out, Rng& rng)
{
    Index occupied = 0;
    for (const Complex& a : initial.amplitudes()) {
        occupied += a != Complex(0, 0) ? 1 : 0;
    }
    const exec::Support support = support_for(compiled.dims(), occupied);
    exec::BatchedStateVector psi(compiled.dims(), 1, false, support);
    exec::BatchedStateVector ideal(compiled.dims(), 1, false, support);
    psi.set_lane(0, initial);
    ideal.set_lane(0, ideal_out);
    std::vector<Rng> rngs{rng};
    exec::ExecScratch scratch;
    const Real fid =
        run_lanes(compiled.impl(), psi, ideal, rngs, scratch)[0];
    rng = rngs[0];  // advance the caller's stream past the draws
    return fid;
}

TrajectoryResult
run_noisy_trials(const Circuit& circuit, const NoiseModel& model,
                 const TrajectoryOptions& options)
{
    if (options.trials <= 0) {
        // A non-positive count used to divide by zero (NaN mean) and
        // size a zero-thread pool; reject it up front.
        throw std::invalid_argument(
            "run_noisy_trials: options.trials must be positive");
    }
    if (options.batch < 0) {
        throw std::invalid_argument(
            "run_noisy_trials: options.batch must be >= 0");
    }
    // The compile service verifies at admission under QD_VERIFY=strict
    // and caches the compilation across calls. After the cheap
    // argument checks so the documented invalid_argument contract wins.
    const std::shared_ptr<const exec::CompiledArtifact> artifact =
        exec::CompileService::global().compile(circuit, model,
                                               exec::EngineKind::kTrajectory,
                                               options.fusion);
    return run_noisy_trials(*artifact->trajectory, options);
}

TrajectoryResult
run_noisy_trials(const TrajectoryCompilation& compiled,
                 const TrajectoryOptions& options)
{
    const int trials = options.trials;
    if (trials <= 0) {
        throw std::invalid_argument(
            "run_noisy_trials: options.trials must be positive");
    }
    int batch = options.batch;
    if (batch < 0) {
        throw std::invalid_argument(
            "run_noisy_trials: options.batch must be >= 0");
    }
    if (batch == 0) {
        batch = std::min(kDefaultBatchLanes, trials);
    }
    // Trials are dealt out in fixed groups of `batch` lanes (the last
    // group may be narrower, covering trials < batch); lane t always runs
    // on stream root.child(t), so results are independent of the batch
    // width and of which worker claims which group.
    const int num_batches = (trials + batch - 1) / batch;

    int threads = options.threads;
    if (threads <= 0) {
        threads = static_cast<int>(std::thread::hardware_concurrency());
        if (threads <= 0) {
            threads = 1;
        }
    }
    threads = std::min(threads, num_batches);

    const EngineContext& ctx = compiled.impl();
    std::vector<Real> fidelities(static_cast<std::size_t>(trials), 0.0);
    std::atomic<int> next{0};
    const Rng root(options.seed);

    auto worker = [&]() {
        exec::ExecScratch scratch;  // reused across this worker's trials
        for (;;) {
            const int g = next.fetch_add(1);
            if (g >= num_batches) {
                return;
            }
            const int start = g * batch;
            const int lanes = std::min(batch, trials - start);
            run_trajectory_batch(ctx, options, root, start, lanes,
                                 fidelities, scratch);
        }
    };

    if (threads == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(threads));
        for (int i = 0; i < threads; ++i) {
            pool.emplace_back(worker);
        }
        for (std::thread& th : pool) {
            th.join();
        }
    }

    TrajectoryResult result;
    result.trials = trials;
    Real sum = 0, sum_sq = 0;
    for (const Real f : fidelities) {
        sum += f;
        sum_sq += f * f;
    }
    result.mean_fidelity = sum / trials;
    if (trials > 1) {
        const Real var =
            (sum_sq - sum * sum / trials) / static_cast<Real>(trials - 1);
        result.std_error = std::sqrt(std::max<Real>(var, 0) /
                                     static_cast<Real>(trials));
    }
    if (options.keep_per_trial) {
        result.per_trial = std::move(fidelities);
    }
    return result;
}

}  // namespace qd::noise
