/**
 * Property tests for the static verification subsystem (verify/): every
 * legality rule fires on a malformed construct built for it, the whole
 * construction corpus reports zero findings (the regression tests for the
 * dead-code fixes the analyzers surfaced), compiled artifacts audit clean
 * with fusion on and off while corrupted artifacts are caught, and strict
 * mode round-trips the state-vector, trajectory/batched, and
 * density-matrix engines.
 */
#include "qdsim/verify/verify.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "apps/arithmetic.h"
#include "apps/neuron.h"
#include "constructions/gen_toffoli.h"
#include "constructions/incrementer.h"
#include "constructions/peephole.h"
#include "noise/channels.h"
#include "noise/density_matrix.h"
#include "noise/error_placement.h"
#include "noise/models.h"
#include "noise/trajectory.h"
#include "qdsim/exec/compile_service.h"
#include "qdsim/exec/kernels.h"
#include "qdsim/gate_library.h"
#include "qdsim/random_state.h"
#include "qdsim/simulator.h"
#include "qdsim/verify/fusion_audit.h"
#include "qdsim/verify/noise_audit.h"
#include "qdsim/verify/plan_audit.h"

namespace qd {
namespace {

using verify::Options;
using verify::Report;
using verify::Severity;

/** Scoped strict-mode override. */
struct StrictGuard {
    explicit StrictGuard(bool on) { verify::set_strict(on); }
    ~StrictGuard() { verify::clear_strict(); }
    StrictGuard(const StrictGuard&) = delete;
    StrictGuard& operator=(const StrictGuard&) = delete;
};

Circuit
small_mixed_circuit()
{
    Circuit c(WireDims({2, 3, 3}));
    c.append(gates::H(), {0});
    c.append(gates::H3(), {1});
    c.append(gates::Xplus1().controlled(2, 1), {0, 1});
    c.append(gates::shift(3).controlled(3, 2), {1, 2});
    c.append(gates::Z3(), {2});
    return c;
}

// ------------------------------------------------------------- legality

TEST(VerifyLegality, EachRuleFiresOnItsMalformedConstruct) {
    const WireDims dims = WireDims::uniform(2, 3);
    const auto expect_rule = [&](std::vector<Operation> ops,
                                 const char* rule) {
        const Report r = verify::analyze_ops(dims, ops);
        EXPECT_TRUE(r.has_rule(rule)) << rule << "\n" << r.to_string();
        EXPECT_TRUE(r.has_errors()) << rule;
    };
    expect_rule({{gates::H3(), {7}}}, "circuit.wire-bounds");
    expect_rule({{gates::H3(), {-1}}}, "circuit.wire-bounds");
    expect_rule({{gates::Xplus1().controlled(3, 1), {1, 1}}},
                "circuit.duplicate-wire");
    expect_rule({{gates::Xplus1().controlled(3, 1), {0}}},
                "circuit.arity-mismatch");
    expect_rule({{gates::X(), {0}}}, "circuit.dim-mismatch");
    expect_rule({{Gate{}, {0}}}, "circuit.empty-gate");
}

TEST(VerifyLegality, NonUnitarySeverityFollowsOptions) {
    const WireDims dims = WireDims::uniform(1, 2);
    const Gate lossy =
        gates::from_matrix("lossy", {2}, Matrix{{1, 0}, {0, Real(0.5)}});
    const std::vector<Operation> ops = {{lossy, {0}}};
    const Report strict_r = verify::analyze_ops(dims, ops);
    EXPECT_TRUE(strict_r.has_rule("circuit.non-unitary"));
    EXPECT_TRUE(strict_r.has_errors());
    Options lax;
    lax.allow_nonunitary = true;
    const Report lax_r = verify::analyze_ops(dims, ops, lax);
    EXPECT_TRUE(lax_r.has_rule("circuit.non-unitary"));
    EXPECT_FALSE(lax_r.has_errors());
}

TEST(VerifyLegality, CleanCircuitHasNoFindings) {
    EXPECT_TRUE(verify::analyze(small_mixed_circuit()).clean());
}

// ------------------------------------------------------------ dead code

TEST(VerifyDeadCode, FlagsIdentityAndInversePairs) {
    Circuit c(WireDims::uniform(2, 2));
    const Complex i01(0, 1);
    c.append(gates::from_matrix("gphase", {2},
                                Matrix{{i01, 0}, {0, i01}}),
             {0});
    c.append(gates::H(), {1});
    c.append(gates::H(), {1});
    const Report r = verify::analyze(c);
    EXPECT_EQ(r.count_rule("dead.identity"), 1u);
    EXPECT_EQ(r.count_rule("dead.inverse-pair"), 1u);
    EXPECT_FALSE(r.has_errors());  // warnings only
}

TEST(VerifyDeadCode, PairSeparatedByBlockerIsKept) {
    Circuit c(WireDims::uniform(2, 2));
    c.append(gates::H(), {0});
    c.append(gates::CNOT(), {0, 1});  // shares wire 0: blocks the pair
    c.append(gates::H(), {0});
    EXPECT_FALSE(verify::analyze(c).has_rule("dead.inverse-pair"));
}

// ------------------------------------ corpus regression (dead-code fixes)

TEST(VerifyCorpus, AllConstructionsReportZeroFindings) {
    // Regression for the real findings the analyzers surfaced: Toffoli
    // seam H-H pairs (QUBIT variants), compute/uncompute CNOT pairs (HE),
    // |0>-control X01 sandwich seams (qutrit incrementer), and MCZ seam
    // pairs (neuron) — all now cancelled at build time.
    std::vector<std::pair<std::string, Circuit>> corpus;
    for (const auto m : ctor::all_methods()) {
        auto gt = ctor::build_gen_toffoli(m, 5);
        corpus.emplace_back("gen-toffoli/" + gt.label,
                            std::move(gt.circuit));
    }
    corpus.emplace_back("inc/qutrit", ctor::build_qutrit_incrementer(6));
    corpus.emplace_back(
        "inc/qutrit-coarse",
        ctor::build_qutrit_incrementer(5,
                                       ctor::IncGranularity::kThreeQutrit));
    corpus.emplace_back("inc/staircase",
                        ctor::build_qubit_staircase_incrementer(6));
    corpus.emplace_back("apps/add-13", apps::build_add_constant(6, 13));
    corpus.emplace_back("apps/neuron",
                        apps::build_neuron_circuit(
                            {1, -1, 1, 1, -1, 1, -1, 1},
                            {1, 1, -1, 1, -1, -1, 1, 1},
                            apps::NeuronMethod::kQutrit));
    for (const auto& [name, circuit] : corpus) {
        const Report r = verify::analyze(circuit);
        EXPECT_TRUE(r.clean()) << name << "\n" << r.to_string();
    }
}

TEST(VerifyCorpus, PeepholePreservesUnitaryAndRemovesSeams) {
    Circuit c(WireDims::uniform(2, 2));
    c.append(gates::H(), {0});
    c.append(gates::T(), {1});
    c.append(gates::H(), {0});  // cancels op 0: only T touches in between
    c.append(gates::CNOT(), {0, 1});
    const Matrix before = circuit_unitary(c);
    const std::size_t pairs = ctor::cancel_inverse_pairs(c);
    EXPECT_EQ(pairs, 1u);
    EXPECT_EQ(c.num_ops(), 2u);
    EXPECT_TRUE(circuit_unitary(c).approx_equal_up_to_phase(before));
    EXPECT_TRUE(verify::analyze(c).clean());
}

// ---------------------------------------------------------- domain lint

TEST(VerifyDomain, QutritGenToffoliSatisfiesQubitIo) {
    // The three-qutrit granularity is all-permutation (the paper's fast
    // classical verification path); the decomposed form has cube-root
    // gates, which domain lint cannot propagate.
    auto gt = ctor::build_gen_toffoli(ctor::Method::kQutrit, 5,
                                      ctor::GenToffoliOptions{false});
    Options options;
    options.expect_qubit_io = true;
    EXPECT_TRUE(verify::analyze(gt.circuit, options).clean());
}

TEST(VerifyDomain, DirtyAncillaAndLeakAreCaught) {
    Circuit dirty(WireDims::uniform(2, 3));
    dirty.append(gates::X01(), {1});
    Options with_ancilla;
    with_ancilla.ancilla_wires = {1};
    EXPECT_TRUE(verify::analyze(dirty, with_ancilla)
                    .has_rule("qutrit.dirty-ancilla"));

    Circuit leak(WireDims::uniform(1, 3));
    leak.append(gates::Xplus1(), {0});
    Options io;
    io.expect_qubit_io = true;
    EXPECT_TRUE(verify::analyze(leak, io).has_rule("qutrit.leaked-two"));
}

TEST(VerifyDomain, MidCircuitTwoOccupancyIsLegal) {
    // |2> inside a lifted region is the paper's mechanism; only output
    // occupancy is an error.
    Circuit c(WireDims::uniform(1, 3));
    c.append(gates::Xplus1(), {0});
    c.append(gates::Xminus1(), {0});
    Options io;
    io.expect_qubit_io = true;
    io.dead_code = false;  // the pair is intentional here
    EXPECT_TRUE(verify::analyze(c, io).clean());
}

// ----------------------------------------------------------- plan audit

TEST(VerifyPlan, CompiledCorpusAuditsClean) {
    const Circuit c = small_mixed_circuit();
    const exec::CompiledCircuit compiled(c, exec::FusionOptions{}, {});
    Report r;
    verify::audit_compiled(compiled, r);
    EXPECT_TRUE(r.clean()) << r.to_string();
}

TEST(VerifyPlan, CorruptedPlansAreCaught) {
    const WireDims dims = WireDims::uniform(3, 2);
    const std::vector<int> wires = {1};
    {
        exec::ApplyPlan bad = *exec::make_apply_plan(dims, wires);
        bad.local_offset.back() = dims.size();
        Report r;
        verify::audit_plan(dims, wires, bad, r);
        EXPECT_TRUE(r.has_rule("plan.offset-bounds")) << r.to_string();
    }
    {
        exec::ApplyPlan bad = *exec::make_apply_plan(dims, wires);
        std::swap(bad.local_offset[0], bad.local_offset[1]);
        Report r;
        verify::audit_plan(dims, wires, bad, r);
        EXPECT_TRUE(r.has_rule("plan.offset-mismatch")) << r.to_string();
    }
    {
        exec::ApplyPlan bad = *exec::make_apply_plan(dims, wires);
        bad.block = 4;  // wire 1 has dim 2
        Report r;
        verify::audit_plan(dims, wires, bad, r);
        EXPECT_TRUE(r.has_errors()) << r.to_string();
    }
}

TEST(VerifyPlan, KernelClassAndControlledMaskMismatchesAreCaught) {
    const WireDims dims = WireDims::uniform(2, 3);
    {
        exec::CompiledOp op =
            exec::compile_op(dims, gates::H3(), std::vector<int>{0});
        op.kind = exec::KernelKind::kDiagonal;
        Report r;
        verify::audit_compiled_op(dims, op, r);
        EXPECT_TRUE(r.has_rule("plan.kernel-class")) << r.to_string();
    }
    {
        exec::CompiledOp op = exec::compile_op(
            dims, gates::fourier(3).controlled(3, 2),
            std::vector<int>{0, 1});
        ASSERT_EQ(op.kind, exec::KernelKind::kControlled);
        op.ctrl_offset += 1;
        Report r;
        verify::audit_compiled_op(dims, op, r);
        EXPECT_TRUE(r.has_rule("plan.ctrl-mask")) << r.to_string();
    }
}

// --------------------------------------------------------- fusion audit

TEST(VerifyFusion, BuilderPartitionsAuditCleanWithFusionOnAndOff) {
    const Circuit c = small_mixed_circuit();
    const std::vector<exec::FusionOptions> grid = {{}, {.enabled = false}};
    const std::vector<std::uint8_t> no_fences;
    std::vector<std::uint8_t> fences(c.num_ops(), 0);
    fences[2] = 1;
    for (const auto& options : grid) {
        for (const auto& f : {no_fences, fences}) {
            const exec::CompiledCircuit compiled(c, options, f);
            Report r;
            verify::audit_fusion(compiled, c.ops(), {}, f, options, r);
            EXPECT_TRUE(r.clean()) << r.to_string();
        }
    }
}

TEST(VerifyFusion, SeededPartitionViolationsAreCaught) {
    const WireDims dims = WireDims::uniform(3, 2);
    const std::vector<Operation> ops = {{gates::X(), {0}},
                                        {gates::H(), {0}},
                                        {gates::X(), {1}}};
    {
        // Group spans the fence after op 0.
        const std::vector<std::uint8_t> fences = {1, 0, 0};
        const std::vector<exec::FusedGroup> groups = {{{0}, {0, 1}},
                                                      {{1}, {2}}};
        Report r;
        verify::audit_partition(dims, ops, fences, groups, r);
        EXPECT_TRUE(r.has_rule("fusion.fence-span")) << r.to_string();
    }
    {
        // Reordered ops sharing wire 0.
        const std::vector<exec::FusedGroup> groups = {{{0}, {1}},
                                                      {{0}, {0}},
                                                      {{1}, {2}}};
        Report r;
        verify::audit_partition(dims, ops, {}, groups, r);
        EXPECT_TRUE(r.has_rule("fusion.commute")) << r.to_string();
    }
    {
        // Op 1 missing from every group.
        const std::vector<exec::FusedGroup> groups = {{{0}, {0}},
                                                      {{1}, {2}}};
        Report r;
        verify::audit_partition(dims, ops, {}, groups, r);
        EXPECT_TRUE(r.has_rule("fusion.cover")) << r.to_string();
    }
}

TEST(VerifyFusion, ByMomentFindingsNameCircuitOps) {
    // Under idle noise the noisy program lays the ops out in ASAP-moment
    // order (T on wires 1 and 2 run beside the first H) and merges each
    // moment's wire-disjoint ops into moment kernels. Compiled source_ops
    // index layout positions; the audits' findings must name circuit ops.
    Circuit c(WireDims::uniform(3, 2));
    c.append(gates::H(), {0});
    c.append(gates::H(), {0});
    c.append(gates::T(), {1});
    c.append(gates::T(), {2});
    const exec::FusionOptions fusion;
    const noise::NoisyProgram program =
        noise::compile_noisy(c, noise::sc(), fusion);
    ASSERT_EQ(program.order.size(), c.num_ops());
    Report clean;
    verify::audit_compilation(c, program.compiled, program.order,
                              program.fences, fusion, clean);
    EXPECT_TRUE(clean.clean()) << clean.to_string();

    // A fused op whose first position holds a different circuit op.
    std::size_t pos = c.num_ops();
    for (const exec::CompiledOp& op : program.compiled.ops()) {
        const std::uint32_t first = op.source_ops.front();
        if (op.source_ops.size() > 1 && program.order[first] != first) {
            pos = first;
        }
    }
    ASSERT_LT(pos, c.num_ops()) << "no reordered moment kernel";
    const auto named = static_cast<std::ptrdiff_t>(program.order[pos]);
    const auto names = [](const Report& r, const char* rule) {
        std::vector<std::ptrdiff_t> out;
        for (const verify::Finding& f : r.findings()) {
            if (f.rule == rule) {
                out.push_back(f.op_index);
            }
        }
        return out;
    };

    // Plan audit: a released payload is reported at the fused op's first
    // member, named as its circuit op.
    exec::CompiledCircuit released = program.compiled;
    released.release_fused_payloads();
    Report plan;
    verify::audit_compiled(released, plan, program.order);
    const auto plan_ops = names(plan, "plan.kernel-class");
    EXPECT_NE(std::find(plan_ops.begin(), plan_ops.end(), named),
              plan_ops.end())
        << plan.to_string();
    EXPECT_EQ(std::find(plan_ops.begin(), plan_ops.end(),
                        static_cast<std::ptrdiff_t>(pos)),
              plan_ops.end())
        << "finding names a layout position";

    // Fusion audit: a fence inside the moment kernel is spanned at the
    // same first member.
    std::vector<std::uint8_t> fences = program.fences;
    fences[pos] = 1;
    Report spans;
    verify::audit_fusion(program.compiled, c.ops(), program.order, fences,
                         fusion, spans);
    const auto span_ops = names(spans, "fusion.fence-span");
    EXPECT_NE(std::find(span_ops.begin(), span_ops.end(), named),
              span_ops.end())
        << spans.to_string();
}

// ----------------------------------------------------------- noise audit

TEST(VerifyNoise, CalibratedModelsAuditClean) {
    const WireDims dims = WireDims::uniform(2, 3);
    for (const auto& model :
         {noise::sc(), noise::sc_t1(), noise::sc_gates(),
          noise::sc_t1_gates(), noise::bare_qutrit(),
          noise::dressed_qutrit()}) {
        EXPECT_TRUE(verify::analyze_noise(model, dims).clean())
            << model.name;
    }
}

TEST(VerifyNoise, NegativeParameterIsErrorSaturationIsWarning) {
    noise::NoiseModel negative = noise::sc();
    negative.p1 = -0.5;
    const Report neg_r =
        verify::analyze_noise(negative, WireDims::uniform(2, 3));
    EXPECT_TRUE(neg_r.has_errors());

    // Amplified stress models (total gate error > 1) stay runnable: the
    // trajectory sampler saturates, so this is a warning, not an error.
    noise::NoiseModel amplified = noise::sc();
    amplified.p1 *= 300;
    amplified.p2 *= 300;
    const Report amp_r =
        verify::analyze_noise(amplified, WireDims::uniform(2, 3));
    EXPECT_FALSE(amp_r.has_errors()) << amp_r.to_string();
    EXPECT_TRUE(amp_r.has_rule("noise.probability"));
}

/** The model audit as it was before each dimension's generalized Paulis
 *  were audited once: every depolarizing channel built in full and run
 *  through audit_mixed_unitary. The reference analyze_noise must match on
 *  small registers. */
Report
full_channel_noise_audit(const noise::NoiseModel& model, const WireDims& dims,
                         Real tol = kLooseTol)
{
    Report report;
    const auto bad_param = [&](const std::string& message) {
        report.add("noise.probability", Severity::kError, -1,
                   "model '" + model.name + "': " + message);
    };
    if (model.p1 < 0 || model.p2 < 0) {
        bad_param("negative gate-error probability");
    }
    if (model.dt_1q < 0 || model.dt_2q < 0) {
        bad_param("negative moment duration");
    }
    for (const Real r : model.decay_rates) {
        if (r < 0) {
            bad_param("negative decay rate " + std::to_string(r));
        }
    }
    std::set<int> distinct(dims.dims().begin(), dims.dims().end());
    const auto saturated = [&](const std::string& message) {
        report.add("noise.probability", Severity::kWarning, -1,
                   "model '" + model.name + "': " + message);
    };
    for (const int d : distinct) {
        const Real total1 = model.gate_error_total_1q(d);
        if (total1 < -tol) {
            bad_param("total 1q gate error " + std::to_string(total1) +
                      " negative for d=" + std::to_string(d));
        } else if (total1 > 1 + tol) {
            saturated("total 1q gate error " + std::to_string(total1) +
                      " > 1 (sampler saturates) for d=" +
                      std::to_string(d));
        } else if (model.p1 > 0) {
            verify::audit_mixed_unitary(
                noise::depolarizing1(d, model.per_channel_1q(d)), report,
                "depolarizing1(d=" + std::to_string(d) + ")", tol);
        }
        for (const int e : distinct) {
            if (e < d) {
                continue;
            }
            const Real total2 = model.gate_error_total_2q(d, e);
            if (total2 < -tol) {
                bad_param("total 2q gate error " + std::to_string(total2) +
                          " negative for (" + std::to_string(d) + "," +
                          std::to_string(e) + ")");
            } else if (total2 > 1 + tol) {
                saturated("total 2q gate error " + std::to_string(total2) +
                          " > 1 (sampler saturates) for (" +
                          std::to_string(d) + "," + std::to_string(e) +
                          ")");
            } else if (model.p2 > 0) {
                verify::audit_mixed_unitary(
                    noise::depolarizing2(d, e, model.per_channel_2q(d, e)),
                    report,
                    "depolarizing2(" + std::to_string(d) + "," +
                        std::to_string(e) + ")",
                    tol);
            }
        }
    }
    if (model.has_damping()) {
        for (const Real dt : {model.dt_1q, model.dt_2q}) {
            if (dt <= 0) {
                continue;
            }
            for (const int d : distinct) {
                std::vector<Real> lambdas;
                bool in_range = true;
                for (int m = 1; m < d; ++m) {
                    const Real lm = model.lambda(m, dt);
                    in_range = in_range && lm >= -tol && lm <= 1 + tol;
                    lambdas.push_back(std::clamp<Real>(lm, 0, 1));
                }
                if (!in_range) {
                    bad_param("damping probability outside [0, 1] for d=" +
                              std::to_string(d));
                    continue;
                }
                verify::audit_kraus(noise::amplitude_damping(d, lambdas),
                                    report,
                                    "amplitude_damping(d=" +
                                        std::to_string(d) +
                                        ", dt=" + std::to_string(dt) + ")",
                                    tol);
            }
        }
    }
    return report;
}

TEST(VerifyNoise, PauliAuditMatchesFullChannelAudit) {
    // analyze_noise audits each dimension's generalized Paulis once
    // instead of building every two-qudit depolarizing operator; on
    // registers of qubits and qutrits it must report exactly what the
    // full per-operator audit reports, warnings and errors included.
    // Saturates the qutrit channels (a warning) but not the qubit ones.
    noise::NoiseModel amplified = noise::sc_t1_gates();
    amplified.name = "AMPLIFIED";
    amplified.p1 = 0.05;
    amplified.p2 = 0.02;
    noise::NoiseModel negative = noise::sc();
    negative.name = "NEGATIVE";
    negative.p1 = -0.5;
    negative.p2 = -1e-3;
    noise::NoiseModel two_qubit_only = noise::sc_gates();
    two_qubit_only.name = "P2_ONLY";
    two_qubit_only.p1 = 0;
    std::vector<noise::NoiseModel> models = {amplified, negative,
                                             two_qubit_only};
    for (const auto& group : {noise::superconducting_models(),
                              noise::trapped_ion_models()}) {
        models.insert(models.end(), group.begin(), group.end());
    }
    std::size_t findings = 0;
    for (const auto& reg : std::vector<std::vector<int>>{
             {2, 2}, {3, 3}, {2, 3}, {3, 2, 3, 2}}) {
        const WireDims dims(reg);
        for (const noise::NoiseModel& m : models) {
            const Report got = verify::analyze_noise(m, dims);
            const Report want = full_channel_noise_audit(m, dims);
            EXPECT_EQ(got.to_string(), want.to_string())
                << m.name << " on " << dims.num_wires() << " wires";
            findings += want.findings().size();
        }
    }
    EXPECT_GT(findings, 0u);  // the comparison is not of empty reports
}

TEST(VerifyNoise, WideQuditPairAuditFinishes) {
    // A (13,13) wire pair: the full audit would build and check 28560
    // operators of 169 x 169 and did not finish in minutes; the Pauli
    // audit checks 168 operators of 13 x 13.
    const WireDims dims({13, 13});
    const Report r = verify::analyze_noise(noise::sc_t1_gates(), dims);
    EXPECT_FALSE(r.has_errors()) << r.to_string();
    EXPECT_FALSE(r.has_rule("noise.unitary"));
}

TEST(VerifyNoise, BrokenKrausSetIsCaught) {
    noise::KrausChannel damaged = noise::amplitude_damping(2, {0.3});
    damaged.operators.pop_back();
    Report r;
    verify::audit_kraus(damaged, r, "damaged");
    EXPECT_TRUE(r.has_rule("noise.cptp"));
}

// ----------------------------------------------------------- strict mode

TEST(VerifyStrict, RoundTripsAllEngines) {
    StrictGuard strict(true);
    const Circuit c = small_mixed_circuit();
    Rng rng(11);
    const StateVector init = haar_random_state(c.dims(), rng);

    // State-vector engine.
    const StateVector pure = simulate(c, init);
    EXPECT_NEAR(pure.norm(), 1.0, 1e-9);

    // Trajectory + batched engines (batch > 0 exercises the batched path),
    // with the amplified model that strict mode must tolerate.
    noise::NoiseModel amplified = noise::sc();
    amplified.p2 *= 300;
    noise::TrajectoryOptions opts;
    opts.trials = 8;
    opts.batch = 4;
    const auto res = noise::run_noisy_trials(c, amplified, opts);
    EXPECT_GE(res.mean_fidelity, 0.0);

    // Density-matrix engine.
    const Real f = noise::density_matrix_fidelity(c, noise::sc(), init);
    EXPECT_GT(f, 0.0);
}

TEST(VerifyStrict, BadArtifactsAreReportedAndRejected) {
    StrictGuard strict(true);
    const Circuit c = small_mixed_circuit();
    noise::NoiseModel negative = noise::sc();
    negative.p2 = -1.0;
    try {
        (void)noise::run_noisy_trials(c, negative, {});
        FAIL() << "expected VerificationError";
    } catch (const verify::VerificationError& e) {
        EXPECT_TRUE(e.report().has_rule("noise.probability"))
            << e.report().to_string();
    }
}

TEST(VerifyStrict, OffByDefaultAndOverridable) {
    {
        StrictGuard off(false);
        EXPECT_FALSE(verify::strict());
        noise::NoiseModel negative = noise::sc();
        negative.p2 = -1.0;
        // Not enforced when strict is off; the cheap argument contract
        // still applies (trials must be valid).
        noise::TrajectoryOptions opts;
        opts.trials = 1;
        EXPECT_NO_THROW(
            noise::run_noisy_trials(small_mixed_circuit(), negative, opts));
    }
    {
        StrictGuard on(true);
        EXPECT_TRUE(verify::strict());
    }
}

// --------------------------------------------------------------- report

TEST(VerifyReport, JsonEscapesAndTallies) {
    Report r;
    r.add("test.rule", Severity::kWarning, 3, "quote \" and\nnewline");
    r.add("test.rule", Severity::kError, -1, "plain");
    EXPECT_EQ(r.count(Severity::kWarning), 1u);
    EXPECT_EQ(r.count(Severity::kError), 1u);
    EXPECT_EQ(r.count_rule("test.rule"), 2u);
    const std::string json = r.to_json();
    EXPECT_NE(json.find("\\\""), std::string::npos);
    EXPECT_NE(json.find("\\n"), std::string::npos);
    EXPECT_EQ(json.find('\n'), std::string::npos);
    Report other;
    other.merge(r);
    EXPECT_EQ(other.size(), 2u);
}

}  // namespace
}  // namespace qd
