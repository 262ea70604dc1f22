/**
 * @file test_compile_service.cc
 * CompileService behavior: cache keying, sharing, LRU eviction, the
 * verify admission gate, obs counter traffic, and bitwise parity between
 * service-compiled artifacts and direct compilations on all three
 * engines.
 */
#include "qdsim/exec/compile_service.h"

#include <cstring>
#include <stdexcept>

#include <gtest/gtest.h>

#include "constructions/gen_toffoli.h"
#include "noise/density_matrix.h"
#include "noise/models.h"
#include "noise/trajectory.h"
#include "qdsim/circuit.h"
#include "qdsim/gate_library.h"
#include "qdsim/ir/ir.h"
#include "qdsim/obs/counters.h"
#include "qdsim/simulator.h"
#include "qdsim/verify/verify.h"
#include "serve/run.h"

namespace qd {
namespace {

Circuit
qutrit_workload(int layers = 2)
{
    Circuit c(WireDims::uniform(2, 3));
    for (int l = 0; l < layers; ++l) {
        c.append(gates::H3(), {0});
        c.append(gates::H3(), {1});
        c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    }
    return c;
}

Circuit
non_unitary_circuit()
{
    Matrix m = Matrix::identity(2);
    m(0, 0) = Complex(0.5, 0);  // breaks unitarity, keeps legality
    Circuit c(WireDims::uniform(1, 2));
    c.append(gates::from_matrix("damp", {2}, std::move(m)), {0});
    return c;
}

/** Scoped obs enable that restores the previous setting. */
class ScopedObs {
  public:
    ScopedObs() : was_(obs::enabled())
    {
        obs::set_enabled(true);
        obs::reset_counters();
    }
    ~ScopedObs() { obs::set_enabled(was_); }

  private:
    bool was_;
};

TEST(CompileService, ResubmissionSharesTheArtifact)
{
    exec::CompileService service;
    ScopedObs obs;
    const Circuit circuit = qutrit_workload();
    const auto first = service.compile(circuit);
    const auto second = service.compile(circuit);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(service.size(), 1u);
    // A structurally identical rebuild (different Circuit object, same
    // canonical bytes) hits too: keying is content-addressed.
    const auto rebuilt = service.compile(qutrit_workload());
    EXPECT_EQ(first.get(), rebuilt.get());
    const auto snap = obs::counters_snapshot();
    EXPECT_EQ(snap[obs::Counter::kServiceMisses], 1u);
    EXPECT_EQ(snap[obs::Counter::kServiceHits], 2u);
    EXPECT_EQ(snap[obs::Counter::kServiceRejects], 0u);
}

TEST(CompileService, KeyingSeparatesEngineFusionAndNoise)
{
    exec::CompileService service;
    const Circuit circuit = qutrit_workload();
    const noise::NoiseModel sc = noise::sc();
    const noise::NoiseModel ti = noise::ti_qubit();

    const auto state = service.compile(circuit);
    const auto traj =
        service.compile(circuit, sc, exec::EngineKind::kTrajectory);
    const auto dens =
        service.compile(circuit, sc, exec::EngineKind::kDensity);
    EXPECT_NE(state.get(), traj.get());
    EXPECT_NE(traj.get(), dens.get());
    EXPECT_EQ(service.size(), 3u);

    // Fusion off is a different artifact for every engine kind...
    exec::FusionOptions off;
    off.enabled = false;
    const auto state_off = service.compile(circuit, off);
    const auto traj_off =
        service.compile(circuit, sc, exec::EngineKind::kTrajectory, off);
    const auto dens_off =
        service.compile(circuit, sc, exec::EngineKind::kDensity, off);
    EXPECT_NE(state_off.get(), state.get());
    EXPECT_NE(traj_off.get(), traj.get());
    EXPECT_NE(dens_off.get(), dens.get());
    EXPECT_EQ(service.size(), 6u);
    // ...and every resubmission hits its own artifact.
    EXPECT_EQ(service.compile(circuit).get(), state.get());
    EXPECT_EQ(service.compile(circuit, off).get(), state_off.get());
    EXPECT_EQ(
        service.compile(circuit, sc, exec::EngineKind::kTrajectory).get(),
        traj.get());
    EXPECT_EQ(service.compile(circuit, sc, exec::EngineKind::kTrajectory,
                              off)
                  .get(),
              traj_off.get());
    EXPECT_EQ(
        service.compile(circuit, sc, exec::EngineKind::kDensity).get(),
        dens.get());
    EXPECT_EQ(
        service.compile(circuit, sc, exec::EngineKind::kDensity, off).get(),
        dens_off.get());
    EXPECT_EQ(service.size(), 6u);

    // ...and so is a different noise model.
    EXPECT_NE(
        service.compile(circuit, ti, exec::EngineKind::kTrajectory).get(),
        traj.get());

    // But the model NAME is a label, not semantics: renaming hits.
    noise::NoiseModel renamed = sc;
    renamed.name = "SC-RENAMED";
    EXPECT_EQ(exec::noise_model_hash(renamed), exec::noise_model_hash(sc));
    EXPECT_EQ(
        service.compile(circuit, renamed, exec::EngineKind::kTrajectory)
            .get(),
        traj.get());

    // Any numeric field participates in the hash.
    noise::NoiseModel hotter = sc;
    hotter.p2 *= 2;
    EXPECT_NE(exec::noise_model_hash(hotter), exec::noise_model_hash(sc));
}

TEST(CompileService, ArtifactRecordsItsKeyAndPayload)
{
    exec::CompileService service;
    const Circuit circuit = qutrit_workload();
    exec::FusionOptions fusion;
    fusion.enabled = false;
    const noise::NoiseModel model = noise::sc();

    const auto state = service.compile(circuit, fusion);
    EXPECT_EQ(state->engine, exec::EngineKind::kState);
    EXPECT_EQ(state->circuit_hash, ir::circuit_hash(circuit));
    EXPECT_FALSE(state->fusion.enabled);
    EXPECT_EQ(state->noise_hash, 0u);
    EXPECT_NE(state->state, nullptr);
    EXPECT_EQ(state->trajectory, nullptr);
    EXPECT_EQ(state->density, nullptr);

    const auto traj = service.compile(circuit, model,
                                      exec::EngineKind::kTrajectory, fusion);
    EXPECT_EQ(traj->engine, exec::EngineKind::kTrajectory);
    EXPECT_EQ(traj->noise_hash, exec::noise_model_hash(model));
    EXPECT_EQ(traj->state, nullptr);
    EXPECT_NE(traj->trajectory, nullptr);

    const auto dens = service.compile(circuit, model,
                                      exec::EngineKind::kDensity, fusion);
    EXPECT_NE(dens->density, nullptr);
}

TEST(CompileService, QdjFusionFlagKeysTwoArtifacts)
{
    // The .qdj "fusion" bool is the one fusion setting a job carries: the
    // same job with it off and on lands in two cache entries, and each
    // resubmission hits its own.
    exec::CompileService service;
    ir::Job job;
    job.name = "fusion-key";
    job.engine = "state";
    job.circuit = qutrit_workload();
    job.fusion = false;
    const std::string unfused = ir::to_qdj(job);
    job.fusion = true;
    const std::string fused = ir::to_qdj(job);
    for (const std::string& text : {unfused, fused}) {
        const serve::RunResult r =
            serve::execute(serve::RunRequest::from_qdj(text), service);
        ASSERT_TRUE(r.ok()) << r.message;
        EXPECT_FALSE(r.warm);
    }
    EXPECT_EQ(service.size(), 2u);
    for (const std::string& text : {unfused, fused}) {
        const serve::RunResult r =
            serve::execute(serve::RunRequest::from_qdj(text), service);
        ASSERT_TRUE(r.ok()) << r.message;
        EXPECT_TRUE(r.warm);
    }
    EXPECT_EQ(service.size(), 2u);
}

TEST(CompileService, AdmissionAuditsTheNoisyPartitionTheEngineCompiles)
{
    // Admission must audit the partition the trajectory engine compiles:
    // under idle noise (SC) the ASAP-moment layout whose moments merge
    // into moment kernels, without it (TI_QUBIT) circuit order fenced by
    // the gate errors. Every fuse_sites call counts its ops in and blocks
    // out, so admission must derive the partition exactly once and match
    // the engine's noisy compile block for block.
    const Circuit circuit =
        ctor::build_gen_toffoli(ctor::Method::kQubitNoAncilla, 7).circuit;
    const std::uint64_t n = circuit.num_ops();
    const std::uint64_t ideal =
        exec::CompiledCircuit(circuit, exec::FusionOptions{}).num_ops();
    for (const noise::NoiseModel& model :
         {noise::sc(), noise::ti_qubit()}) {
        ScopedObs obs;
        const noise::TrajectoryCompilation engine(circuit, model);
        auto snap = obs::counters_snapshot();
        ASSERT_EQ(snap[obs::Counter::kFusionOpsIn], 2 * n)
            << "ideal + noisy compile";
        const std::uint64_t noisy =
            snap[obs::Counter::kFusionBlocksOut] - ideal;
        if (model.has_damping()) {
            EXPECT_LT(noisy, n) << "no moment kernel merged";
        }
        obs::reset_counters();
        (void)exec::CompileService::admission_report(circuit, model);
        snap = obs::counters_snapshot();
        EXPECT_EQ(snap[obs::Counter::kFusionOpsIn], n)
            << model.name << ": one partition per admission";
        EXPECT_EQ(snap[obs::Counter::kFusionBlocksOut], noisy) << model.name;
    }
}

TEST(CompileService, ColdAdmittedCompileFusesEachPartitionOnce)
{
    // A cold kAlways compile audits the compilation the artifact is built
    // from instead of deriving its own: the state engine fuses the
    // circuit once, the noisy engines twice (the ideal reference and the
    // one noisy program both engines run).
    const Circuit circuit =
        ctor::build_gen_toffoli(ctor::Method::kQubitNoAncilla, 5).circuit;
    const std::uint64_t n = circuit.num_ops();
    const exec::FusionOptions fusion;
    {
        exec::CompileService service;
        ScopedObs obs;
        (void)service.compile(circuit, fusion, exec::Admission::kAlways);
        EXPECT_EQ(obs::counters_snapshot()[obs::Counter::kFusionOpsIn], n);
    }
    for (const exec::EngineKind engine :
         {exec::EngineKind::kTrajectory, exec::EngineKind::kDensity}) {
        for (const noise::NoiseModel& model :
             {noise::sc(), noise::ti_qubit()}) {
            exec::CompileService service;
            ScopedObs obs;
            (void)service.compile(circuit, model, engine, fusion,
                                  exec::Admission::kAlways);
            EXPECT_EQ(obs::counters_snapshot()[obs::Counter::kFusionOpsIn],
                      2 * n)
                << model.name;
        }
    }
}

TEST(CompileService, LruEvictionPastCapacity)
{
    exec::CompileService service(2);
    ScopedObs obs;
    EXPECT_EQ(service.capacity(), 2u);
    const auto a = service.compile(qutrit_workload(1));
    const auto b = service.compile(qutrit_workload(2));
    (void)service.compile(a->circuit);  // touch a: b is now LRU
    const auto c = service.compile(qutrit_workload(3));
    EXPECT_EQ(service.size(), 2u);
    // a survived (recently used), b was evicted.
    EXPECT_EQ(service.compile(a->circuit).get(), a.get());
    EXPECT_NE(service.compile(b->circuit).get(), b.get());
    const auto snap = obs::counters_snapshot();
    EXPECT_GE(snap[obs::Counter::kServiceEvictions], 1u);
    // Evicted artifacts stay valid for outstanding holders.
    EXPECT_NO_THROW((void)simulate(*b->state));
}

TEST(CompileService, ClearDropsArtifactsButNotHolders)
{
    exec::CompileService service;
    const auto a = service.compile(qutrit_workload());
    EXPECT_EQ(service.size(), 1u);
    service.clear();
    EXPECT_EQ(service.size(), 0u);
    EXPECT_NO_THROW((void)simulate(*a->state));
    EXPECT_NE(service.compile(qutrit_workload()).get(), a.get());
}

TEST(CompileService, AlwaysAdmissionRejectsNonUnitary)
{
    exec::CompileService service;
    ScopedObs obs;
    const Circuit bad = non_unitary_circuit();
    // Trusted default admission accepts it (outside strict mode)...
    EXPECT_NO_THROW((void)service.compile(bad));
    // ...but the untrusted-IR gate rejects with the structured report.
    try {
        (void)service.compile(bad, {}, exec::Admission::kAlways);
        FAIL() << "kAlways admitted a non-unitary gate";
    } catch (const verify::VerificationError& e) {
        EXPECT_TRUE(e.report().has_rule("circuit.non-unitary"));
        EXPECT_TRUE(e.report().has_errors());
    }
    EXPECT_GE(obs::counters_snapshot()[obs::Counter::kServiceRejects], 1u);
}

TEST(CompileService, CacheHitUnderStricterAdmissionReverifies)
{
    exec::CompileService service;
    const Circuit bad = non_unitary_circuit();
    // Admit and cache under the escape hatch...
    const auto artifact =
        service.compile(bad, {}, exec::Admission::kNever);
    ASSERT_NE(artifact, nullptr);
    EXPECT_EQ(service.size(), 1u);
    // ...a later untrusted submission of the same circuit must NOT ride
    // the cached artifact past the gate.
    EXPECT_THROW((void)service.compile(bad, {}, exec::Admission::kAlways),
                 verify::VerificationError);
}

TEST(CompileService, StrictModeGatesDefaultAdmission)
{
    exec::CompileService service;
    const Circuit good = qutrit_workload();
    verify::set_strict(true);
    // Strict default admission runs the analyze gate with the kDefault
    // options: clean circuits pass, and the artifact is marked verified.
    EXPECT_NO_THROW((void)service.compile(good));
    verify::clear_strict();
}

TEST(CompileService, PaperWidthQubitGenToffoliIsUnitary)
{
    // The ancilla-free sqrt recursion takes every level's root from the
    // level-0 operator; rooting roots compounded to |UU^dagger - I| of
    // 7e-5 at 11 controls and 6.5e-2 at 13.
    for (const int controls : {11, 13}) {
        const auto g =
            ctor::build_gen_toffoli(ctor::Method::kQubitNoAncilla, controls);
        for (const Operation& op : g.circuit.ops()) {
            const Matrix& u = op.gate.matrix();
            const Matrix p = u * u.dagger();
            for (std::size_t r = 0; r < p.rows(); ++r) {
                for (std::size_t c = 0; c < p.cols(); ++c) {
                    ASSERT_NEAR(std::abs(p(r, c) - (r == c ? 1.0 : 0.0)),
                                0.0, 1e-12)
                        << controls << " controls, " << op.gate.name();
                }
            }
        }
    }
    const auto w12 = ctor::build_gen_toffoli(ctor::Method::kQubitNoAncilla,
                                             11);
    EXPECT_FALSE(exec::CompileService::admission_report(
                     w12.circuit, noise::sc(), exec::Admission::kAlways)
                     .has_rule("circuit.non-unitary"));
}

TEST(CompileService, AdmissionReportMatchesRejection)
{
    const Circuit bad = non_unitary_circuit();
    const verify::Report always = exec::CompileService::admission_report(
        bad, exec::Admission::kAlways);
    EXPECT_TRUE(always.has_rule("circuit.non-unitary"));
    EXPECT_TRUE(always.has_errors());
    const Circuit good = qutrit_workload();
    EXPECT_FALSE(exec::CompileService::admission_report(
                     good, exec::Admission::kAlways)
                     .has_errors());
    // With a model, the noise audit runs too and a clean workload stays
    // clean.
    EXPECT_FALSE(exec::CompileService::admission_report(
                     good, noise::sc(), exec::Admission::kAlways)
                     .has_errors());
}

TEST(CompileService, GlobalInstanceIsShared)
{
    exec::CompileService& g = exec::CompileService::global();
    g.clear();
    const auto a = g.compile(qutrit_workload());
    EXPECT_EQ(g.compile(qutrit_workload()).get(), a.get());
    EXPECT_GE(g.size(), 1u);
    g.clear();
    EXPECT_EQ(g.size(), 0u);
}

// ------------------------------------------------ service/direct parity ---

bool
bitwise_equal(const StateVector& a, const StateVector& b)
{
    return a.size() == b.size() &&
           std::memcmp(a.amplitudes().data(), b.amplitudes().data(),
                       a.amplitudes().size() * sizeof(Complex)) == 0;
}

TEST(CompileServiceParity, StateEngine)
{
    exec::CompileService service;
    const Circuit circuit = qutrit_workload();
    const auto artifact = service.compile(circuit);
    const exec::CompiledCircuit direct(circuit);
    EXPECT_TRUE(bitwise_equal(simulate(*artifact->state),
                              simulate(direct)));
}

TEST(CompileServiceParity, TrajectoryEngine)
{
    exec::CompileService service;
    const Circuit circuit = qutrit_workload();
    const noise::NoiseModel model = noise::sc();
    const auto artifact =
        service.compile(circuit, model, exec::EngineKind::kTrajectory);
    const noise::TrajectoryCompilation direct(circuit, model);
    noise::TrajectoryOptions options;
    options.trials = 30;
    options.seed = 7;
    options.keep_per_trial = true;
    const auto via_service =
        noise::run_noisy_trials(*artifact->trajectory, options);
    const auto via_direct = noise::run_noisy_trials(direct, options);
    EXPECT_EQ(via_service.mean_fidelity, via_direct.mean_fidelity);
    EXPECT_EQ(via_service.std_error, via_direct.std_error);
    EXPECT_EQ(via_service.per_trial, via_direct.per_trial);
    // And the public circuit-level entry point routes through the global
    // service to the same bitwise result.
    exec::CompileService::global().clear();
    const auto via_entry = noise::run_noisy_trials(circuit, model, options);
    EXPECT_EQ(via_entry.per_trial, via_direct.per_trial);
}

TEST(CompileServiceParity, DensityEngine)
{
    exec::CompileService service;
    const Circuit circuit = qutrit_workload();
    const noise::NoiseModel model = noise::sc();
    const auto artifact =
        service.compile(circuit, model, exec::EngineKind::kDensity);
    const noise::DensityCompilation direct(circuit, model);
    const StateVector initial(circuit.dims());
    EXPECT_EQ(noise::density_matrix_fidelity(*artifact->density, initial),
              noise::density_matrix_fidelity(direct, initial));
    exec::CompileService::global().clear();
    EXPECT_EQ(noise::density_matrix_fidelity(circuit, model, initial),
              noise::density_matrix_fidelity(direct, initial));
}

}  // namespace
}  // namespace qd
