/**
 * Figure 11 workloads: the paper's (construction x noise model) fidelity
 * sweep through the public compile-then-execute path
 * (CompileService::compile, then run_noisy_trials on the compiled
 * trajectory artifact), checked cell by cell against a recorded
 * reference and for the paper's ordering.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "constructions/gen_toffoli.h"
#include "layers.h"
#include "noise/models.h"
#include "noise/trajectory.h"
#include "qdsim/exec/compiled_circuit.h"
#include "qdsim/exec/compile_service.h"
#include "qdsim/ir/ir.h"
#include "workloads.h"

namespace pb {

namespace {

using qd::ctor::GenToffoli;
using qd::ctor::Method;
using qd::noise::NoiseModel;

/** Width of the gated sweeps. */
constexpr int kGatedWidth = 12;
/** Trials per cell: one 12-lane batch per core on a 4-core machine. */
constexpr int kGatedTrials = 48;
/** Circuit builds timed before the rounds and after every cell, so the
 *  setup sample (about 100 builds) spans the whole run. */
constexpr int kSetupReps = 8;
/** Rounds per untraced run, at least; metrics are per-cell medians. */
constexpr int kMinRounds = 2;
/** Paper-scale mode: the paper's width (13 controls + target) and the
 *  trial count each cell's time is projected to. */
constexpr int kPaperWidth = 14;
constexpr int kPaperTrials = 1000;
/** The recorded reference: trials per cell and seed. */
constexpr int kReferenceTrials = 480;
constexpr std::uint64_t kReferenceSeed = 20190622;

struct Circuits {
    GenToffoli qutrit;
    GenToffoli qubit;
    GenToffoli ancilla;
};

Circuits
build_circuits(int width)
{
    const int controls = width - 1;
    return {qd::ctor::build_gen_toffoli(Method::kQutrit, controls),
            qd::ctor::build_gen_toffoli(Method::kQubitNoAncilla, controls),
            qd::ctor::build_gen_toffoli(Method::kQubitDirtyAncilla,
                                        controls)};
}

struct Cell {
    const GenToffoli* circuit;
    NoiseModel model;
};

/** The 16 cells of Figure 11, restricted to the requested halves:
 *  QUTRIT under the SC models and the two qutrit ion models, and QUBIT /
 *  QUBIT+ANCILLA under the SC models and TI_QUBIT. */
std::vector<Cell>
fig11_cells(const Circuits& c, bool qutrit, bool qubit)
{
    std::vector<Cell> cells;
    if (qutrit) {
        for (const auto& m : qd::noise::superconducting_models()) {
            cells.push_back({&c.qutrit, m});
        }
        cells.push_back({&c.qutrit, qd::noise::bare_qutrit()});
        cells.push_back({&c.qutrit, qd::noise::dressed_qutrit()});
    }
    if (qubit) {
        for (const GenToffoli* g : {&c.qubit, &c.ancilla}) {
            for (const auto& m : qd::noise::superconducting_models()) {
                cells.push_back({g, m});
            }
            cells.push_back({g, qd::noise::ti_qubit()});
        }
    }
    return cells;
}

struct CellResult {
    std::string circuit;
    std::string model;
    double mean = 0;
    double std_error = 0;
    int trials = 0;
    double compile_s = 0;
    double exec_s = 0;
};

struct Round {
    std::vector<CellResult> cells;
    double wall_s = 0;  ///< summed cell times (compile + execute)
};

/** One sweep over `cells` on `service`; cell i of round r draws its
 *  trajectories from derive_seed(seed, r * 1000 + i). `after_cell`, when
 *  set, runs after every cell, outside the cell's timing. */
Round
run_round(const std::vector<Cell>& cells, int trials, int threads,
          std::uint64_t seed, int round, qd::exec::CompileService& service,
          const std::function<void()>& after_cell = {})
{
    qd::obs::ScopedSpan round_span("bench", "round");
    Round out;
    double cells_s = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell& cell = cells[i];
        CellResult r;
        r.circuit = cell.circuit->label;
        r.model = cell.model.name;
        r.trials = trials;
        {
            qd::obs::ScopedSpan span("bench",
                                     "cell " + r.circuit + " x " + r.model);
            span.arg("cell", static_cast<std::int64_t>(i));
            std::shared_ptr<const qd::exec::CompiledArtifact> artifact;
            {
                qd::obs::ScopedSpan s("compile", "compile");
                const auto t0 = Clock::now();
                artifact = service.compile(cell.circuit->circuit, cell.model,
                                           qd::exec::EngineKind::kTrajectory);
                r.compile_s = seconds_since(t0);
            }
            qd::noise::TrajectoryOptions opts;
            opts.trials = trials;
            opts.threads = threads;
            opts.seed = derive_seed(
                seed, static_cast<std::uint64_t>(round) * 1000 + i);
            {
                qd::obs::ScopedSpan s("traj", "execute");
                const auto t0 = Clock::now();
                const auto res =
                    qd::noise::run_noisy_trials(*artifact->trajectory, opts);
                r.exec_s = seconds_since(t0);
                r.mean = res.mean_fidelity;
                r.std_error = res.std_error;
            }
        }
        cells_s += r.compile_s + r.exec_s;
        out.cells.push_back(r);
        if (after_cell) {
            after_cell();
        }
    }
    out.wall_s = cells_s;
    return out;
}

struct Verdict {
    long long attempted = 0;
    long long failed = 0;
};

/** Fidelity of one (circuit, model) cell: measured in `measured` when
 *  present (`was_measured` set), otherwise the recorded reference.
 *  False when neither has it. */
bool
lookup(const std::vector<CellResult>& measured,
       const std::vector<ReferenceCell>& refs, const std::string& circuit,
       const std::string& model, int width, double& mean, double& se,
       bool& was_measured)
{
    was_measured = false;
    const ReferenceCell* ref = find_reference(refs, circuit, model, width);
    for (const auto& c : measured) {
        if (c.circuit == circuit && c.model == model) {
            mean = c.mean;
            // As in fidelity_ok: never below the reference's spread at
            // this cell's trial count.
            se = ref == nullptr
                     ? c.std_error
                     : std::max(c.std_error,
                                ref->std_error *
                                    std::sqrt(static_cast<double>(
                                                  ref->trials) /
                                              c.trials));
            was_measured = true;
            return true;
        }
    }
    if (ref == nullptr) {
        return false;
    }
    mean = ref->mean;
    se = ref->std_error;
    return true;
}

/**
 * Checks every measured cell against its reference (when the width has
 * one) and the paper's ordering QUTRIT > QUBIT+ANCILLA > QUBIT on every
 * SC model. An ordering pair is checked, and counted, only when this run
 * measured at least one of its two cells; the other may come from the
 * reference.
 */
Verdict
check_round(const std::vector<CellResult>& cells,
            const std::vector<ReferenceCell>& refs, int width,
            bool need_reference)
{
    Verdict v;
    for (const auto& c : cells) {
        ++v.attempted;
        const ReferenceCell* ref =
            find_reference(refs, c.circuit, c.model, width);
        bool ok = fidelity_in_range(c.mean);
        if (ref != nullptr) {
            ok = ok && fidelity_ok(c.mean, c.std_error, c.trials, *ref);
        } else if (need_reference) {
            ok = false;
        }
        if (!ok) {
            ++v.failed;
            std::fprintf(stderr,
                         "FAIL cell %s x %s: mean %.5f se %.5f ref %s\n",
                         c.circuit.c_str(), c.model.c_str(), c.mean,
                         c.std_error,
                         ref == nullptr
                             ? "none"
                             : (std::to_string(ref->mean) + " se " +
                                std::to_string(ref->std_error))
                                   .c_str());
        }
    }
    const char* order[] = {"QUTRIT", "QUBIT+ANCILLA", "QUBIT"};
    for (const auto& m : qd::noise::superconducting_models()) {
        double mean[3] = {};
        double se[3] = {};
        bool measured[3] = {};
        bool have[3] = {};
        for (int k = 0; k < 3; ++k) {
            have[k] = lookup(cells, refs, order[k], m.name, width, mean[k],
                             se[k], measured[k]);
        }
        for (int k = 0; k < 2; ++k) {
            if (!have[k] || !have[k + 1] ||
                !(measured[k] || measured[k + 1])) {
                continue;
            }
            ++v.attempted;
            if (!ordering_ok(mean[k], se[k], mean[k + 1], se[k + 1])) {
                ++v.failed;
                std::fprintf(stderr, "FAIL ordering %s: %s %.5f < %s %.5f\n",
                             m.name.c_str(), order[k], mean[k], order[k + 1],
                             mean[k + 1]);
            }
        }
    }
    return v;
}

int
engine_threads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

void
print_cells(const Round& round, int index)
{
    for (const auto& c : round.cells) {
        std::printf("round %d  %-14s %-15s fidelity %.5f +- %.5f  compile "
                    "%.3f s  execute %.3f s\n",
                    index, c.circuit.c_str(), c.model.c_str(), c.mean,
                    c.std_error, c.compile_s, c.exec_s);
    }
}

}  // namespace

Outcome
run_fig11(const Args& args, const RunMeta& meta, const std::string& bin_dir,
          bool qutrit)
{
    Outcome out;
    const auto refs = read_reference(args.reference);
    const int threads = engine_threads();

    // Setup is building the circuits. One build takes milliseconds, and
    // on a shared machine the same build takes about 3.3 ms in some
    // phases and 5.5 ms in others, phases lasting seconds. Builds are
    // timed kSetupReps times before the rounds and after every cell, and
    // setup_s is the fastest: over five runs on a shared 4-core Xeon it
    // spread 5%, against 12% for the median and 20% for the lower
    // quartile, which falls on the boundary between the two phases.
    std::vector<double> setup;
    auto time_setup = [&setup] {
        for (int rep = 0; rep < kSetupReps; ++rep) {
            const auto t0 = Clock::now();
            const Circuits built = build_circuits(kGatedWidth);
            setup.push_back(seconds_since(t0));
        }
    };
    time_setup();
    const Circuits circuits = build_circuits(kGatedWidth);
    const auto cells = fig11_cells(circuits, qutrit, !qutrit);

    auto tally = [&](const Round& r) {
        const Verdict v = check_round(r.cells, refs, kGatedWidth, true);
        out.attempted += v.attempted;
        out.failed += v.failed;
    };

    if (!args.trace) {
        // Rounds until --seconds have passed, at least kMinRounds. Each
        // round starts from a fresh CompileService, so every round pays
        // its cold compiles, as a one-off Figure 11 regeneration does.
        std::vector<Round> rounds;
        const auto t0 = Clock::now();
        while (static_cast<int>(rounds.size()) < kMinRounds ||
               seconds_since(t0) < args.seconds) {
            qd::exec::CompileService service;
            rounds.push_back(run_round(cells, kGatedTrials, threads,
                                       args.seed,
                                       static_cast<int>(rounds.size()),
                                       service, time_setup));
            print_cells(rounds.back(), static_cast<int>(rounds.size()) - 1);
            tally(rounds.back());
        }

        // Per-cell medians over the rounds, so a transient slowdown of a
        // shared machine during one cell moves no metric. The workload's
        // wall time is the sum of the median cell times.
        double wall_s = 0;
        double exec_s = 0;
        long long trials = 0;
        std::vector<double> cell_ms;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            std::vector<double> latency;
            std::vector<double> exec;
            for (const auto& r : rounds) {
                latency.push_back(r.cells[i].compile_s + r.cells[i].exec_s);
                exec.push_back(r.cells[i].exec_s);
            }
            wall_s += percentile(latency, 50);
            exec_s += percentile(exec, 50);
            trials += kGatedTrials;
            cell_ms.push_back(percentile(latency, 50) * 1e3);
        }
        Metrics& m = out.metrics;
        m.set("setup_s", percentile(setup, 0), "s");
        m.set("wall_s", wall_s, "s");
        m.set("traj_per_s", static_cast<double>(trials) / exec_s, "1/s");
        // A Figure 11 cell is one job: compile + execute, always cold.
        m.set("jobs_per_s", static_cast<double>(cells.size()) / wall_s,
              "1/s");
        m.set("job_p50_ms", percentile(cell_ms, 50), "ms");
        // The tail is the highest percentile with ten samples beyond it;
        // a run has 6-10 cells, so that is the median (a p99 over so few
        // cells would be the single slowest cell's time).
        const double tail = reportable_percentile(cell_ms.size());
        m.set("job_p99_ms", percentile(cell_ms, tail), "ms");
        m.set("job_cold_p50_ms", percentile(cell_ms, 50), "ms");
        m.set("peak_rss_mb", self_peak_rss_mb(), "MB");
        std::printf("rounds %zu, cells %zu, job_p99_ms reports p%g\n",
                    rounds.size(), cells.size(), tail);
        print_setup(setup);
        return out;
    }

    // ---- traced run: one untraced round, then, with qd::obs tracing on,
    // the same round traced and the per-layer probes.
    Metrics& m = out.metrics;
    init_layer_metrics(m);
    double untraced_wall = 0;
    {
        qd::exec::CompileService service;
        const Round r =
            run_round(cells, kGatedTrials, threads, args.seed, 0, service);
        print_cells(r, 0);
        tally(r);
        untraced_wall = r.wall_s;
        double exec_s = 0;
        long long trials = 0;
        for (const auto& c : r.cells) {
            exec_s += c.exec_s;
            trials += c.trials;
        }
        m.set("traj.s_per_traj", exec_s / static_cast<double>(trials), "s");
    }

    qd::obs::trace_begin();
    Ceiling ceiling;
    {
        qd::obs::ScopedSpan s("machine", "ceiling");
        ceiling = measure_ceiling(meta.llc_bytes, threads);
    }
    ceiling_metrics(ceiling, m);

    qd::obs::set_enabled(true);
    qd::obs::reset_counters();
    const auto before = qd::obs::counters_snapshot();
    qd::exec::CompileService service;
    const Round traced =
        run_round(cells, kGatedTrials, threads, args.seed, 0, service);
    const auto after = qd::obs::counters_snapshot();
    qd::obs::set_enabled(false);
    tally(traced);
    counter_metrics(before, after, m);
    m.set("trace.overhead_frac", traced.wall_s / untraced_wall - 1, "ratio");

    {
        qd::obs::ScopedSpan s("constructions", "build");
        build_circuits(kGatedWidth);
    }
    m.set("constructions.build_s", percentile(setup, 0), "s");

    // Request-path layers on this workload's cells.
    std::vector<double> parse_ms;
    std::vector<double> admit_ms;
    std::vector<double> cold_ms;
    std::vector<double> warm_us;
    for (const auto& c : traced.cells) {
        cold_ms.push_back(c.compile_s * 1e3);
    }
    for (const Cell& cell : cells) {
        qd::ir::Job job;
        job.name = cell.circuit->label;
        job.engine = "trajectory";
        job.shots = kGatedTrials;
        job.noise = cell.model.name;
        job.circuit = cell.circuit->circuit;
        const std::string text = qd::ir::to_qdj(job);
        {
            qd::obs::ScopedSpan s("ir", "parse");
            const auto t0 = Clock::now();
            qd::ir::job_from_qdj(text);
            parse_ms.push_back(seconds_since(t0) * 1e3);
        }
        {
            qd::obs::ScopedSpan s("verify", "admit");
            const auto t0 = Clock::now();
            qd::exec::CompileService::admission_report(cell.circuit->circuit,
                                                       cell.model);
            admit_ms.push_back(seconds_since(t0) * 1e3);
        }
        {
            qd::obs::ScopedSpan s("compile", "warm");
            const auto t0 = Clock::now();
            service.compile(cell.circuit->circuit, cell.model,
                            qd::exec::EngineKind::kTrajectory);
            warm_us.push_back(seconds_since(t0) * 1e6);
        }
    }
    m.set("ir.parse_ms_p50", percentile(parse_ms, 50), "ms");
    m.set("verify.admit_ms_p50", percentile(admit_ms, 50), "ms");
    m.set("compile.cold_ms_p50", percentile(cold_ms, 50), "ms");
    m.set("compile.warm_us_p50", percentile(warm_us, 50), "us");

    // The kernels as the trajectory engine runs them under idle noise:
    // every op compiled separately.
    const GenToffoli& main_circuit = qutrit ? circuits.qutrit : circuits.qubit;
    const Method method = qutrit ? Method::kQutrit : Method::kQubitNoAncilla;
    qd::exec::FusionOptions unfused;
    unfused.enabled = false;
    const qd::exec::CompiledCircuit compiled(main_circuit.circuit, unfused,
                                             {});
    const auto small = qd::ctor::build_gen_toffoli(method, 2);
    kernel_layer({&compiled}, small.circuit, ceiling, m);
    state_layer(main_circuit.circuit.dims(), ceiling, m);
    m.set("traj.scaling_eff",
          trajectory_scaling(kGatedWidth, threads, args.seed), "ratio");
    serve_probe(args, bin_dir, out);
    const auto events = qd::obs::trace_end();

    const double batches = static_cast<double>(
        after[qd::obs::Counter::kTrajBatches] -
        before[qd::obs::Counter::kTrajBatches]);
    const double pass_s = m.find("state.scale_pass_s")->value;
    if (batches > 0 && pass_s > 0) {
        m.set("traj.moment_pass_equiv",
              moment_loop_seconds(events) / batches / pass_s, "ratio");
    }
    self_time_metrics(events, m);
    std::filesystem::create_directories(args.out_dir);
    qd::obs::write_chrome_trace(events, args.out_dir + "/" + args.workload +
                                            "-seed" +
                                            std::to_string(args.seed) +
                                            ".trace.json");
    return out;
}

// ------------------------------------------------------- paper scale ---

namespace {

const char*
paper_value(const std::string& circuit, const std::string& model)
{
    struct Row {
        const char* circuit;
        const char* model;
        const char* value;
    };
    static const Row rows[] = {
        {"QUBIT", "SC", "0.01%"},          {"QUBIT", "SC+T1", "0.56%"},
        {"QUBIT", "SC+GATES", "0.01%"},    {"QUBIT", "SC+T1+GATES", "26.1%"},
        {"QUBIT+ANCILLA", "SC", "18.5%"},  {"QUBIT+ANCILLA", "SC+T1", "52.3%"},
        {"QUBIT+ANCILLA", "SC+GATES", "30.2%"},
        {"QUBIT+ANCILLA", "SC+T1+GATES", "84.1%"},
        {"QUTRIT", "SC", "56.8%"},         {"QUTRIT", "SC+T1", "65.9%"},
        {"QUTRIT", "SC+GATES", "83.1%"},   {"QUTRIT", "SC+T1+GATES", "94.7%"},
        {"QUBIT", "TI_QUBIT", "44.7%"},    {"QUBIT+ANCILLA", "TI_QUBIT", "89.9%"},
        {"QUTRIT", "BARE_QUTRIT", "94.9%"},
        {"QUTRIT", "DRESSED_QUTRIT", "96.1%"},
    };
    for (const auto& r : rows) {
        if (circuit == r.circuit && model == r.model) {
            return r.value;
        }
    }
    return "-";
}

}  // namespace

int
run_paper_scale(const Args& args, const RunMeta& meta)
{
    const int threads = engine_threads();
    const int probe = kLanes * threads;
    std::printf("Figure 11 at width %d: probing %d trials per cell, %d "
                "threads, nproc %d, LLC %lld bytes, build %s, commit %s\n",
                kPaperWidth, probe, threads, meta.nproc, meta.llc_bytes,
                meta.build_type.c_str(), meta.commit.c_str());
    const Circuits circuits = build_circuits(kPaperWidth);
    const auto cells = fig11_cells(circuits, true, true);
    const auto refs = read_reference(args.reference);
    qd::exec::CompileService service;
    double projected_total = 0;
    std::vector<CellResult> results;
    std::printf("%-14s %-15s %10s %9s %11s %13s %8s\n", "circuit", "model",
                "fidelity", "+-", "s/traj", "projected_s", "paper");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Round r = run_round({cells[i]}, probe, threads, args.seed,
                                  static_cast<int>(i), service);
        const CellResult& c = r.cells.front();
        const double s_per_traj = c.exec_s / c.trials;
        const double projected = c.compile_s + s_per_traj * kPaperTrials;
        projected_total += projected;
        results.push_back(c);
        std::printf("%-14s %-15s %10.5f %9.5f %11.4g %13.1f %8s\n",
                    c.circuit.c_str(), c.model.c_str(), c.mean, c.std_error,
                    s_per_traj, projected, paper_value(c.circuit, c.model));
        std::fflush(stdout);
    }
    const Verdict v = check_round(results, refs, kPaperWidth, false);
    std::printf("projected time for %d trials per cell: %.1f s total "
                "(traj.s_per_traj from %d-trial probes)\n",
                kPaperTrials, projected_total, probe);
    std::printf("checks: %lld attempted, %lld failed\n", v.attempted,
                v.failed);
    return v.failed == 0 ? 0 : 1;
}

int
make_reference()
{
    const int threads = engine_threads();
    const Circuits circuits = build_circuits(kGatedWidth);
    const auto cells = fig11_cells(circuits, true, true);
    qd::exec::CompileService service;
    std::printf("# Figure 11 reference fidelities at width %d: circuit "
                "model width mean std_error trials\n",
                kGatedWidth);
    std::printf("# %d trials per cell from seed %llu. Regenerate: python3 "
                "perfbench/run.py --make-reference\n",
                kReferenceTrials,
                static_cast<unsigned long long>(kReferenceSeed));
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Round r = run_round({cells[i]}, kReferenceTrials, threads,
                                  kReferenceSeed, static_cast<int>(i),
                                  service);
        const CellResult& c = r.cells.front();
        std::printf("%s %s %d %.6f %.6f %d\n", c.circuit.c_str(),
                    c.model.c_str(), kGatedWidth, c.mean, c.std_error,
                    c.trials);
        std::fflush(stdout);
    }
    return 0;
}

}  // namespace pb
