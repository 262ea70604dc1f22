/**
 * @file qd_lint.cc
 * Static verification CLI: runs verify::analyze over the repo's circuit
 * corpus (every paper construction the library can build) plus
 * verify::analyze_noise over the calibrated noise models, without
 * executing a single kernel.
 *
 * Usage:
 *   qd_lint [FILE.qdj...]   lint the circuit corpus + noise models, plus
 *                           any .qdj files through the CompileService's
 *                           untrusted-IR admission gate (the exact path
 *                           qd_run admits jobs through)
 *   qd_lint --all           corpus + noise + self-test
 *   qd_lint --self-test     seed known-bad artifacts, require detection
 *   qd_lint --classify      add per-gate classification info findings
 *   qd_lint --json FILE     write the combined report as JSON
 *   qd_lint --list          print the corpus entry names and exit
 *
 * Exit status: 0 when no error findings (warnings allowed), 1 on any
 * error finding or self-test failure, 2 on bad usage.
 */
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "apps/arithmetic.h"
#include "apps/grover.h"
#include "apps/neuron.h"
#include "constructions/gen_toffoli.h"
#include "constructions/incrementer.h"
#include "noise/channels.h"
#include "noise/models.h"
#include "qdsim/exec/compile_service.h"
#include "qdsim/exec/kernels.h"
#include "qdsim/gate_library.h"
#include "qdsim/ir/ir.h"
#include "qdsim/verify/fusion_audit.h"
#include "qdsim/verify/noise_audit.h"
#include "qdsim/verify/plan_audit.h"
#include "qdsim/verify/verify.h"

namespace {

using qd::Circuit;
using qd::Gate;
using qd::Index;
using qd::Matrix;
using qd::Operation;
using qd::Real;
using qd::WireDims;
using qd::verify::Report;
using qd::verify::Severity;

struct Entry {
    std::string name;
    Circuit circuit;
    qd::verify::Options options;
};

bool
all_permutations(const Circuit& circuit)
{
    for (const Operation& op : circuit.ops()) {
        if (op.gate.empty() || !op.gate.is_permutation()) {
            return false;
        }
    }
    return true;
}

/** The paper constructions, each with the strongest domain lint its
 *  contract supports: dirty-borrow constructions declare their ancilla
 *  (must restore ANY input), and permutation circuits with qubit I/O
 *  enforce the no-|2>-at-output protocol. He's clean ancilla only
 *  guarantee restoration from |0>, which the all-inputs propagation does
 *  not model, so He runs without domain options. */
std::vector<Entry>
build_corpus(bool classify)
{
    std::vector<Entry> corpus;
    const auto add = [&](std::string name, Circuit circuit,
                         qd::verify::Options options = {}) {
        options.classify = classify;
        if (!all_permutations(circuit)) {
            // Domain lint propagates classical basis states; it only
            // applies to permutation circuits.
            options.expect_qubit_io = false;
            options.ancilla_wires.clear();
        }
        corpus.push_back(
            {std::move(name), std::move(circuit), std::move(options)});
    };

    for (const auto method : qd::ctor::all_methods()) {
        const auto gt = qd::ctor::build_gen_toffoli(method, 5);
        qd::verify::Options options;
        const bool dirty_borrow =
            method == qd::ctor::Method::kQubitDirtyAncilla ||
            method == qd::ctor::Method::kWang ||
            method == qd::ctor::Method::kLanyonRalph;
        if (all_permutations(gt.circuit) &&
            method != qd::ctor::Method::kHe) {
            options.expect_qubit_io = true;
            if (dirty_borrow) {
                options.ancilla_wires = gt.ancilla;
            }
        }
        add("gen-toffoli/" + gt.label, gt.circuit, options);
    }
    // The paper's Figure 11 widths: numerical defects of the recursive
    // constructions (e.g. the ancilla-free sqrt recursion) show up only
    // at many controls.
    for (const auto method :
         {qd::ctor::Method::kQubitNoAncilla, qd::ctor::Method::kQutrit}) {
        const auto gt = qd::ctor::build_gen_toffoli(method, 13);
        add("gen-toffoli/" + gt.label + "-c13", gt.circuit);
    }

    {
        qd::verify::Options options;
        options.expect_qubit_io = true;
        add("incrementer/qutrit-n6",
            qd::ctor::build_qutrit_incrementer(6), options);
        add("incrementer/qutrit-n5-three-qutrit",
            qd::ctor::build_qutrit_incrementer(
                5, qd::ctor::IncGranularity::kThreeQutrit),
            options);
        add("incrementer/qubit-staircase-n6",
            qd::ctor::build_qubit_staircase_incrementer(6));
        add("arithmetic/add-13-n6", qd::apps::build_add_constant(6, 13),
            options);
        add("arithmetic/decrementer-n6", qd::apps::build_decrementer(6),
            options);
    }

    for (const auto method : {qd::apps::MczMethod::kQutrit,
                              qd::apps::MczMethod::kQubitNoAncilla,
                              qd::apps::MczMethod::kAtomic}) {
        const int n = 4;
        const char* label =
            method == qd::apps::MczMethod::kQutrit ? "qutrit"
            : method == qd::apps::MczMethod::kQubitNoAncilla
                ? "qubit-no-ancilla"
                : "atomic";
        add(std::string("grover/") + label + "-n4",
            qd::apps::build_grover_circuit(
                n, 5, qd::apps::grover_optimal_iterations(n), method));
    }

    {
        const std::vector<int> inputs = {1, -1, 1, 1, -1, 1, -1, 1};
        const std::vector<int> weights = {1, 1, -1, 1, -1, -1, 1, 1};
        add("neuron/qutrit-n3",
            qd::apps::build_neuron_circuit(
                inputs, weights, qd::apps::NeuronMethod::kQutrit));
        add("neuron/qubit-n3",
            qd::apps::build_neuron_circuit(
                inputs, weights, qd::apps::NeuronMethod::kQubitNoAncilla));
    }
    return corpus;
}

struct NoiseEntry {
    std::string name;
    Report report;
};

std::vector<NoiseEntry>
lint_noise_models()
{
    std::vector<NoiseEntry> out;
    const WireDims qutrits = WireDims::uniform(2, 3);
    const WireDims qubits = WireDims::uniform(2, 2);
    const auto run = [&](const char* name, const qd::noise::NoiseModel& m,
                         const WireDims& dims) {
        out.push_back({name, qd::verify::analyze_noise(m, dims)});
    };
    run("noise/sc", qd::noise::sc(), qutrits);
    run("noise/sc-t1", qd::noise::sc_t1(), qutrits);
    run("noise/sc-gates", qd::noise::sc_gates(), qutrits);
    run("noise/sc-t1-gates", qd::noise::sc_t1_gates(), qutrits);
    run("noise/ti-qubit", qd::noise::ti_qubit(), qubits);
    run("noise/bare-qutrit", qd::noise::bare_qutrit(), qutrits);
    run("noise/dressed-qutrit", qd::noise::dressed_qutrit(), qutrits);
    return out;
}

// ----------------------------------------------------------- .qdj files

/**
 * Lints untrusted .qdj text through the exact admission path qd_run
 * executes through: decode (stable qdj.* ids on failure, surfaced as
 * error findings) then CompileService::admission_report under
 * Admission::kAlways, with the job's noise preset resolved when named.
 */
Report
lint_qdj(const std::string& text)
{
    qd::ir::Job job;
    try {
        job = qd::ir::job_from_qdj(text);
    } catch (const qd::ir::ParseError& e) {
        return qd::ir::to_report(e.error());
    }
    qd::exec::FusionOptions fusion;
    fusion.enabled = job.fusion;
    if (job.noise.empty()) {
        return qd::exec::CompileService::admission_report(
            job.circuit, qd::exec::Admission::kAlways, fusion);
    }
    const std::optional<qd::noise::NoiseModel> model =
        qd::noise::model_by_name(job.noise);
    if (!model) {
        Report report;
        report.add("qdj.job", Severity::kError, -1,
                   "unknown noise preset: " + job.noise);
        return report;
    }
    return qd::exec::CompileService::admission_report(
        job.circuit, *model, qd::exec::Admission::kAlways, fusion);
}

// ------------------------------------------------------------- self-test

struct Seed {
    std::string name;          ///< defect class label
    std::string expect_rule;   ///< rule id the analyzers must emit
    std::function<Report()> run;
};

std::vector<Seed>
build_seeds()
{
    using qd::verify::Options;
    std::vector<Seed> seeds;
    // Circuit-level seeds analyze under the CompileService's untrusted-IR
    // admission profile, so the self-test proves the exact gate qd_run
    // admits jobs through (dead-code lint on, non-unitary rejected).
    const Options base = qd::exec::CompileService::admission_options(
        qd::exec::Admission::kAlways);
    const auto analyze_raw = [base](const WireDims& dims,
                                    std::vector<Operation> ops,
                                    std::optional<Options> options = {}) {
        return qd::verify::analyze_ops(dims, ops,
                                       options ? *options : base);
    };

    seeds.push_back({"out-of-range wire", "circuit.wire-bounds", [=] {
        return analyze_raw(WireDims::uniform(2, 2),
                           {{qd::gates::X(), {9}}});
    }});
    seeds.push_back({"duplicate wire", "circuit.duplicate-wire", [=] {
        return analyze_raw(WireDims::uniform(2, 2),
                           {{qd::gates::CNOT(), {0, 0}}});
    }});
    seeds.push_back({"arity mismatch", "circuit.arity-mismatch", [=] {
        return analyze_raw(WireDims::uniform(2, 2),
                           {{qd::gates::CNOT(), {0}}});
    }});
    seeds.push_back({"wrong-dimension matrix", "circuit.dim-mismatch", [=] {
        return analyze_raw(WireDims::uniform(2, 3),
                           {{qd::gates::X(), {0}}});
    }});
    seeds.push_back({"empty gate", "circuit.empty-gate", [=] {
        return analyze_raw(WireDims::uniform(2, 2), {{Gate{}, {0}}});
    }});
    seeds.push_back({"non-unitary gate", "circuit.non-unitary", [=] {
        const Gate g = qd::gates::from_matrix(
            "lossy", {2}, Matrix{{1, 0}, {0, Real(0.5)}});
        return analyze_raw(WireDims::uniform(1, 2), {{g, {0}}});
    }});
    seeds.push_back({"identity dead gate", "dead.identity", [=] {
        const qd::Complex phase(0, 1);
        const Gate g = qd::gates::from_matrix(
            "gphase", {2}, Matrix{{phase, 0}, {0, phase}});
        return analyze_raw(WireDims::uniform(1, 2), {{g, {0}}});
    }});
    seeds.push_back({"adjacent inverse pair", "dead.inverse-pair", [=] {
        Circuit c(WireDims::uniform(2, 2));
        c.append(qd::gates::H(), {0});
        c.append(qd::gates::H(), {0});
        return qd::verify::analyze(c, base);
    }});
    seeds.push_back({"dirty ancilla", "qutrit.dirty-ancilla", [=] {
        Circuit c(WireDims::uniform(2, 3));
        c.append(qd::gates::X01(), {1});
        Options options = base;
        options.ancilla_wires = {1};
        return qd::verify::analyze(c, options);
    }});
    seeds.push_back({"|2> at output", "qutrit.leaked-two", [=] {
        Circuit c(WireDims::uniform(1, 3));
        c.append(qd::gates::Xplus1(), {0});
        Options options = base;
        options.expect_qubit_io = true;
        return qd::verify::analyze(c, options);
    }});
    seeds.push_back({"non-CPTP Kraus channel", "noise.cptp", [=] {
        qd::noise::KrausChannel damaged =
            qd::noise::amplitude_damping(2, {Real(0.3)});
        damaged.operators.pop_back();
        Report report;
        qd::verify::audit_kraus(damaged, report, "seeded");
        return report;
    }});
    seeds.push_back({"probabilities sum > 1", "noise.probability", [=] {
        qd::noise::MixedUnitaryChannel bad;
        bad.probs = {Real(0.7), Real(0.7)};
        bad.unitaries = {Matrix::identity(2), Matrix{{0, 1}, {1, 0}}};
        Report report;
        qd::verify::audit_mixed_unitary(bad, report, "seeded");
        return report;
    }});
    seeds.push_back({"OOB plan offset", "plan.offset-bounds", [=] {
        const WireDims dims = WireDims::uniform(2, 2);
        const std::vector<int> wires = {0};
        qd::exec::ApplyPlan bad = *qd::exec::make_apply_plan(dims, wires);
        bad.local_offset.back() = dims.size();  // reaches past the state
        Report report;
        qd::verify::audit_plan(dims, wires, bad, report);
        return report;
    }});
    seeds.push_back({"kernel-class mismatch", "plan.kernel-class", [=] {
        const WireDims dims = WireDims::uniform(2, 2);
        const std::vector<int> wires = {0};
        qd::exec::CompiledOp op =
            qd::exec::compile_op(dims, qd::gates::H(), wires);
        op.kind = qd::exec::KernelKind::kDiagonal;  // H is not diagonal
        Report report;
        qd::verify::audit_compiled_op(dims, op, report);
        return report;
    }});
    seeds.push_back({"fence-spanning fused block", "fusion.fence-span", [=] {
        const WireDims dims = WireDims::uniform(1, 2);
        const std::vector<Operation> ops = {{qd::gates::X(), {0}},
                                            {qd::gates::Z(), {0}}};
        const std::vector<std::uint8_t> fences = {1, 0};
        const std::vector<qd::exec::FusedGroup> groups = {{{0}, {0, 1}}};
        Report report;
        qd::verify::audit_partition(dims, ops, fences, groups, report);
        return report;
    }});
    seeds.push_back({"cap-violating fused block", "fusion.cap", [=] {
        // Five qubits: block size 32 exceeds the 27-entry cap.
        const WireDims dims = WireDims::uniform(5, 2);
        std::vector<Operation> ops;
        qd::exec::FusedGroup group;
        for (int w = 0; w < 5; ++w) {
            ops.push_back({qd::gates::X(), {w}});
            group.wires.push_back(w);
            group.members.push_back(static_cast<std::uint32_t>(w));
        }
        Report report;
        const std::vector<qd::exec::FusedGroup> groups = {group};
        qd::verify::audit_partition(dims, ops, {}, groups, report);
        return report;
    }});
    seeds.push_back({"commute-violating reorder", "fusion.commute", [=] {
        const WireDims dims = WireDims::uniform(1, 2);
        const std::vector<Operation> ops = {{qd::gates::X(), {0}},
                                            {qd::gates::H(), {0}}};
        const std::vector<qd::exec::FusedGroup> groups = {{{0}, {1}},
                                                          {{0}, {0}}};
        Report report;
        qd::verify::audit_partition(dims, ops, {}, groups, report);
        return report;
    }});
    return seeds;
}

int
run_self_test()
{
    int failures = 0;
    for (const Seed& seed : build_seeds()) {
        const Report report = seed.run();
        const bool hit = report.has_rule(seed.expect_rule);
        std::printf("  %-28s %-22s %s\n", seed.name.c_str(),
                    seed.expect_rule.c_str(), hit ? "DETECTED" : "MISSED");
        if (!hit) {
            ++failures;
        }
    }
    // Control: a clean circuit must produce zero findings.
    {
        Circuit c(WireDims::uniform(2, 3));
        c.append(qd::gates::H3(), {0});
        c.append(qd::gates::Xplus1().controlled(3, 1), {0, 1});
        const Report report = qd::verify::analyze(c);
        const bool clean = report.clean();
        std::printf("  %-28s %-22s %s\n", "clean circuit", "(no findings)",
                    clean ? "CLEAN" : "FALSE POSITIVE");
        if (!clean) {
            std::fputs(report.to_string().c_str(), stdout);
            ++failures;
        }
    }
    return failures;
}

}  // namespace

int
main(int argc, char** argv)
{
    bool classify = false;
    bool self_test = false;
    bool list_only = false;
    std::string json_path;
    std::vector<std::string> qdj_files;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--classify") {
            classify = true;
        } else if (arg == "--self-test" || arg == "--all") {
            self_test = true;
        } else if (arg == "--list") {
            list_only = true;
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (!arg.empty() && arg[0] != '-') {
            qdj_files.emplace_back(arg);
        } else {
            std::cerr << "usage: qd_lint [--all] [--self-test] "
                         "[--classify] [--json FILE] [--list] "
                         "[FILE.qdj...]\n";
            return 2;
        }
    }

    const std::vector<Entry> corpus = build_corpus(classify);
    if (list_only) {
        for (const Entry& entry : corpus) {
            std::cout << entry.name << "\n";
        }
        return 0;
    }

    std::size_t errors = 0;
    std::size_t warnings = 0;
    std::string json = "{\"entries\":[";
    bool first = true;
    const auto record = [&](const std::string& name,
                            const Report& report) {
        errors += report.count(Severity::kError);
        warnings += report.count(Severity::kWarning);
        if (!first) {
            json += ",";
        }
        first = false;
        json += "{\"name\":\"" + name + "\",\"report\":" +
                report.to_json() + "}";
        if (report.clean()) {
            std::printf("%-34s clean\n", name.c_str());
        } else {
            std::printf("%-34s %zu finding(s)\n", name.c_str(),
                        report.size());
            std::fputs(report.to_string().c_str(), stdout);
        }
    };

    for (const Entry& entry : corpus) {
        record(entry.name, qd::verify::analyze(entry.circuit,
                                               entry.options));
    }
    for (const NoiseEntry& entry : lint_noise_models()) {
        record(entry.name, entry.report);
    }
    for (const std::string& file : qdj_files) {
        std::ifstream in(file);
        if (!in) {
            std::cerr << "qd_lint: cannot read " << file << "\n";
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        record("qdj/" + file, lint_qdj(text.str()));
    }
    int self_test_failures = 0;
    if (self_test) {
        std::puts("self-test: seeded defects must be detected");
        self_test_failures = run_self_test();
    }

    json += "],\"errors\":" + std::to_string(errors) +
            ",\"warnings\":" + std::to_string(warnings) +
            ",\"self_test_failures\":" +
            std::to_string(self_test_failures) + "}";
    if (!json_path.empty()) {
        std::FILE* f = std::fopen(json_path.c_str(), "w");
        if (f == nullptr) {
            std::cerr << "qd_lint: cannot write " << json_path << "\n";
            return 2;
        }
        std::fputs(json.c_str(), f);
        std::fclose(f);
    }

    std::printf("qd_lint: %zu error(s), %zu warning(s)%s\n", errors,
                warnings,
                self_test_failures > 0 ? ", self-test FAILED" : "");
    return errors > 0 || self_test_failures > 0 ? 1 : 0;
}
