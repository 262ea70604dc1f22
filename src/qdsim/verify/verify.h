/**
 * @file verify.h
 * Static circuit verification: analyze circuits (and, via plan_audit.h /
 * fusion_audit.h, their compiled artifacts) without executing them.
 *
 * Checker families:
 *  - circuit legality: wire bounds, duplicate wires, gate/wire dimension
 *    agreement, unitarity (with a hermitian/diagonal/permutation/monomial
 *    classification pass behind Options::classify);
 *  - dead code: identity-up-to-phase gates and adjacent inverse pairs the
 *    transpiler should have removed;
 *  - domain lint (paper discipline): circuits built purely from
 *    permutation gates are propagated classically over qubit-subspace
 *    basis inputs (the paper's Section 6 fast-verification path) to prove
 *    that declared ancilla wires return to their input value and that no
 *    |2> population survives to the output — mid-circuit |2> occupancy is
 *    the paper's mechanism (lifted regions) and stays legal;
 *  - compiled-artifact audits (plan_audit.h, fusion_audit.h): the
 *    circuit is compiled once under Options::fusion/fences, and that
 *    compilation's fusion partition, offset tables and kernel dispatch
 *    are proven without running a kernel.
 *
 * Strict mode: `strict()` reads QD_VERIFY=strict (overridable with
 * set_strict). Under it the CompileService admits every in-process
 * circuit through this analysis before compiling (exec/compile_service.h),
 * so the simulation entry points (`simulate`, `apply_circuit`,
 * `circuit_unitary`, `run_noisy_trials`, `density_matrix_fidelity`) are
 * verified and a Debug CI leg exporting QD_VERIFY=strict turns the whole
 * test suite into a verifier fuzz corpus. Off by default; precompiled-
 * circuit overloads (the per-shot hot paths) are never re-verified.
 */
#ifndef QDSIM_VERIFY_VERIFY_H
#define QDSIM_VERIFY_VERIFY_H

#include <span>
#include <stdexcept>
#include <vector>

#include "qdsim/circuit.h"
#include "qdsim/exec/fusion.h"
#include "qdsim/verify/report.h"

namespace qd::verify {

/** What `analyze` checks and how strictly. */
struct Options {
    /** Wire bounds / duplicates / dimension agreement / unitarity. */
    bool legality = true;
    /** Identity-up-to-phase gates and adjacent inverse pairs. */
    bool dead_code = true;
    /** Emit an info finding classifying each distinct gate matrix
     *  (unitary/hermitian/diagonal/permutation/monomial). */
    bool classify = false;
    /** Fusion settings the audited compilation runs under. The circuit is
     *  compiled once and its fusion partition (fusion_audit.h) and every
     *  plan/kernel assignment (plan_audit.h) are audited; skipped when
     *  legality found structural errors. */
    exec::FusionOptions fusion{};
    /** fence_after flags for the audited compilation (empty or one per
     *  op). */
    std::vector<std::uint8_t> fences{};
    /** Op order the plan and fusion audits see: position p holds op
     *  order[p] (empty keeps circuit order, else a permutation of the op
     *  indices). `fences` then index positions, and findings' op_index
     *  still names circuit ops. The noisy engines compile in such an
     *  order (noise::noisy_layout). */
    std::vector<std::uint32_t> order{};

    /** Wires that must return to their input value on every qubit-subspace
     *  basis input (clean ancilla enter as |0>; dirty borrows restore any
     *  input). Empty disables the check. Permutation circuits only. */
    std::vector<int> ancilla_wires{};
    /** Enforce the paper's qubit-I/O protocol: no output digit may be 2
     *  on any qubit-subspace basis input. Permutation circuits only. */
    bool expect_qubit_io = false;
    /** Cap on propagated basis inputs; wider registers are sampled with a
     *  deterministic stride so both ends of the index space are covered. */
    Index max_domain_inputs = 4096;

    /** Downgrade circuit.non-unitary to a warning: the simulator applies
     *  non-unitary matrices by design (Kraus operators, linearity tests),
     *  so strict-mode enforcement must not reject them. */
    bool allow_nonunitary = false;

    /** Numeric tolerance for unitarity / identity comparisons. */
    Real tol = kLooseTol;
};

/** Analyzes a circuit; never throws on findings. */
[[nodiscard]] Report analyze(const Circuit& circuit,
                             const Options& options = {});

/**
 * Analyzes a raw operation sequence over `dims`. Unlike Circuit (whose
 * append/mutators validate), an Operation span can encode arbitrary
 * malformed sites, which is what the legality rules are for: wire
 * out-of-range, duplicate wires, gate/wire dimension mismatch, arity
 * mismatch, empty gates.
 */
[[nodiscard]] Report analyze_ops(const WireDims& dims,
                                 std::span<const Operation> ops,
                                 const Options& options = {});

// ------------------------------------------------------------ strict mode

/** True when strict verification is on: QD_VERIFY=strict in the
 *  environment (read once), unless overridden by set_strict. */
[[nodiscard]] bool strict();

/** Overrides the environment (tests); clear_strict() restores it. */
void set_strict(bool on);
void clear_strict();

/** Thrown by the CompileService when admission analysis finds errors. */
class VerificationError : public std::runtime_error {
  public:
    explicit VerificationError(Report report);
    [[nodiscard]] const Report& report() const { return report_; }

  private:
    Report report_;
};

}  // namespace qd::verify

#endif  // QDSIM_VERIFY_VERIFY_H
