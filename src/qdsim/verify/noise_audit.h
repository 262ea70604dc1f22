/**
 * @file noise_audit.h
 * Static audit of noise channels and NoiseModel parameters: CPTP
 * completeness of Kraus sets, probability sanity of mixed-unitary
 * channels, and — for a whole model against a register — the channels
 * the engines would actually build from it (depolarizing per dim,
 * amplitude damping per moment duration).
 *
 * Lives apart from verify.h so the qdsim-level API stays free of the
 * noise layer. The CompileService's noisy admission
 * (exec/compile_service.h) merges analyze_noise into its circuit report.
 */
#ifndef QDSIM_VERIFY_NOISE_AUDIT_H
#define QDSIM_VERIFY_NOISE_AUDIT_H

#include <string_view>

#include "noise/kraus.h"
#include "noise/noise_model.h"
#include "qdsim/verify/verify.h"

namespace qd::verify {

/**
 * Audits one Kraus channel: non-empty, operators square and uniformly
 * sized (noise.shape), and trace-preserving — sum K^dagger K == I within
 * tol (noise.cptp). `label` names the channel in messages.
 */
void audit_kraus(const noise::KrausChannel& channel, Report& report,
                 std::string_view label = "", Real tol = kLooseTol);

/**
 * Audits a mixed-unitary channel: probs/unitaries aligned (noise.shape),
 * probabilities in [0,1] with sum <= 1 (noise.probability), and every
 * operator unitary (noise.unitary).
 */
void audit_mixed_unitary(const noise::MixedUnitaryChannel& channel,
                         Report& report, std::string_view label = "",
                         Real tol = kLooseTol);

/**
 * Audits a NoiseModel against a register: parameter ranges (noise
 * probabilities, durations, decay rates — noise.probability; over-unity
 * per-gate totals are a warning since the sampler saturates), and the
 * concrete channels the engines derive from it — depolarizing1/2 for
 * every wire-dimension (pair) present and amplitude damping for each
 * moment duration — through audit_kraus and the checks of
 * audit_mixed_unitary. Each dimension's generalized Paulis are checked
 * for unitarity once; a depolarizing channel's operators are products of
 * them, so only its branch probabilities are checked per channel, and
 * the cost stays polynomial in the widest qudit (a (13,13) pair would
 * otherwise build 28560 operators of 169 x 169).
 */
[[nodiscard]] Report analyze_noise(const noise::NoiseModel& model,
                                   const WireDims& dims,
                                   Real tol = kLooseTol);

}  // namespace qd::verify

#endif  // QDSIM_VERIFY_NOISE_AUDIT_H
