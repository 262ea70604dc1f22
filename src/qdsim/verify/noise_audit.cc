#include "qdsim/verify/noise_audit.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "noise/channels.h"

namespace qd::verify {

namespace {

std::string
prefix(std::string_view label)
{
    return label.empty() ? std::string("channel")
                         : std::string(label) + " channel";
}

/** The probability checks of a mixed-unitary channel (noise.probability):
 *  every branch probability in [0, 1], their sum at most 1. */
void
audit_probabilities(const std::vector<Real>& probs, Report& report,
                    const std::string& who, Real tol)
{
    Real total = 0;
    for (const Real p : probs) {
        if (p < -tol || p > 1 + tol) {
            report.add("noise.probability", Severity::kError, -1,
                       who + " branch probability " + std::to_string(p) +
                           " outside [0, 1]");
        }
        total += p;
    }
    if (total > 1 + tol) {
        report.add("noise.probability", Severity::kError, -1,
                   who + " branch probabilities sum to " +
                       std::to_string(total) + " > 1");
    }
}

/** The unitarity checks of a mixed-unitary channel (noise.unitary). */
void
audit_unitaries(const std::vector<Matrix>& unitaries, Report& report,
                const std::string& who, Real tol)
{
    for (std::size_t i = 0; i < unitaries.size(); ++i) {
        if (!unitaries[i].is_unitary(tol)) {
            report.add("noise.unitary", Severity::kError, -1,
                       who + " operator " + std::to_string(i) +
                           " is not unitary");
        }
    }
}

}  // namespace

void
audit_kraus(const noise::KrausChannel& channel, Report& report,
            std::string_view label, Real tol)
{
    const std::string who = prefix(label);
    if (channel.operators.empty()) {
        report.add("noise.cptp", Severity::kError, -1,
                   who + " has no Kraus operators");
        return;
    }
    const std::size_t dim = channel.operators.front().rows();
    for (const Matrix& k : channel.operators) {
        if (k.rows() != k.cols() || k.rows() != dim) {
            report.add("noise.shape", Severity::kError, -1,
                       who + " mixes operator shapes (" +
                           std::to_string(k.rows()) + "x" +
                           std::to_string(k.cols()) + " vs dim " +
                           std::to_string(dim) + ")");
            return;
        }
    }
    // Trace preservation: sum K^dagger K must be the identity.
    Matrix sum = Matrix::zero(dim, dim);
    for (const Matrix& k : channel.operators) {
        sum = sum + k.dagger() * k;
    }
    const Real distance = sum.distance(Matrix::identity(dim));
    if (distance > tol * static_cast<Real>(dim)) {
        report.add("noise.cptp", Severity::kError, -1,
                   who + " is not trace preserving: ||sum K^t K - I|| = " +
                       std::to_string(distance));
    }
}

void
audit_mixed_unitary(const noise::MixedUnitaryChannel& channel,
                    Report& report, std::string_view label, Real tol)
{
    const std::string who = prefix(label);
    if (channel.probs.size() != channel.unitaries.size()) {
        report.add("noise.shape", Severity::kError, -1,
                   who + " has " + std::to_string(channel.probs.size()) +
                       " probabilities for " +
                       std::to_string(channel.unitaries.size()) +
                       " unitaries");
        return;
    }
    audit_probabilities(channel.probs, report, who, tol);
    audit_unitaries(channel.unitaries, report, who, tol);
}

Report
analyze_noise(const noise::NoiseModel& model, const WireDims& dims,
              Real tol)
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

    std::set<int> distinct;
    for (const int d : dims.dims()) {
        distinct.insert(d);
    }
    // Over-unity totals are a warning, not an error: the trajectory
    // sampler saturates (the identity branch vanishes), so amplified
    // stress models remain runnable — but the result no longer matches
    // the nominal per-channel probabilities, which is worth flagging.
    const auto saturated = [&](const std::string& message) {
        report.add("noise.probability", Severity::kWarning, -1,
                   "model '" + model.name + "': " + message);
    };
    // Every depolarizing operator is a generalized Pauli X^j Z^k of one
    // wire's dimension or a Kronecker product of two, which is unitary
    // when its factors are: each dimension's d^2 - 1 non-identity Paulis
    // are audited once, and a two-qudit channel's (de)^2 - 1 products of
    // size de x de are never built.
    std::set<int> paulis_audited;
    const auto audit_paulis = [&](int d) {
        if (paulis_audited.insert(d).second) {
            audit_unitaries(noise::depolarizing1(d, 0).unitaries, report,
                            "generalized Paulis(d=" + std::to_string(d) +
                                ")",
                            tol);
        }
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
            audit_probabilities(
                std::vector<Real>(static_cast<std::size_t>(
                                      noise::depolarizing1_channel_count(d)),
                                  model.per_channel_1q(d)),
                report, prefix("depolarizing1(d=" + std::to_string(d) + ")"),
                tol);
            audit_paulis(d);
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
                audit_probabilities(
                    std::vector<Real>(
                        static_cast<std::size_t>(
                            noise::depolarizing2_channel_count(d, e)),
                        model.per_channel_2q(d, e)),
                    report,
                    prefix("depolarizing2(" + std::to_string(d) + "," +
                           std::to_string(e) + ")"),
                    tol);
                audit_paulis(d);
                audit_paulis(e);
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
                audit_kraus(noise::amplitude_damping(d, lambdas), report,
                            "amplitude_damping(d=" + std::to_string(d) +
                                ", dt=" + std::to_string(dt) + ")",
                            tol);
            }
        }
    }
    return report;
}

}  // namespace qd::verify
