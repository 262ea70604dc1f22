/**
 * @file density_matrix.h
 * Exact density-matrix evolution on the state-vector kernel zoo.
 *
 * The paper (Section 6.2) notes that the quantum-trajectory method
 * converges to full density-matrix simulation over repeated trials. This
 * module provides that reference implementation so tests can quantify the
 * convergence. Storage is d^N x d^N; each operator K is compiled twice
 * through exec::compile_op (K and its elementwise conjugate, as a
 * CompiledSuperOp) and applied by exec::conjugate_op: K over rho's
 * columns as D batched lanes, then conj(K) on each row, O(D^2 * b) per
 * operator instead of the dense-kron O(D^3). Exact noise studies thus run
 * the trajectory engine's kernels and share its ApplyPlan offset tables.
 * The dense expand() oracle the compiled path is property-tested and
 * benchmarked against lives in tests/noise/density_reference.h.
 */
#ifndef NOISE_DENSITY_MATRIX_H
#define NOISE_DENSITY_MATRIX_H

#include <memory>
#include <span>

#include "noise/error_placement.h"
#include "noise/kraus.h"
#include "noise/noise_model.h"
#include "qdsim/circuit.h"
#include "qdsim/exec/fusion.h"
#include "qdsim/exec/kernels.h"
#include "qdsim/state_vector.h"

namespace qd::noise {

/**
 * One operator K (not necessarily unitary) compiled for rho -> K rho
 * K^dagger: K and its elementwise conjugate, each through exec::compile_op,
 * so both land on the same kernel class. Their `gate` is kept only for
 * kDense, the one kernel that reads it. Immutable; safe to share across
 * threads.
 */
struct CompiledSuperOp {
    exec::CompiledOp k;
    exec::CompiledOp k_conj;
};

/**
 * Compiles `gate` on `wires` of `dims` for density-matrix application.
 * `cache` (optional) shares ApplyPlans with other operators on the same
 * wires.
 * @throws std::invalid_argument on wire/dimension mismatches.
 */
CompiledSuperOp compile_superop(const WireDims& dims, const Gate& gate,
                                std::span<const int> wires,
                                exec::PlanCache* cache = nullptr);

/** Matrix overload: wraps a k-local operator (Kraus operators welcome;
 *  wires[0] most significant) in a Gate over the wires' dimensions. */
CompiledSuperOp compile_superop(const WireDims& dims, const Matrix& op,
                                std::span<const int> wires,
                                exec::PlanCache* cache = nullptr);

/**
 * A Kraus channel compiled once per (channel, wires, dims): every operator
 * lowered to its cheapest kernel class, all sharing one ApplyPlan.
 * Immutable after compile_channel; reusable across moments and across
 * DensityMatrix instances over the same register.
 */
struct CompiledChannel {
    std::vector<CompiledSuperOp> kraus;
};

/**
 * Compiles `channel` for application to the given wires of a register.
 * `cache` (optional) shares offset tables with other operators on the
 * same wires.
 */
CompiledChannel compile_channel(const WireDims& dims,
                                const KrausChannel& channel,
                                std::span<const int> wires,
                                exec::PlanCache* cache = nullptr);

/** Density matrix over a mixed-radix register. */
class DensityMatrix {
  public:
    /** rho = |psi><psi|. */
    explicit DensityMatrix(const StateVector& psi);

    /** rho = |digits><digits|. */
    DensityMatrix(WireDims dims, const std::vector<int>& digits);

    /** Adopts an existing density matrix (must be dims.size() square). */
    DensityMatrix(WireDims dims, Matrix rho);

    const WireDims& dims() const { return dims_; }
    const Matrix& rho() const { return rho_; }
    Matrix& mutable_rho() { return rho_; }

    /** Plan cache shared by every operator compiled against this register;
     *  callers precompiling their own superops/channels should pass it to
     *  compile_superop/compile_channel so tables are built once. */
    exec::PlanCache& plan_cache() { return cache_; }

    /** Applies a unitary on the given wires: rho -> U rho U^dagger
     *  (compiled path; plans cached per wire tuple). */
    void apply_unitary(const Matrix& u, std::span<const int> wires);

    /** Applies a Kraus channel on the given wires:
     *  rho -> sum_i K_i rho K_i^dagger (compiled path). */
    void apply_channel(const KrausChannel& channel,
                       std::span<const int> wires);

    /** Applies a precompiled operator: rho -> K rho K^dagger. */
    void apply(const CompiledSuperOp& op);

    /** Applies a precompiled channel: rho -> sum_i K_i rho K_i^dagger. */
    void apply(const CompiledChannel& channel);

    /** Fidelity against a pure state: <psi| rho |psi>. */
    Real fidelity(const StateVector& psi) const;

    /** Trace (should stay 1 for trace-preserving evolution). */
    Real trace_real() const;

  private:
    WireDims dims_;
    Matrix rho_;
    exec::PlanCache cache_;
    exec::ExecScratch scratch_;
    Matrix tmp_, acc_;  ///< channel-application scratch (kept allocated)
};

/**
 * Everything the exact engine derives from (circuit, model, fusion)
 * before rho moves: the fully fused ideal reference compilation, one
 * CompiledSuperOp per compiled op of the noisy program (compile_noisy,
 * the partition the trajectory engine runs too), every gate-error and
 * damping channel compiled against the program's plan cache, and the
 * flattened moment-by-moment step program the evolution replays.
 * Immutable after construction and safe to share across threads — the
 * CompileService caches these across requests so repeated submissions of
 * the same (circuit, model, fusion) skip compilation entirely.
 * Construction does NOT verify; admission is the CompileService's job
 * (CompileService::admission_report for direct callers).
 */
class DensityCompilation {
 public:
    /** Builds from compile_noisy(circuit, model, fusion). */
    DensityCompilation(const Circuit& circuit, const NoiseModel& model,
                       const exec::FusionOptions& fusion = {});
    /** Builds from `program`, which must be compile_noisy(circuit, model,
     *  fusion) for some fusion setting. */
    DensityCompilation(const Circuit& circuit, const NoiseModel& model,
                       NoisyProgram program);
    ~DensityCompilation();
    DensityCompilation(const DensityCompilation&) = delete;
    DensityCompilation& operator=(const DensityCompilation&) = delete;

    const NoiseModel& model() const;
    const WireDims& dims() const;

    struct Impl;
    const Impl& impl() const { return *impl_; }

 private:
    std::unique_ptr<Impl> impl_;
};

/**
 * Evolves `initial` through the circuit under the model's noise exactly
 * (moment by moment, same channel placement as the trajectory engine —
 * see error_placement.h) and returns the fidelity against the noiseless
 * output. The circuit's gates, gate-error channels, and per-wire damping
 * channels are each compiled ONCE against a shared plan cache and reused
 * across moments; cost is O(D^2 * b) per operator. Coherent dephasing is
 * modelled as the equivalent Gaussian dephasing channel.
 *
 * `fusion` drives the compile-time fusion stage (exec/fusion.h) on the
 * density side, through the same noisy program the trajectory engine
 * runs (noise::compile_noisy): without idle noise, gate runs between
 * error channels merge into one conjugation pass and each channel
 * attaches to its pre-fusion op boundary; under idle noise each moment's
 * wire-disjoint ops merge into one moment kernel, their gate-error
 * channels applied after it (they commute with the other members).
 *
 * Compilation routes through exec::CompileService::global(), so repeated
 * calls with the same (circuit, model, fusion) reuse one
 * DensityCompilation.
 *
 * @deprecated For job-stream traffic prefer serve::execute() (serve/run.h),
 *         which builds the density program once per distinct job and
 *         returns a uniform RunResult, or the precompiled overload below —
 *         this convenience overload re-hashes and re-verifies the circuit
 *         on every call. It remains supported for one-shot callers.
 */
Real density_matrix_fidelity(const Circuit& circuit, const NoiseModel& model,
                             const StateVector& initial,
                             const exec::FusionOptions& fusion = {});

/** Precompiled variant: replays an existing compilation's step program
 *  against a fresh rho = |initial><initial| (no verification, no
 *  recompilation) — the per-request hot path behind the CompileService. */
Real density_matrix_fidelity(const DensityCompilation& compiled,
                             const StateVector& initial);

}  // namespace qd::noise

#endif  // NOISE_DENSITY_MATRIX_H
