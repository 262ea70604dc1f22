/**
 * @file apply_plan.h
 * Precomputed gather/scatter geometry for k-local operator application.
 *
 * An ApplyPlan is computed once per (wires, register dims) application site
 * and removes every piece of per-gate index arithmetic from the inner loop:
 * the local-block offsets and the base offset of every non-operand
 * configuration are tabulated up front, so kernels run with pure additive
 * indexing — no division, no modulo, no allocation. Plans are immutable and
 * shared (the same tables serve a gate, its inverse, and every Kraus/error
 * operator applied to the same wires), which is what makes compile-once /
 * run-many-shots execution cheap for the noise trajectory engine.
 */
#ifndef QDSIM_EXEC_APPLY_PLAN_H
#define QDSIM_EXEC_APPLY_PLAN_H

#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "qdsim/basis.h"

namespace qd::exec {

/**
 * Offset tables for applying a k-local operator to fixed wires of a fixed
 * register.
 *
 * The state decomposes into `outer_count()` disjoint blocks of `block`
 * amplitudes; amplitude `b` of the block at `base_offsets[o]` lives at
 * linear index `base_offsets[o] + local_offset[b]` (wires[0] is the most
 * significant local digit, matching the gate-matrix basis convention).
 */
struct ApplyPlan {
    /** Product of operand dimensions (the gate's matrix size). */
    Index block = 1;
    /** Offset of each local block element from a base index; size `block`. */
    std::vector<Index> local_offset;
    /** Number of non-operand configurations: `dims.size() / block`. */
    Index outer = 1;
    /**
     * Tabulated base index of every non-operand configuration, in
     * odometer order — filled only when `outer` fits kBaseTableCap, so
     * plan memory stays bounded on large registers (the table trades
     * memory for zero index math; past the cap `base_of` computes bases
     * instead, whose cost amortises over the block work).
     */
    std::vector<Index> base_offsets;
    /** Dimensions/strides of the non-operand wires, least significant
     *  last; used by `base_of` when the table is not materialised. */
    std::vector<Index> other_dims;
    std::vector<Index> other_strides;

    /** Entry cap for `base_offsets` (8 MiB of offsets per plan). */
    static constexpr Index kBaseTableCap = Index{1} << 20;

    Index outer_count() const { return outer; }

    /** Base index of the o-th non-operand configuration. */
    Index base_of(Index o) const {
        if (!base_offsets.empty()) {
            return base_offsets[static_cast<std::size_t>(o)];
        }
        Index base = 0;
        for (std::size_t i = other_dims.size(); i-- > 0;) {
            base += (o % other_dims[i]) * other_strides[i];
            o /= other_dims[i];
        }
        return base;
    }
};

/**
 * Linear offsets of every digit tuple over `wires` (wires[0] most
 * significant, matching the gate-matrix basis): entry b is the state-index
 * offset of local block element b from a block base. Shared by
 * make_apply_plan and the controlled kernel's target table.
 */
std::vector<Index> local_offsets(const WireDims& dims,
                                 std::span<const int> wires);

/**
 * Builds the plan for applying a k-local operator to `wires` of `dims`.
 *
 * @throws std::invalid_argument if wires are out of range or not distinct.
 */
std::shared_ptr<const ApplyPlan> make_apply_plan(const WireDims& dims,
                                                 std::span<const int> wires);

/**
 * Memoises plans by wire tuple so every operation on the same wires of one
 * register shares one set of tables (gate, fused blocks, gate errors,
 * Kraus operators): a plan is a pure function of (dims, wires).
 * The map is guarded by a mutex, so concurrent compilation (trajectory
 * workers or daemon jobs sharing one cache) is safe;
 * the plans themselves are immutable and freely shareable. Copying a
 * cache copies the map (the shared plan tables are not duplicated).
 */
class PlanCache {
  public:
    explicit PlanCache(WireDims dims) : dims_(std::move(dims)) {}

    PlanCache(const PlanCache& other);
    PlanCache& operator=(const PlanCache& other);

    const WireDims& dims() const { return dims_; }

    /** Returns the cached plan for `wires`, building it on first use.
     *  Concurrent callers asking for the same wires all receive the same
     *  plan (one thread builds, the rest wait on the lock). */
    std::shared_ptr<const ApplyPlan> get(std::span<const int> wires);

    /** Seeds the cache with an existing plan (e.g. one built by a
     *  CompiledCircuit) so later compilations on the same wires share its
     *  tables instead of rebuilding them. */
    void put(std::span<const int> wires,
             std::shared_ptr<const ApplyPlan> plan);

  private:
    WireDims dims_;
    mutable std::mutex mutex_;
    std::map<std::vector<int>, std::shared_ptr<const ApplyPlan>> plans_;
};

}  // namespace qd::exec

#endif  // QDSIM_EXEC_APPLY_PLAN_H
