/**
 * @file fusion_audit.h
 * Static audit of compile-time fusion partitions (exec/fusion.h).
 *
 * audit_partition proves the structural invariants of ANY partition
 * (exact cover, commute-safe reordering, fences never spanned, multi-wire
 * blocks within kFusionMaxBlock, no cost regression against the parts);
 * audit_fusion audits the partition a CompiledCircuit realises, reading
 * each fused group's class, cap and cost off the compiled op's own fused
 * gate, and additionally checks the class-algebra cost contract at both
 * levels — stage-1 merges (fuse_stage1) must never exceed the summed cost
 * of their members, stage-2 union merges never exceed the summed cost of
 * the stage-1 groups they replaced (exactly the admission bound the
 * look-ahead DP committed to).
 */
#ifndef QDSIM_VERIFY_FUSION_AUDIT_H
#define QDSIM_VERIFY_FUSION_AUDIT_H

#include <span>

#include "qdsim/exec/compiled_circuit.h"
#include "qdsim/verify/report.h"

namespace qd::verify {

/**
 * Audits one partition of `ops` into fused groups:
 *  - fusion.cover: every op index in exactly one group, members ascending;
 *  - fusion.wires: group wires distinct/in-range and covering members';
 *  - fusion.commute: any two ops sharing a wire keep their circuit order
 *    in the concatenated execution order;
 *  - fusion.fence-span: no op crosses a fence_after boundary in either
 *    direction, and no group spans one internally;
 *  - fusion.cap: multi-wire blocks within kFusionMaxBlock;
 *  - fusion.cost-regression: multi-wire merged blocks no costlier than
 *    the summed member costs (single-wire collapses are exempt,
 *    mirroring the builder's documented exemption).
 */
void audit_partition(const WireDims& dims, std::span<const Operation> ops,
                     std::span<const std::uint8_t> fence_after,
                     std::span<const exec::FusedGroup> groups,
                     Report& report);

/**
 * Audits the partition `compiled` realises over `ops`, the sequence it was
 * compiled from under `fence_after`/`options`; each compiled op's
 * source_ops and wires form one group, and its gate is the group's fused
 * operator. Checks the structural invariants of audit_partition plus the
 * exact two-level cost contract (stage-1 merges vs member sums, stage-2
 * union merges vs the stage-1 groups they replaced). The compilation must
 * still hold its fused gates (not release_fused_payloads'd); one that does
 * not is left to audit_compiled, which reports the empty gates.
 */
void audit_fusion(const exec::CompiledCircuit& compiled,
                  std::span<const Operation> ops,
                  std::span<const std::uint8_t> fence_after,
                  const exec::FusionOptions& options, Report& report);

}  // namespace qd::verify

#endif  // QDSIM_VERIFY_FUSION_AUDIT_H
