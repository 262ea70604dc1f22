/**
 * @file fusion_audit.h
 * Static audit of compile-time fusion partitions (exec/fusion.h).
 *
 * audit_partition proves the structural invariants of ANY partition
 * (exact cover, commute-safe reordering, fences never spanned, multi-wire
 * blocks within kFusionMaxBlock, no cost regression against the parts);
 * audit_fusion re-derives the stage-1 and stage-2 partitions with
 * fuse_stage1 / fuse_sites and additionally checks the class-algebra cost
 * contract at both levels — stage-1 merges must never exceed the summed
 * cost of their members, stage-2 union merges never exceed the summed
 * cost of the stage-1 groups they replaced (exactly the admission bound
 * the look-ahead DP committed to).
 */
#ifndef QDSIM_VERIFY_FUSION_AUDIT_H
#define QDSIM_VERIFY_FUSION_AUDIT_H

#include <span>

#include "qdsim/exec/fusion.h"
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
 * Re-derives the partition with fuse_sites(dims, ops, fence_after,
 * options) and audits it: structural invariants via audit_partition plus
 * the exact two-level cost contract (stage-1 merges vs member sums,
 * stage-2 union merges vs the stage-1 groups they replaced).
 */
void audit_fusion(const WireDims& dims, std::span<const Operation> ops,
                  std::span<const std::uint8_t> fence_after,
                  const exec::FusionOptions& options, Report& report);

}  // namespace qd::verify

#endif  // QDSIM_VERIFY_FUSION_AUDIT_H
