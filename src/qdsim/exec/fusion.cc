#include "qdsim/exec/fusion.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "qdsim/exec/kernels.h"

namespace qd::exec {

namespace {

/**
 * Coarse cost class used by the fusion decision (the real kernel is chosen
 * later by compile_op on the fused matrix):
 *  - kLight: permutation / diagonal / monomial — O(block) per block, and
 *    closed under products, so these fuse unconditionally.
 *  - kControlled: identity except on one control subspace; products of two
 *    ops with the SAME control signature stay controlled.
 *  - kHeavy: dense matvec, O(block^2) per block.
 */
enum class FuseClass : std::uint8_t { kLight, kControlled, kHeavy };

/** Control signature: (wire, activation value) pairs, sorted by wire. */
using CtrlSig = std::vector<std::pair<int, int>>;

FuseClass
classify(const Operation& op, CtrlSig& sig)
{
    const Gate& g = op.gate;
    if (g.is_permutation() || g.is_diagonal_gate()) {
        return FuseClass::kLight;
    }
    std::vector<Index> perm;
    std::vector<Complex> phase;
    if (monomial_action(g.matrix(), perm, phase)) {
        return FuseClass::kLight;
    }
    if (g.has_controlled_structure()) {
        const ControlledStructure& cs = g.controlled_structure();
        for (int i = 0; i < cs.num_controls; ++i) {
            sig.emplace_back(op.wires[static_cast<std::size_t>(i)],
                             cs.control_values[static_cast<std::size_t>(i)]);
        }
        std::sort(sig.begin(), sig.end());
        return FuseClass::kControlled;
    }
    return FuseClass::kHeavy;
}

/** Relation of two sorted wire sets. */
enum class SetRel : std::uint8_t {
    kEqual,
    kFirstSuper,   ///< second ⊂ first
    kSecondSuper,  ///< first ⊂ second
    kDisjoint,
    kOverlap,      ///< intersecting, neither nested
};

SetRel
relation(const std::vector<int>& a, const std::vector<int>& b)
{
    if (a == b) {
        return SetRel::kEqual;
    }
    bool intersect = false;
    std::size_t i = 0, j = 0, common = 0;
    while (i < a.size() && j < b.size()) {
        if (a[i] == b[j]) {
            intersect = true;
            ++common;
            ++i;
            ++j;
        } else if (a[i] < b[j]) {
            ++i;
        } else {
            ++j;
        }
    }
    if (!intersect) {
        return SetRel::kDisjoint;
    }
    if (common == b.size()) {
        return SetRel::kFirstSuper;
    }
    if (common == a.size()) {
        return SetRel::kSecondSuper;
    }
    return SetRel::kOverlap;
}

/** A group still eligible to absorb later operations. */
struct OpenGroup {
    std::vector<int> wires;     ///< operand order of the fused matrix
    std::vector<int> wire_set;  ///< sorted, for set relations
    std::vector<std::uint32_t> members;
    FuseClass cls = FuseClass::kHeavy;
    CtrlSig ctrl_sig;
    Index block = 1;
};

Index
block_of(const WireDims& dims, const std::vector<int>& wires)
{
    Index b = 1;
    for (const int w : wires) {
        b *= static_cast<Index>(dims.dim(w));
    }
    return b;
}

/**
 * Decides whether `g` may absorb an op of class `cls` / signature `sig`
 * whose wire set stands in relation `rel` to the group's; on success
 * returns true and updates the group's class metadata (wires are updated
 * by the caller). `fused_block` / `fused_wires` describe the superset
 * wire set.
 *
 * The guiding rule (measured on the gen-Toffoli and incrementer
 * workloads): fusion must never CREATE a multi-wire dense block out of
 * cheaper kernels — the dense gather matvec costs O(block) multiplies per
 * amplitude where the structured kernels (permutation/diagonal/monomial
 * cycle walks, controlled subspace passes, unrolled single-wire) cost
 * O(1), so densifying loses more per pass than the removed pass saved.
 * Profitable merges are exactly:
 *  - light ∘ light: closed under products, the result stays a cycle-walk
 *    or diagonal kernel — strictly fewer passes at the same per-pass
 *    cost;
 *  - anything collapsing onto ONE wire: the result runs on the unrolled
 *    d2/d3 kernels, one contiguous pass replacing the whole run;
 *  - absorbing into an EXISTING dense block (subset or equal operands,
 *    either direction): the dense pass cost is unchanged and the
 *    absorbed pass disappears;
 *  - controlled ∘ controlled with identical control signatures: the
 *    inner operators multiply and the product stays controlled.
 *
 * Every multi-wire merge — light ones included — is bounded by
 * kFusionMaxBlock: fused_matrix() pays O(block^3) per member whatever the
 * runtime kernel ends up being, so an uncapped chain of nested light ops
 * (X; CX; CCX; ... — multi-controlled permutations are permutations) would
 * compile full-register dense products, O(D^3) time and O(D^2) memory per
 * member.
 */
bool
try_merge_class(OpenGroup& g, FuseClass cls, const CtrlSig& sig, SetRel rel,
                Index fused_block, std::size_t fused_wires)
{
    if (fused_wires == 1) {
        // Single-wire runs collapse onto the unrolled kernels whatever
        // the member classes (the block is the wire dimension — tiny).
        const bool both_light =
            g.cls == FuseClass::kLight && cls == FuseClass::kLight;
        if (!both_light) {
            g.cls = FuseClass::kHeavy;
            g.ctrl_sig.clear();
        }
        return true;
    }
    const bool group_dense =
        g.cls == FuseClass::kHeavy && g.wires.size() > 1;
    // The op's own dense block subsumes the group's operands.
    const bool absorbs =
        cls == FuseClass::kHeavy && rel == SetRel::kSecondSuper;
    const bool eligible =
        // Closed under products, O(block) kernels.
        (g.cls == FuseClass::kLight && cls == FuseClass::kLight) ||
        // Ride along in the existing dense block.
        (group_dense && rel != SetRel::kSecondSuper) || absorbs ||
        // Same control signature: the product stays controlled (inner
        // operators multiply). Different signatures would densify two
        // cheap subspace passes into one full dense pass — a loss.
        (g.cls == FuseClass::kControlled && cls == FuseClass::kControlled &&
         rel == SetRel::kEqual && g.ctrl_sig == sig);
    if (!eligible) {
        return false;
    }
    if (fused_block > kFusionMaxBlock) {
        obs::count(obs::Counter::kFusionCapTruncations);
        return false;
    }
    if (absorbs) {
        g.cls = FuseClass::kHeavy;
        g.ctrl_sig.clear();
    }
    return true;
}

std::vector<int>
gate_dims_of(const WireDims& dims, const std::vector<int>& wires)
{
    std::vector<int> gd;
    gd.reserve(wires.size());
    for (const int w : wires) {
        gd.push_back(dims.dim(w));
    }
    return gd;
}

/**
 * True if the operand at position `p` of `m` (over per-position dims
 * `gdim`) is a control: the matrix is block diagonal in that digit and
 * acts as the identity on every value but one. Used to reorder union
 * wires control-first, so Gate's controlled-structure detection (which
 * only recognises LEADING controls) sees the product's structure.
 */
bool
wire_is_control(const Matrix& m, const std::vector<Index>& gdim,
                std::size_t p)
{
    const std::size_t b = m.rows();
    Index stride = 1;
    for (std::size_t q = gdim.size(); q-- > p + 1;) {
        stride *= gdim[q];
    }
    const Index d = gdim[p];
    Index active = d;  // sentinel: no non-identity value found yet
    for (std::size_t r = 0; r < b; ++r) {
        const Index rp = (static_cast<Index>(r) / stride) % d;
        for (std::size_t c = 0; c < b; ++c) {
            const Index cp = (static_cast<Index>(c) / stride) % d;
            const Complex v = m(r, c);
            if (rp != cp) {
                if (std::abs(v) > kTol) {
                    return false;  // mixes digit values: not a control
                }
                continue;
            }
            const Complex expect = r == c ? Complex(1, 0) : Complex(0, 0);
            if (std::abs(v - expect) > kTol) {
                if (active == d) {
                    active = rp;
                } else if (active != rp) {
                    return false;  // acts on two values: not a control
                }
            }
        }
    }
    return active != d;
}

/** Wire order with every control wire moved to the front (stable), so a
 *  fused product like a doubly-controlled-U compiles onto the controlled
 *  subspace kernel instead of the dense fallback. */
std::vector<int>
control_first_order(const WireDims& dims, const std::vector<int>& wires,
                    const Matrix& m)
{
    std::vector<Index> gdim(wires.size());
    for (std::size_t i = 0; i < wires.size(); ++i) {
        gdim[i] = static_cast<Index>(dims.dim(wires[i]));
    }
    std::vector<int> ctrl, rest;
    for (std::size_t p = 0; p < wires.size(); ++p) {
        (wire_is_control(m, gdim, p) ? ctrl : rest).push_back(wires[p]);
    }
    ctrl.insert(ctrl.end(), rest.begin(), rest.end());
    return ctrl;
}

/** Stage-2 working form of a stage-1 group; product matrix and per-pass
 *  cost are evaluated lazily (most windows die on the cap pre-check
 *  before ever needing them). */
struct Stage2Group {
    std::vector<int> wires;
    std::vector<int> wire_set;
    std::vector<std::uint32_t> members;
    Index block = 1;
    bool evaluated = false;
    Matrix mat;              ///< product of the members over `wires`
    std::uint64_t cost = 0;  ///< estimate_block_cost of one pass
};

void
ensure_eval(Stage2Group& g, const WireDims& dims,
            std::span<const Operation> ops)
{
    if (g.evaluated) {
        return;
    }
    if (g.members.size() == 1 && ops[g.members[0]].wires == g.wires) {
        // Singleton: reuse the original gate's cached structure.
        const Operation& op = ops[g.members[0]];
        g.mat = op.gate.matrix();
        g.cost = estimate_block_cost(dims, op.wires, op.gate, dims.size());
    } else {
        const FusedGroup fg{g.wires, g.members};
        g.mat = fused_matrix(dims, ops, fg);
        const Gate probe("s2", gate_dims_of(dims, g.wires), g.mat);
        g.cost = estimate_block_cost(dims, g.wires, probe, dims.size());
    }
    g.evaluated = true;
}

/** An admissible merge window: groups [start..j] fused over `wires`
 *  (control-first operand order) at estimated per-pass cost `cost`. */
struct WindowCand {
    std::size_t j;
    std::uint64_t cost;
    std::vector<int> wires;
};

/**
 * Stage 2: cost-model look-ahead over consecutive stage-1 groups.
 *
 * Enumeration: from each start group, keep extending the window over
 * the next groups — maintaining the running product over the UNION of
 * their wires — and record every window the cost model admits
 * (est(union block) <= sum of the parts). The look-ahead matters: every proper prefix of a
 * decomposed doubly-controlled-U run multiplies to a dense block and is
 * inadmissible, while the full run collapses to one cheap block — which
 * is exactly the overlapping two-qutrit shape the paper's gen-Toffoli
 * trees are made of. Growth stops at a fence (no window may place
 * members on both sides of one: a fenced op stays the last member of
 * its merged group) or when the union block exceeds kFusionMaxBlock
 * (which also bounds the look-ahead's O(union^3)-per-member compile
 * cost).
 *
 * Selection: a backwards dynamic program picks the partition of the
 * group sequence into admissible windows (and singletons) minimizing
 * the summed estimated cost. Leaving every group unmerged is one such
 * partition, so the chosen total never exceeds the stage-1 total — the
 * property the tests pin. (Greedy longest-window commits give no such
 * bound: an early tie-merge can shadow a better later window.)
 *
 * Merging CONSECUTIVE groups is always order-safe: the stage-1
 * partition executes group-major, so collapsing a contiguous run of
 * groups into one block at the first group's position preserves the
 * relative order of every operation. Members are emitted sorted
 * ascending — any member of an earlier group with a higher index than a
 * member of a later group slid there past that group's (only-growing)
 * wire set, so the two commute and ascending order is equivalent.
 */
std::vector<Stage2Group>
stage2_lookahead(const WireDims& dims, std::span<const Operation> ops,
                 std::span<const std::uint8_t> fence_after,
                 std::vector<Stage2Group> in)
{
    const Index total = dims.size();
    const std::size_t n = in.size();

    // Prefix fence counts: fence after op f forbids fusing anything > f
    // with anything <= f, so a window is legal iff no fence falls in
    // [min member, max member).
    std::vector<std::uint32_t> pf(ops.size() + 1, 0);
    for (std::size_t i = 0; i < fence_after.size(); ++i) {
        pf[i + 1] = pf[i] + (fence_after[i] != 0 ? 1u : 0u);
    }

    std::vector<std::vector<WindowCand>> cands(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<int> uw = in[i].wires;   // union, operand order
        std::vector<int> us = in[i].wire_set;
        Matrix m;
        bool have_m = false;
        std::uint64_t sum = 0;
        std::uint32_t lo = in[i].members.front();
        std::uint32_t hi = in[i].members.back();
        for (std::size_t j = i + 1; j < n; ++j) {
            Stage2Group& gj = in[j];
            const std::uint32_t nlo = std::min(lo, gj.members.front());
            const std::uint32_t nhi = std::max(hi, gj.members.back());
            if (pf[nhi] - pf[nlo] > 0) {
                break;  // window would span a fence
            }
            std::vector<int> nw = uw;
            for (const int w : gj.wires) {
                if (!std::binary_search(us.begin(), us.end(), w)) {
                    nw.push_back(w);
                }
            }
            const Index nb = block_of(dims, nw);
            if (nb > kFusionMaxBlock) {
                obs::count(obs::Counter::kFusionCapTruncations);
                break;
            }
            if (!have_m) {
                ensure_eval(in[i], dims, ops);
                m = in[i].mat;
                sum = in[i].cost;
                have_m = true;
            }
            ensure_eval(gj, dims, ops);
            if (nw.size() == uw.size() + gj.wires.size()) {
                // Wire-disjoint extension (the ops of one moment): over
                // uw ++ gj.wires the product is kron(m, gj.mat), whose
                // entries are the embedded product's single nonzero
                // terms, up to the sign of zeros, which no tolerance test
                // below sees; no embedding and no full multiply.
                m = m.kron(gj.mat);
            } else {
                if (nw.size() != uw.size()) {
                    m = embed_into_block(dims, nw, uw, m);
                }
                const Matrix mj = gj.wires == nw
                                      ? gj.mat
                                      : embed_into_block(dims, nw, gj.wires,
                                                         gj.mat);
                m = mj * m;
            }
            uw = std::move(nw);
            std::vector<int> ns;
            ns.reserve(us.size() + gj.wire_set.size());
            std::set_union(us.begin(), us.end(), gj.wire_set.begin(),
                           gj.wire_set.end(), std::back_inserter(ns));
            us = std::move(ns);
            lo = nlo;
            hi = nhi;
            sum += gj.cost;

            std::vector<int> ord = control_first_order(dims, uw, m);
            const Gate probe(
                "s2", gate_dims_of(dims, ord),
                ord == uw ? m : embed_into_block(dims, ord, uw, m));
            const std::uint64_t cand =
                estimate_block_cost(dims, ord, probe, total);
            if (cand <= sum) {
                cands[i].push_back(WindowCand{j, cand, std::move(ord)});
            } else {
                obs::count(obs::Counter::kFusionCostRejected);
            }
        }
    }

    // dp[k]: minimal estimated cost of executing groups k..n-1;
    // choice[k] is the window end realizing it (k itself = stay
    // unmerged). On cost ties prefer the longer window: fewer passes at
    // equal modelled work. A group the enumeration never evaluated is in
    // no window (every window member is evaluated on the way), so it is a
    // singleton in every partition and its cost adds the same constant
    // to every total that includes it: it counts as 0 and is never
    // evaluated (under moment fences, every op alone in its moment).
    std::vector<std::uint64_t> dp(n + 1, 0);
    std::vector<std::size_t> choice(n, 0);
    for (std::size_t k = n; k-- > 0;) {
        dp[k] = (in[k].evaluated ? in[k].cost : 0) + dp[k + 1];
        choice[k] = k;
        for (const WindowCand& w : cands[k]) {
            const std::uint64_t t = w.cost + dp[w.j + 1];
            if (t <= dp[k]) {
                dp[k] = t;
                choice[k] = w.j;
            }
        }
    }

    std::vector<Stage2Group> out;
    out.reserve(n);
    std::size_t i = 0;
    while (i < n) {
        const std::size_t end = choice[i];
        if (end == i) {
            out.push_back(std::move(in[i]));
            ++i;
            continue;
        }
        const auto it = std::find_if(
            cands[i].begin(), cands[i].end(),
            [end](const WindowCand& w) { return w.j == end; });
        Stage2Group merged;
        merged.wires = it->wires;
        for (std::size_t k = i; k <= end; ++k) {
            merged.members.insert(merged.members.end(),
                                  in[k].members.begin(),
                                  in[k].members.end());
        }
        std::sort(merged.members.begin(), merged.members.end());
        merged.wire_set = merged.wires;
        std::sort(merged.wire_set.begin(), merged.wire_set.end());
        merged.block = block_of(dims, merged.wires);
        obs::count(obs::Counter::kFusionCostAccepted,
                   static_cast<std::uint64_t>(end - i));
        out.push_back(std::move(merged));
        i = end + 1;
    }
    return out;
}

void
check_fence_size(std::span<const Operation> ops,
                 std::span<const std::uint8_t> fence_after)
{
    if (!fence_after.empty() && fence_after.size() != ops.size()) {
        throw std::invalid_argument(
            "fuse_sites: fence_after size does not match ops");
    }
}

/** Stage 1: the greedy class-algebra partition (fusion enabled). */
std::vector<OpenGroup>
stage1_groups(const WireDims& dims, std::span<const Operation> ops,
              std::span<const std::uint8_t> fence_after)
{
    std::vector<OpenGroup> groups;
    groups.reserve(ops.size());
    std::size_t first_open = 0;
    for (std::uint32_t j = 0; j < ops.size(); ++j) {
        const Operation& op = ops[j];
        std::vector<int> set(op.wires);
        std::sort(set.begin(), set.end());
        bool merged = false;
        CtrlSig sig;
        const FuseClass cls = classify(op, sig);
        for (std::size_t k = groups.size(); k-- > first_open;) {
            OpenGroup& g = groups[k];
            const SetRel rel = relation(g.wire_set, set);
            if (rel == SetRel::kDisjoint) {
                continue;  // commutes: slide past
            }
            if (rel == SetRel::kOverlap) {
                break;  // shares wires without nesting: hard boundary
            }
            const bool op_super = rel == SetRel::kSecondSuper;
            const Index fused_block =
                op_super ? block_of(dims, op.wires) : g.block;
            const std::size_t fused_wires =
                op_super ? op.wires.size() : g.wires.size();
            if (try_merge_class(g, cls, sig, rel, fused_block,
                                fused_wires)) {
                if (op_super) {
                    g.wires = op.wires;
                    g.wire_set = std::move(set);
                    g.block = fused_block;
                }
                g.members.push_back(j);
                merged = true;
            }
            break;  // fused or not, can't slide past shared wires
        }
        if (!merged) {
            OpenGroup g;
            g.wires = op.wires;
            g.wire_set = std::move(set);
            g.members.push_back(j);
            g.block = block_of(dims, op.wires);
            g.cls = cls;
            g.ctrl_sig = std::move(sig);
            groups.push_back(std::move(g));
        }
        if (!fence_after.empty() && fence_after[j] != 0) {
            first_open = groups.size();
        }
    }
    return groups;
}

}  // namespace

std::vector<FusedGroup>
fuse_stage1(const WireDims& dims, std::span<const Operation> ops,
            std::span<const std::uint8_t> fence_after)
{
    check_fence_size(ops, fence_after);
    std::vector<FusedGroup> out;
    for (OpenGroup& g : stage1_groups(dims, ops, fence_after)) {
        out.push_back(FusedGroup{std::move(g.wires), std::move(g.members)});
    }
    return out;
}

std::vector<FusedGroup>
fuse_sites(const WireDims& dims, std::span<const Operation> ops,
           std::span<const std::uint8_t> fence_after,
           const FusionOptions& options)
{
    check_fence_size(ops, fence_after);
    std::vector<FusedGroup> out;
    if (!options.enabled) {
        out.reserve(ops.size());
        for (std::uint32_t j = 0; j < ops.size(); ++j) {
            out.push_back(FusedGroup{ops[j].wires, {j}});
        }
    } else {
        std::vector<OpenGroup> groups = stage1_groups(dims, ops, fence_after);
        out.reserve(groups.size());
        std::vector<Stage2Group> s2;
        s2.reserve(groups.size());
        for (OpenGroup& g : groups) {
            Stage2Group s;
            s.wires = std::move(g.wires);
            s.wire_set = std::move(g.wire_set);
            s.members = std::move(g.members);
            s.block = g.block;
            s2.push_back(std::move(s));
        }
        if (s2.size() > 1) {
            s2 = stage2_lookahead(dims, ops, fence_after, std::move(s2));
        }
        for (Stage2Group& g : s2) {
            out.push_back(
                FusedGroup{std::move(g.wires), std::move(g.members)});
        }
    }
    if (obs::enabled()) {
        obs::count_unchecked(obs::Counter::kFusionOpsIn, ops.size());
        obs::count_unchecked(obs::Counter::kFusionBlocksOut, out.size());
        std::uint64_t fused = 0;
        for (const FusedGroup& g : out) {
            fused += g.members.size() > 1 ? 1 : 0;
        }
        obs::count_unchecked(obs::Counter::kFusionFusedGroups, fused);
    }
    return out;
}

std::uint64_t
estimate_block_cost(const WireDims& dims, std::span<const int> wires,
                    const Gate& gate, Index total)
{
    const std::uint64_t t = total;
    const std::uint64_t block = gate.block_size();
    const std::uint64_t traffic_all = t * 2;
    // Mirrors compile_op's dispatch order on the gate's cached structure,
    // with the op_flop_estimate formula of the kernel each branch lands
    // on, plus 2 per amplitude the kernel actually touches (the traffic
    // term is what makes pass-count reduction count for zero-flop
    // permutation merges).
    if (wires.size() == 1 && !gate.is_permutation() &&
        !gate.is_diagonal_gate() &&
        (dims.dim(wires[0]) == 2 || dims.dim(wires[0]) == 3)) {
        // unrolled dense d2/d3 kernel
        return t * static_cast<std::uint64_t>(dims.dim(wires[0])) * 8 +
               traffic_all;
    }
    if (gate.is_permutation()) {
        return traffic_all;  // pure index moves, zero flops
    }
    if (gate.is_diagonal_gate()) {
        return t * 6 + traffic_all;
    }
    std::vector<Index> perm;
    std::vector<Complex> phase;
    if (monomial_action(gate.matrix(), perm, phase)) {
        // Slots the cycle walk visits: every member of a non-trivial
        // cycle plus non-unit fixed points (build_monomial_cycles).
        std::uint64_t slots = 0;
        for (std::size_t i = 0; i < perm.size(); ++i) {
            if (perm[i] != static_cast<Index>(i) ||
                std::abs(phase[i] - Complex(1, 0)) > kTol) {
                ++slots;
            }
        }
        return (t / block) * slots * 6 + traffic_all;
    }
    if (gate.has_controlled_structure()) {
        const auto nb = static_cast<std::uint64_t>(
            gate.controlled_structure().inner.rows());
        const std::uint64_t outer = t / block;
        return outer * nb * nb * 8 + outer * nb * 2;
    }
    return (t / block) * block * block * 8 + traffic_all;
}

Matrix
embed_into_block(const WireDims& dims, std::span<const int> group_wires,
                 std::span<const int> op_wires, const Matrix& m)
{
    const std::size_t kg = group_wires.size();
    const std::size_t ko = op_wires.size();
    std::vector<std::size_t> pos(ko);
    for (std::size_t i = 0; i < ko; ++i) {
        bool found = false;
        for (std::size_t g = 0; g < kg; ++g) {
            if (group_wires[g] == op_wires[i]) {
                pos[i] = g;
                found = true;
                break;
            }
        }
        if (!found) {
            throw std::invalid_argument(
                "embed_into_block: op wire not in group wires");
        }
    }
    Index bg = 1;
    std::vector<Index> gdim(kg);
    for (std::size_t g = 0; g < kg; ++g) {
        gdim[g] = static_cast<Index>(dims.dim(group_wires[g]));
        bg *= gdim[g];
    }
    if (static_cast<Index>(m.rows()) != block_of(
            dims, std::vector<int>(op_wires.begin(), op_wires.end())) ||
        m.rows() != m.cols()) {
        throw std::invalid_argument(
            "embed_into_block: matrix size does not match op wires");
    }

    // For each group-local index: the op-local index of its operand digits
    // (op operand order) and a packed key of the remaining digits.
    std::vector<Index> op_index(static_cast<std::size_t>(bg));
    std::vector<Index> rest_index(static_cast<std::size_t>(bg));
    std::vector<Index> digit(kg);
    for (Index r = 0; r < bg; ++r) {
        Index x = r;
        for (std::size_t g = kg; g-- > 0;) {
            digit[g] = x % gdim[g];
            x /= gdim[g];
        }
        Index lo = 0;
        for (std::size_t i = 0; i < ko; ++i) {
            lo = lo * gdim[pos[i]] + digit[pos[i]];
        }
        Index rest = 0;
        for (std::size_t g = 0; g < kg; ++g) {
            bool is_op = false;
            for (const std::size_t p : pos) {
                if (p == g) {
                    is_op = true;
                    break;
                }
            }
            if (!is_op) {
                rest = rest * gdim[g] + digit[g];
            }
        }
        op_index[static_cast<std::size_t>(r)] = lo;
        rest_index[static_cast<std::size_t>(r)] = rest;
    }

    Matrix full(static_cast<std::size_t>(bg), static_cast<std::size_t>(bg));
    for (Index r = 0; r < bg; ++r) {
        for (Index c = 0; c < bg; ++c) {
            if (rest_index[static_cast<std::size_t>(r)] !=
                rest_index[static_cast<std::size_t>(c)]) {
                continue;
            }
            full(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) =
                m(static_cast<std::size_t>(
                      op_index[static_cast<std::size_t>(r)]),
                  static_cast<std::size_t>(
                      op_index[static_cast<std::size_t>(c)]));
        }
    }
    return full;
}

Matrix
fused_matrix(const WireDims& dims, std::span<const Operation> ops,
             const FusedGroup& group)
{
    Matrix acc;
    for (const std::uint32_t idx : group.members) {
        const Operation& op = ops[idx];
        const Matrix em =
            op.wires == group.wires
                ? op.gate.matrix()
                : embed_into_block(dims, group.wires, op.wires,
                                   op.gate.matrix());
        acc = acc.empty() ? em : em * acc;
    }
    return acc;
}

}  // namespace qd::exec
