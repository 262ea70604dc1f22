#include "qdsim/exec/batched_kernels.h"

#include "qdsim/exec/simd.h"
#include "qdsim/verify/verify.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <type_traits>

namespace qd::exec {

namespace {

/** Marks a kernel's per-block body, which run_blocks calls once per outer
 *  block: always inlined, since a one-lane block is a few loads and
 *  stores, cheaper than the call GCC otherwise keeps in the large run_op
 *  instantiations. */
#define QD_BLOCK_BODY __attribute__((always_inline))

/** Lane count of a single-shot pass: a compile-time 1, so every lane loop
 *  of the kernel bodies below folds away. Batched passes instantiate the
 *  same bodies with the batch width as a runtime std::size_t. */
using OneLane = std::integral_constant<std::size_t, 1>;

// Inner lane loops run on re/im doubles (std::complex array-oriented
// access): the expression tree of every amplitude is fixed per kernel
// and independent of the lane count, so a lane of a batched pass is
// bitwise one single-shot pass, while the loops vectorise across lanes
// and skip libstdc++'s complex-multiply NaN-recovery branches.
inline Real*
as_reals(Complex* p)
{
    return reinterpret_cast<Real*>(p);
}

inline const Real*
as_reals(const Complex* p)
{
    return reinterpret_cast<const Real*>(p);
}

/** Outer blocks of a plan-based kernel: block o holds the amplitudes
 *  plan.base_of(o) + local_offset[k], in odometer order. */
struct PlanBlocks {
    const ApplyPlan& plan;

    /** Calls visit(base, tmp) for every block, in order. */
    template <class Visit>
    void walk(const Visit& visit, Complex* tmp) const {
        const Index n = plan.outer_count();
        if (!plan.base_offsets.empty()) {
            // Tabulated bases, read through a hoisted pointer.
            const Index* bases = plan.base_offsets.data();
            for (Index o = 0; o < n; ++o) {
                visit(bases[o], tmp);
            }
            return;
        }
        for (Index o = 0; o < n; ++o) {
            visit(plan.base_of(o), tmp);
        }
    }
};

/** Outer blocks of a single-wire kernel: block o is row o, the d
 *  amplitudes base + v * stride (v < d), rows in increasing base order. */
struct WireBlocks {
    Index stride, period, total;
    Index off[3];
    Index d;

    WireBlocks(Index stride_, Index period_, Index total_)
        : stride(stride_), period(period_), total(total_),
          off{0, stride_, 2 * stride_}, d(period_ / stride_) {}

    /** Calls visit(base, tmp) for every block, in order. */
    template <class Visit>
    void walk(const Visit& visit, Complex* tmp) const {
        const Index n = total / d;
        Index i = 0, base = 0;
        for (Index o = 0; o < n; ++o) {
            visit(base, tmp);
            if (++i == stride) {
                i = 0;
                base += period - stride + 1;
            } else {
                ++base;
            }
        }
    }
};

/**
 * The outer blocks of one kernel over a tracked batch
 * (BatchedStateVector::support): the bases of the blocks holding an
 * occupied index the kernel reads, each block covering `block`
 * amplitudes, and the offsets from a base of the amplitudes the kernel
 * writes (`marks`), whose occupancy flags are recomputed after the
 * block. Built by collect_support into the scratch.
 */
struct SupportWalk {
    const Index* bases = nullptr;
    std::int64_t count = 0;
    Index block = 1;
    const Index* marks = nullptr;
    std::size_t nmarks = 0;
    std::uint8_t* flags = nullptr;
};

/** Outer blocks of a kernel over a tracked batch: the blocks of a
 *  SupportWalk, each followed by flagging the written amplitudes that are
 *  nonzero in some lane and clearing the flags of the rest. */
template <class Lanes>
struct SupportBlocks {
    const SupportWalk& w;
    const Complex* amps;
    Lanes B;

    /** Calls visit(base, tmp) for every block, in order. */
    template <class Visit>
    void walk(const Visit& visit, Complex* tmp) const {
        for (std::int64_t o = 0; o < w.count; ++o) {
            const Index base = w.bases[o];
            visit(base, tmp);
            for (std::size_t k = 0; k < w.nmarks; ++k) {
                const Index i = base + w.marks[k];
                const Real* d = as_reals(amps + i * B);
                bool nz = false;
                for (std::size_t l = 0; l < 2 * B; ++l) {
                    nz = nz || d[l] != 0;
                }
                w.flags[i] = nz ? 1 : 0;
            }
        }
    }
};

/** Exact n / d for n, d < 2^32 with one multiply-high (Lemire et al.,
 *  "Faster remainder by direct computation", 2019). */
struct FastDiv {
    std::uint64_t m = 0;
    std::uint32_t d = 1;

    FastDiv() = default;
    explicit FastDiv(Index divisor)
        : m(divisor == 1 ? 0 : ~std::uint64_t{0} / divisor + 1),
          d(static_cast<std::uint32_t>(divisor)) {}

    std::uint32_t div(std::uint32_t n) const {
        return d == 1 ? n
                      : static_cast<std::uint32_t>(
                            (static_cast<unsigned __int128>(m) * n) >> 64);
    }
};

/**
 * Fills `scratch` with the SupportWalk of `op` over the tracked batch
 * `psi`. Each occupied index i splits over the op's wires into a block
 * base (those digits zeroed) and a local ordinal (those digits, wires[0]
 * most significant); the block is walked when the kernel reads that
 * ordinal: every one for diagonal, single-wire and dense ops, the cycle
 * slots of a permutation or monomial, the active-control target block
 * of a controlled op. Bases keep the order of their first occupied index
 * (kernels on disjoint blocks commute).
 */
SupportWalk
collect_support(const CompiledOp& op, BatchedStateVector& psi,
                ExecScratch& scratch)
{
    const WireDims& dims = psi.dims();
    // The op's wires, most significant local digit first. A tracked
    // register has fewer than 2^32 amplitudes, so at most 32 wires.
    constexpr std::size_t kMaxWires = 32;
    const std::size_t nw = op.wires.size();
    if (nw > kMaxWires) {
        throw std::invalid_argument("collect_support: too many wires");
    }
    FastDiv by_stride[kMaxWires], by_dim[kMaxWires];
    Index strides[kMaxWires];
    Index block = 1;
    for (std::size_t j = 0; j < nw; ++j) {
        const int w = op.wires[j];
        by_stride[j] = FastDiv(dims.stride(w));
        by_dim[j] = FastDiv(static_cast<Index>(dims.dim(w)));
        strides[j] = dims.stride(w);
        block *= static_cast<Index>(dims.dim(w));
    }
    auto split = [&](std::uint32_t i, Index& base) {
        Index ordinal = 0;
        base = i;
        for (std::size_t j = 0; j < nw; ++j) {
            const std::uint32_t q = by_stride[j].div(i);
            const std::uint32_t digit = q - by_dim[j].div(q) * by_dim[j].d;
            base -= digit * strides[j];
            ordinal = ordinal * by_dim[j].d + digit;
        }
        return ordinal;
    };
    // Written offsets, and which local ordinals the kernel reads.
    std::vector<Index>& marks = scratch.support_marks;
    std::vector<std::uint8_t>& reads = scratch.support_reads;
    marks.clear();
    reads.assign(static_cast<std::size_t>(block), 0);
    auto mark_all = [&](const Index* off, std::size_t n) {
        for (std::size_t k = 0; k < n; ++k) {
            Index base = 0;
            reads[split(static_cast<std::uint32_t>(off[k]), base)] = 1;
            marks.push_back(off[k]);
        }
    };
    switch (op.kind) {
        case KernelKind::kPermutation:
        case KernelKind::kMonomial:
            mark_all(op.cycle_offsets.data(), op.cycle_offsets.size());
            break;
        case KernelKind::kDiagonal:
            // Scales in place: reads every slot, creates no nonzero.
            std::fill(reads.begin(), reads.end(), 1);
            break;
        case KernelKind::kSingleWireD2:
        case KernelKind::kSingleWireD3: {
            const Index off[3] = {0, op.stride1, 2 * op.stride1};
            mark_all(off, static_cast<std::size_t>(block));
            break;
        }
        case KernelKind::kControlled:
            for (const Index t : op.inner_offset) {
                const Index off = op.ctrl_offset + t;
                mark_all(&off, 1);
            }
            break;
        case KernelKind::kDense:
            mark_all(op.plan->local_offset.data(),
                     op.plan->local_offset.size());
            break;
    }
    std::vector<Index>& bases = scratch.support_bases;
    std::vector<std::uint8_t>& seen = scratch.support_seen;
    bases.clear();
    seen.resize(static_cast<std::size_t>(dims.size()), 0);
    psi.for_each_occupied([&](Index i) {
        Index base = 0;
        if (reads[split(static_cast<std::uint32_t>(i), base)] != 0 &&
            seen[static_cast<std::size_t>(base)] == 0) {
            seen[static_cast<std::size_t>(base)] = 1;
            bases.push_back(base);
        }
    });
    for (const Index base : bases) {
        seen[static_cast<std::size_t>(base)] = 0;
    }
    SupportWalk w;
    w.bases = bases.data();
    w.count = static_cast<std::int64_t>(bases.size());
    w.block = block;
    w.marks = marks.data();
    w.nmarks = marks.size();
    w.flags = psi.support();
    return w;
}

/**
 * The one pass driver every kernel runs through, single-shot and batched:
 * calls kernel(base, tmp) per outer block of `blocks`, in order, on the
 * calling thread, where tmp is the scratch's buffer grown to `tmp_elems`
 * complexes. Parallelism lives above the kernels (trajectory batches,
 * daemon jobs), each worker with its own scratch. Kept out of line, one
 * function per kernel body: inlined into run_op, every block loop of
 * the switch shared one function's register allocation, and QUBIT
 * width-12 trajectories ran ~25% slower (4-core Xeon, one worker).
 */
template <class Blocks, class Kernel>
__attribute__((noinline)) void
run_blocks(const Blocks& blocks, std::size_t tmp_elems, ExecScratch& scratch,
           Kernel kernel)
{
    if (scratch.tmp.size() < tmp_elems) {
        scratch.tmp.resize(tmp_elems);
    }
    blocks.walk(kernel, scratch.tmp.data());
}

/** One row of per-lane temporaries: the scratch row for a runtime lane
 *  count; a local for OneLane, which the compiler keeps in
 *  registers (a scratch row could alias the state). */
template <class Lanes>
struct LaneRow {
    Complex* p;
    explicit LaneRow(Complex* scratch_row) : p(scratch_row) {}
    Complex* data() { return p; }
};

template <>
struct LaneRow<OneLane> {
    Complex v[1];
    explicit LaneRow(Complex*) {}
    Complex* data() { return v; }
};

/** dst = src over one row of B lanes (disjoint rows). */
template <class Lanes>
inline void
copy_lanes(Complex* dst, const Complex* src, const Lanes B)
{
    Real* d = as_reals(dst);
    const Real* s = as_reals(src);
    QD_SIMD
    for (std::size_t l = 0; l < 2 * B; ++l) {
        d[l] = s[l];
    }
}

/**
 * Shared gather / per-lane matvec core of the controlled and dense
 * kernels: `off` lists `nb` block offsets relative to `base`, and `m` is
 * the row-major nb x nb operator. The originals are gathered into `in`
 * once, so each output row can accumulate in registers and store straight
 * back to the state — no zero-fill or scatter pass. Per lane the
 * accumulation runs 0 + row[0]*in[0] + row[1]*in[1] + ... in column
 * order, whatever the lane count.
 */
template <bool kFramed, bool kPhased, class Lanes>
void
matvec_block_b(Complex* amps, Index base, const Index* off, Index nb,
               const Complex* m, const Lanes B, Complex* in, Complex* frame)
{
    for (Index b = 0; b < nb; ++b) {
        Complex* src = amps + (base + off[b]) * B;
        if constexpr (kFramed) {
            // Gather c (.) x and leave c = 1 behind: the rows this block
            // writes hold the framed state itself.
            const Real fr = frame[base + off[b]].real();
            const Real fi = frame[base + off[b]].imag();
            frame[base + off[b]] = Complex(1, 0);
            Real* d = as_reals(in + static_cast<std::size_t>(b) * B);
            const Real* x = as_reals(src);
            QD_SIMD
            for (std::size_t l = 0; l < B; ++l) {
                const Real xr = x[2 * l], xi = x[2 * l + 1];
                d[2 * l] = xr * fr - xi * fi;
                d[2 * l + 1] = xr * fi + xi * fr;
            }
        } else {
            copy_lanes(in + static_cast<std::size_t>(b) * B, src, B);
        }
    }
    // The gather buffer never aliases the state, and the matrix row is
    // hoisted into locals, so the lane loop runs on registers; without the
    // restrict/hoist the compiler re-loads every operand per lane against
    // possible aliasing with the output stores.
    const Real* __restrict din = as_reals(in);
    if constexpr (kPhased) {
        // One matrix per lane: entry (r, c) of lane l is m[(r nb + c) B + l].
        for (Index r = 0; r < nb; ++r) {
            const Real* __restrict row =
                as_reals(m + static_cast<std::size_t>(r * nb) * B);
            Real* __restrict dst = as_reals(amps + (base + off[r]) * B);
            QD_SIMD
            for (std::size_t l = 0; l < B; ++l) {
                Real accr = 0.0, acci = 0.0;
                for (Index c = 0; c < nb; ++c) {
                    const std::size_t at =
                        static_cast<std::size_t>(c) * 2 * B + 2 * l;
                    const Real cr = row[at], ci = row[at + 1];
                    const Real sr = din[at], si = din[at + 1];
                    accr += cr * sr - ci * si;
                    acci += cr * si + ci * sr;
                }
                dst[2 * l] = accr;
                dst[2 * l + 1] = acci;
            }
        }
        return;
    }
    constexpr Index kUnrollCap = 8;
    Real fr[kUnrollCap], fi[kUnrollCap];
    for (Index r = 0; r < nb; ++r) {
        const Complex* row = m + r * nb;
        Real* __restrict dst = as_reals(amps + (base + off[r]) * B);
        if (nb <= kUnrollCap) {
            for (Index c = 0; c < nb; ++c) {
                fr[c] = row[c].real();
                fi[c] = row[c].imag();
            }
            QD_SIMD
            for (std::size_t l = 0; l < B; ++l) {
                Real accr = 0.0, acci = 0.0;
                for (Index c = 0; c < nb; ++c) {
                    const Real sr =
                        din[static_cast<std::size_t>(c) * 2 * B + 2 * l];
                    const Real si =
                        din[static_cast<std::size_t>(c) * 2 * B + 2 * l + 1];
                    accr += fr[c] * sr - fi[c] * si;
                    acci += fr[c] * si + fi[c] * sr;
                }
                dst[2 * l] = accr;
                dst[2 * l + 1] = acci;
            }
            continue;
        }
        QD_SIMD
        for (std::size_t l = 0; l < B; ++l) {
            Real accr = 0.0, acci = 0.0;
            for (Index c = 0; c < nb; ++c) {
                const Real cr = row[c].real(), ci = row[c].imag();
                const Real sr =
                    din[static_cast<std::size_t>(c) * 2 * B + 2 * l];
                const Real si =
                    din[static_cast<std::size_t>(c) * 2 * B + 2 * l + 1];
                accr += cr * sr - ci * si;
                acci += cr * si + ci * sr;
            }
            dst[2 * l] = accr;
            dst[2 * l + 1] = acci;
        }
    }
}

/** (ar, ai) *= c, a frame factor, on re/im doubles. */
inline void
frame_lane(Real& ar, Real& ai, Complex c)
{
    const Real r = ar * c.real() - ai * c.imag();
    ai = ar * c.imag() + ai * c.real();
    ar = r;
}

/** dst[l] = src[l] * f[l] over one row of B lanes, f a row of per-lane
 *  factors (dst may equal src). */
inline void
move_lanes_scaled(Complex* dst, const Complex* src, const Complex* f,
                  std::size_t B)
{
    Real* d = as_reals(dst);
    const Real* s = as_reals(src);
    const Real* g = as_reals(f);
    QD_SIMD
    for (std::size_t l = 0; l < B; ++l) {
        const Real ar = s[2 * l], ai = s[2 * l + 1];
        const Real fr = g[2 * l], fi = g[2 * l + 1];
        d[2 * l] = ar * fr - ai * fi;
        d[2 * l + 1] = ar * fi + ai * fr;
    }
}

/**
 * The per-lane tables a pass over a phase-framed batch runs on
 * (batched_state.h: lane l's state is P_l (c (.) x_l), P_l the product
 * over wires w of diag(e^{i m theta[w][l]})). Conjugating the op by P
 * leaves the phases of its own wires S: ph_l(k) = e^{i phi_l(k)}, with
 * phi_l(k) = sum over w in S of digit_w(k) theta[w][l] for a local
 * offset k, and the stored lanes take P_S^dagger U P_S:
 *  - permutation / monomial: slot i of a cycle moves its value to the
 *    next slot with factor phase_i ph_l(src) / ph_l(dst) (phase_i = 1 for
 *    a permutation; a fixed point keeps its phase), laid out
 *    [slot][lane] along cycle_offsets;
 *  - single-wire, controlled, dense: the block matrix, entry (r, c) times
 *    ph_l(c) / ph_l(r), laid out [r][c][lane]. The controlled kernel's
 *    control digits are fixed in its active block, so only the target
 *    wires' phases survive.
 * Diagonal ops commute with P and take no table. Built into `out` once
 * per call, before the pass reads it.
 */
const Complex*
phase_table(const CompiledOp& op, const WireDims& dims, const Real* theta,
            std::size_t B, std::vector<Complex>& out)
{
    const Index d1 =
        op.stride1 != 0 ? op.period1 / op.stride1 : 0;  // single-wire dim
    const Index wire_off[3] = {0, op.stride1, 2 * op.stride1};
    const Index* off = nullptr;
    std::size_t count = 0;
    const Complex* m = nullptr;
    switch (op.kind) {
        case KernelKind::kPermutation:
        case KernelKind::kMonomial:
            off = op.cycle_offsets.data();
            count = op.cycle_offsets.size();
            break;
        case KernelKind::kSingleWireD2:
        case KernelKind::kSingleWireD3:
            off = wire_off;
            count = static_cast<std::size_t>(d1);
            m = op.u;
            break;
        case KernelKind::kControlled:
            off = op.inner_offset.data();
            count = op.inner_offset.size();
            m = op.inner.data().data();
            break;
        case KernelKind::kDense:
            off = op.plan->local_offset.data();
            count = static_cast<std::size_t>(op.plan->block);
            m = op.gate.matrix().data().data();
            break;
        case KernelKind::kDiagonal:
            return nullptr;
    }
    // ph[k B + l] = ph_l(off[k]), after the table proper in `out`.
    const std::size_t table =
        m != nullptr ? count * count * B : count * B;
    out.resize(table + count * B);
    Complex* ph = out.data() + table;
    for (std::size_t k = 0; k < count; ++k) {
        for (std::size_t l = 0; l < B; ++l) {
            Real phi = 0;
            for (const int w : op.wires) {
                const Index digit = off[k] / dims.stride(w) % dims.dim(w);
                phi += static_cast<Real>(digit) *
                       theta[static_cast<std::size_t>(w) * B + l];
            }
            ph[k * B + l] = std::polar(1.0, phi);
        }
    }
    Complex* t = out.data();
    if (m == nullptr) {
        const Complex* phase = op.kind == KernelKind::kMonomial
                                   ? op.cycle_phases.data()
                                   : nullptr;
        std::size_t at = 0;
        for (const std::uint32_t len : op.cycle_lengths) {
            for (std::size_t i = 0; i < len; ++i) {
                const std::size_t src = at + i, dst = at + (i + 1) % len;
                const Complex v = phase != nullptr ? phase[src] : 1.0;
                for (std::size_t l = 0; l < B; ++l) {
                    t[src * B + l] =
                        len == 1 ? v
                                 : v * ph[src * B + l] *
                                       std::conj(ph[dst * B + l]);
                }
            }
            at += len;
        }
        return t;
    }
    for (std::size_t r = 0; r < count; ++r) {
        for (std::size_t c = 0; c < count; ++c) {
            for (std::size_t l = 0; l < B; ++l) {
                t[(r * count + c) * B + l] = m[r * count + c] *
                                             ph[c * B + l] *
                                             std::conj(ph[r * B + l]);
            }
        }
    }
    return t;
}

/**
 * Runs `op` over the B lanes of the `total`-amplitude register at `amps`
 * through run_blocks. Each case supplies the kernel's outer-block
 * geometry and its per-block body. `Lanes` is OneLane for a StateVector
 * and std::size_t for a BatchedStateVector. With `kFramed` the lanes
 * carry a frame (batched_state.h): permutation and monomial blocks move
 * c[idx] along their cycles with the amplitudes (a monomial's phases stay
 * in the lanes), diagonal blocks leave it alone (diagonals commute;
 * apply_op_batched sends a framed diagonal to the frame instead), and the
 * matvec kernels (single-wire, controlled, dense) multiply the
 * amplitudes they read by c and reset those entries to 1. With `kPhased`
 * the lanes carry a phase frame and `lane_tab` is the op's phase_table:
 * cycle moves take a per-lane factor, and the single-wire kernels run as
 * per-lane matvecs like the controlled and dense ones. Diagonal ops
 * never run phased. With `walk` (a tracked batch) every kernel runs over
 * the walk's blocks instead of its own dense geometry.
 */
template <bool kFramed, bool kPhased, class Lanes>
void
run_op(const CompiledOp& op, Complex* amps, Index total, const Lanes B,
       ExecScratch& scratch, Complex* frame, const Complex* lane_tab,
       const SupportWalk* walk = nullptr)
{
    auto run = [&](const auto& blocks, std::size_t tmp_elems, auto kernel) {
        if constexpr (!std::is_same_v<Lanes, OneLane>) {
            if (walk != nullptr) {
                run_blocks(SupportBlocks<Lanes>{*walk, amps, B}, tmp_elems,
                           scratch, kernel);
                return;
            }
        }
        run_blocks(blocks, tmp_elems, scratch, kernel);
    };
    // Moves frame entries along one cycle of local offsets c[0..len), the
    // way the cycle walks below move amplitudes: c[i-1] -> c[i], last ->
    // first.
    auto cycle_frame = [frame](Index base, const Index* c,
                               std::uint32_t len) {
        if constexpr (kFramed) {
            const Complex last = frame[base + c[len - 1]];
            for (std::uint32_t i = len - 1; i >= 1; --i) {
                frame[base + c[i]] = frame[base + c[i - 1]];
            }
            frame[base + c[0]] = last;
        }
    };
    // Cycle walk of a phased permutation or monomial: every move takes
    // its slot's per-lane factor; fixed points scale in place.
    auto run_phased_cycles = [&]() {
        const Index* cyc = op.cycle_offsets.data();
        const std::uint32_t* lens = op.cycle_lengths.data();
        const std::size_t ncycles = op.cycle_lengths.size();
        run(PlanBlocks{*op.plan}, B,
            [=](Index base, Complex* tmp) QD_BLOCK_BODY {
                const Index* c = cyc;
                const Complex* t = lane_tab;
                for (std::size_t j = 0; j < ncycles; ++j) {
                    const std::uint32_t len = lens[j];
                    if (len == 1) {
                        Complex* p = amps + (base + c[0]) * B;
                        move_lanes_scaled(p, p, t, B);
                    } else {
                        move_lanes_scaled(tmp,
                                          amps + (base + c[len - 1]) * B,
                                          t + (len - 1) * B, B);
                        for (std::uint32_t i = len - 1; i >= 1; --i) {
                            move_lanes_scaled(amps + (base + c[i]) * B,
                                              amps + (base + c[i - 1]) * B,
                                              t + (i - 1) * B, B);
                        }
                        copy_lanes(amps + (base + c[0]) * B, tmp, B);
                        cycle_frame(base, c, len);
                    }
                    c += len;
                    t += len * B;
                }
            });
    };
    // A phased single-wire op: the wire's d rows as a per-lane matvec.
    auto run_phased_wire = [&]() {
        const WireBlocks blocks(op.stride1, op.period1, total);
        run(blocks, static_cast<std::size_t>(blocks.d) * B,
            [=](Index base, Complex* in) QD_BLOCK_BODY {
                matvec_block_b<kFramed, true>(amps, base, blocks.off,
                                              blocks.d, lane_tab, B, in,
                                              frame);
            });
    };
    switch (op.kind) {
        case KernelKind::kPermutation: {
            if constexpr (kPhased) {
                run_phased_cycles();
                return;
            }
            const Index* cyc = op.cycle_offsets.data();
            const std::uint32_t* lens = op.cycle_lengths.data();
            const std::size_t ncycles = op.cycle_lengths.size();
            run(PlanBlocks{*op.plan}, B,
                [=](Index base, Complex* buf) QD_BLOCK_BODY {
                    LaneRow<Lanes> row(buf);
                    Complex* tmp = row.data();
                    const Index* c = cyc;
                    for (std::size_t j = 0; j < ncycles; ++j) {
                        const std::uint32_t len = lens[j];
                        copy_lanes(tmp, amps + (base + c[len - 1]) * B, B);
                        for (std::uint32_t i = len - 1; i >= 1; --i) {
                            copy_lanes(amps + (base + c[i]) * B,
                                       amps + (base + c[i - 1]) * B, B);
                        }
                        copy_lanes(amps + (base + c[0]) * B, tmp, B);
                        cycle_frame(base, c, len);
                        c += len;
                    }
                });
            return;
        }
        case KernelKind::kMonomial: {
            if constexpr (kPhased) {
                run_phased_cycles();
                return;
            }
            const Index* cyc = op.cycle_offsets.data();
            const Complex* ph = op.cycle_phases.data();
            const std::uint32_t* lens = op.cycle_lengths.data();
            const std::size_t ncycles = op.cycle_lengths.size();
            // dst[b] = src[b] * phase, lane loop on raw re/im doubles
            // (matches the single-shot complex multiply bitwise; see the
            // note at the top).
            auto move_scaled = [B](Complex* dst, const Complex* src,
                                   Complex f) {
                const Real fr = f.real(), fi = f.imag();
                Real* d = as_reals(dst);
                const Real* s = as_reals(src);
                QD_SIMD
                for (std::size_t l = 0; l < B; ++l) {
                    const Real ar = s[2 * l], ai = s[2 * l + 1];
                    d[2 * l] = ar * fr - ai * fi;
                    d[2 * l + 1] = ar * fi + ai * fr;
                }
            };
            run(PlanBlocks{*op.plan}, B,
                [=](Index base, Complex* buf) QD_BLOCK_BODY {
                    LaneRow<Lanes> row(buf);
                    Complex* tmp = row.data();
                    const Index* c = cyc;
                    const Complex* v = ph;
                    for (std::size_t j = 0; j < ncycles; ++j) {
                        const std::uint32_t len = lens[j];
                        if (len == 1) {
                            Complex* p = amps + (base + c[0]) * B;
                            move_scaled(p, p, v[0]);
                        } else {
                            move_scaled(tmp, amps + (base + c[len - 1]) * B,
                                        v[len - 1]);
                            for (std::uint32_t i = len - 1; i >= 1; --i) {
                                move_scaled(amps + (base + c[i]) * B,
                                            amps + (base + c[i - 1]) * B,
                                            v[i - 1]);
                            }
                            copy_lanes(amps + (base + c[0]) * B, tmp, B);
                            cycle_frame(base, c, len);
                        }
                        c += len;
                        v += len;
                    }
                });
            return;
        }
        case KernelKind::kDiagonal: {
            const Index* off = op.plan->local_offset.data();
            const Complex* diag = op.diag.data();
            const Index block = op.plan->block;
            run(PlanBlocks{*op.plan}, 0,
                [=](Index base, Complex*) QD_BLOCK_BODY {
                    for (Index b = 0; b < block; ++b) {
                        const Real fr = diag[b].real(), fi = diag[b].imag();
                        Real* d = as_reals(amps + (base + off[b]) * B);
                        QD_SIMD
                        for (std::size_t l = 0; l < B; ++l) {
                            const Real ar = d[2 * l], ai = d[2 * l + 1];
                            d[2 * l] = ar * fr - ai * fi;
                            d[2 * l + 1] = ar * fi + ai * fr;
                        }
                    }
                });
            return;
        }
        case KernelKind::kSingleWireD2: {
            if constexpr (kPhased) {
                run_phased_wire();
                return;
            }
            const Real u00r = op.u[0].real(), u00i = op.u[0].imag();
            const Real u01r = op.u[1].real(), u01i = op.u[1].imag();
            const Real u10r = op.u[2].real(), u10i = op.u[2].imag();
            const Real u11r = op.u[3].real(), u11i = op.u[3].imag();
            const std::size_t jump = static_cast<std::size_t>(op.stride1) * B;
            const Index s1 = op.stride1;
            run(WireBlocks(op.stride1, op.period1, total), 0,
                [=](Index base, Complex*) QD_BLOCK_BODY {
                    Real* d0 = as_reals(amps + base * B);
                    Real* d1 = as_reals(amps + base * B + jump);
                    Complex f0(1, 0), f1(1, 0);
                    if constexpr (kFramed) {
                        f0 = frame[base];
                        f1 = frame[base + s1];
                        frame[base] = frame[base + s1] = Complex(1, 0);
                    }
                    QD_SIMD
                    for (std::size_t b = 0; b < B; ++b) {
                        Real a0r = d0[2 * b], a0i = d0[2 * b + 1];
                        Real a1r = d1[2 * b], a1i = d1[2 * b + 1];
                        if constexpr (kFramed) {
                            frame_lane(a0r, a0i, f0);
                            frame_lane(a1r, a1i, f1);
                        }
                        d0[2 * b] = (u00r * a0r - u00i * a0i) +
                                    (u01r * a1r - u01i * a1i);
                        d0[2 * b + 1] = (u00r * a0i + u00i * a0r) +
                                        (u01r * a1i + u01i * a1r);
                        d1[2 * b] = (u10r * a0r - u10i * a0i) +
                                    (u11r * a1r - u11i * a1i);
                        d1[2 * b + 1] = (u10r * a0i + u10i * a0r) +
                                        (u11r * a1i + u11i * a1r);
                    }
                });
            return;
        }
        case KernelKind::kSingleWireD3: {
            if constexpr (kPhased) {
                run_phased_wire();
                return;
            }
            const Complex u00 = op.u[0], u01 = op.u[1], u02 = op.u[2];
            const Complex u10 = op.u[3], u11 = op.u[4], u12 = op.u[5];
            const Complex u20 = op.u[6], u21 = op.u[7], u22 = op.u[8];
            const std::size_t jump = static_cast<std::size_t>(op.stride1) * B;
            const Index s1 = op.stride1;
            run(WireBlocks(op.stride1, op.period1, total), 0,
                [=](Index base, Complex*) QD_BLOCK_BODY {
                    Real* d0 = as_reals(amps + base * B);
                    Real* d1 = as_reals(amps + base * B + jump);
                    Real* d2 = as_reals(amps + base * B + 2 * jump);
                    Complex f0(1, 0), f1(1, 0), f2(1, 0);
                    if constexpr (kFramed) {
                        f0 = frame[base];
                        f1 = frame[base + s1];
                        f2 = frame[base + 2 * s1];
                        frame[base] = frame[base + s1] =
                            frame[base + 2 * s1] = Complex(1, 0);
                    }
                    QD_SIMD
                    for (std::size_t b = 0; b < B; ++b) {
                        Real a0r = d0[2 * b], a0i = d0[2 * b + 1];
                        Real a1r = d1[2 * b], a1i = d1[2 * b + 1];
                        Real a2r = d2[2 * b], a2i = d2[2 * b + 1];
                        if constexpr (kFramed) {
                            frame_lane(a0r, a0i, f0);
                            frame_lane(a1r, a1i, f1);
                            frame_lane(a2r, a2i, f2);
                        }
                        d0[2 * b] = (u00.real() * a0r - u00.imag() * a0i) +
                                    (u01.real() * a1r - u01.imag() * a1i) +
                                    (u02.real() * a2r - u02.imag() * a2i);
                        d0[2 * b + 1] =
                            (u00.real() * a0i + u00.imag() * a0r) +
                            (u01.real() * a1i + u01.imag() * a1r) +
                            (u02.real() * a2i + u02.imag() * a2r);
                        d1[2 * b] = (u10.real() * a0r - u10.imag() * a0i) +
                                    (u11.real() * a1r - u11.imag() * a1i) +
                                    (u12.real() * a2r - u12.imag() * a2i);
                        d1[2 * b + 1] =
                            (u10.real() * a0i + u10.imag() * a0r) +
                            (u11.real() * a1i + u11.imag() * a1r) +
                            (u12.real() * a2i + u12.imag() * a2r);
                        d2[2 * b] = (u20.real() * a0r - u20.imag() * a0i) +
                                    (u21.real() * a1r - u21.imag() * a1i) +
                                    (u22.real() * a2r - u22.imag() * a2i);
                        d2[2 * b + 1] =
                            (u20.real() * a0i + u20.imag() * a0r) +
                            (u21.real() * a1i + u21.imag() * a1r) +
                            (u22.real() * a2i + u22.imag() * a2r);
                    }
                });
            return;
        }
        case KernelKind::kControlled: {
            // Only the active-control target block is read and written.
            const Index* off = op.inner_offset.data();
            const Index nb = static_cast<Index>(op.inner_offset.size());
            const Complex* m = kPhased ? lane_tab : op.inner.data().data();
            const Index ctrl = op.ctrl_offset;
            run(PlanBlocks{*op.plan}, static_cast<std::size_t>(nb) * B,
                [=](Index base, Complex* in) QD_BLOCK_BODY {
                    matvec_block_b<kFramed, kPhased>(amps, base + ctrl, off,
                                                     nb, m, B, in, frame);
                });
            return;
        }
        case KernelKind::kDense: {
            const Index* off = op.plan->local_offset.data();
            const Index nb = op.plan->block;
            const Complex* m =
                kPhased ? lane_tab : op.gate.matrix().data().data();
            run(PlanBlocks{*op.plan}, static_cast<std::size_t>(nb) * B,
                [=](Index base, Complex* in) QD_BLOCK_BODY {
                    matvec_block_b<kFramed, kPhased>(amps, base, off, nb, m,
                                                     B, in, frame);
                });
            return;
        }
    }
}

/** Counts `n` single-shot applications of `op` to a `total`-amplitude
 *  register. */
void
count_single(const CompiledOp& op, Index total, std::uint64_t n)
{
    // Counts land in the calling thread's block (see obs/counters.h),
    // which also runs every kernel pass.
    if (obs::enabled()) {
        obs::count_unchecked(kernel_counter(op.kind, /*batched=*/false), n);
        obs::count_unchecked(obs::Counter::kEstimatedFlops,
                             op_flop_estimate(op, total) * n);
    }
}

/** Counts one batched dispatch of `op` over `lanes` lanes that walks
 *  `walked` amplitudes (the register, or a tracked batch's occupied
 *  blocks) of `walked_lanes` lanes: every lane, or the one lane-shared
 *  frame a framed diagonal multiplies. */
void
count_dispatch(const CompiledOp& op, Index walked, std::uint64_t lanes,
               std::uint64_t walked_lanes)
{
    // The class counter advances by the lane count so per-class totals
    // across the two zoos are invariant under the batch width (each lane
    // is bitwise one single-shot application).
    if (obs::enabled()) {
        obs::count_unchecked(kernel_counter(op.kind, /*batched=*/true),
                             lanes);
        obs::count_unchecked(obs::Counter::kBatDispatches);
        obs::count_unchecked(obs::Counter::kBatWalkedSlots,
                             walked * walked_lanes);
        obs::count_unchecked(obs::Counter::kEstimatedFlops,
                             op_flop_estimate(op, walked) * walked_lanes);
    }
}

std::size_t
lanes_of(const BatchedStateVector& psi)
{
    return static_cast<std::size_t>(psi.lanes());
}

}  // namespace

void
apply_op(const CompiledOp& op, StateVector& psi, ExecScratch& scratch)
{
    count_single(op, psi.size(), 1);
    run_op<false, false>(op, psi.amplitudes().data(), psi.size(), OneLane{},
                         scratch, nullptr, nullptr);
}

void
apply_op_batched(const CompiledOp& op, BatchedStateVector& psi,
                 ExecScratch& scratch)
{
    Complex* frame = psi.frame();
    if (frame != nullptr && op.kind == KernelKind::kDiagonal) {
        // Every lane takes the same diagonal, and the frame is diagonal:
        // c *= diag, one one-lane pass over c, the lanes left as they are.
        count_dispatch(op, psi.size(), lanes_of(psi), 1);
        run_op<false, false>(op, frame, psi.size(), OneLane{}, scratch,
                             nullptr, nullptr);
        if (verify::strict()) {
            psi.check_frame();
        }
        return;
    }
    SupportWalk support;
    const SupportWalk* walk = nullptr;
    Index walked = psi.size();
    if (psi.tracked()) {
        support = collect_support(op, psi, scratch);
        walk = &support;
        walked = static_cast<Index>(support.count) * support.block;
    }
    count_dispatch(op, walked, lanes_of(psi), lanes_of(psi));
    const Real* theta = psi.phase_frame();
    if (theta != nullptr && op.kind != KernelKind::kDiagonal) {
        const Complex* tab = phase_table(op, psi.dims(), theta,
                                         lanes_of(psi), scratch.lane_table);
        if (frame != nullptr) {
            run_op<true, true>(op, psi.data(), psi.size(), lanes_of(psi),
                               scratch, frame, tab, walk);
        } else {
            run_op<false, true>(op, psi.data(), psi.size(), lanes_of(psi),
                                scratch, nullptr, tab, walk);
        }
    } else if (frame != nullptr) {
        run_op<true, false>(op, psi.data(), psi.size(), lanes_of(psi),
                            scratch, frame, nullptr, walk);
    } else {
        run_op<false, false>(op, psi.data(), psi.size(), lanes_of(psi),
                             scratch, nullptr, nullptr, walk);
    }
    if (verify::strict()) {
        if (walk != nullptr) {
            psi.check_support();
        }
        psi.check_frame();
    }
}

void
conjugate_op(const CompiledOp& k, const CompiledOp& k_conj, Matrix& rho,
             ExecScratch& scratch)
{
    const Index dim = static_cast<Index>(rho.rows());
    const bool fits = k.plan != nullptr
                          ? k.plan->outer_count() * k.plan->block == dim
                          : k.period1 != 0 && dim % k.period1 == 0;
    if (rho.cols() != rho.rows() || !fits) {
        throw std::invalid_argument(
            "conjugate_op: rho size does not match the compiled register");
    }
    Complex* a = rho.data().data();
    // Left pass, rho -> K rho: row-major rho is a batch of D lanes (the
    // column index) over a D-amplitude register (the row index).
    count_dispatch(k, dim, dim, dim);
    run_op<false, false>(k, a, dim, static_cast<std::size_t>(dim), scratch,
                         nullptr, nullptr);
    // Right pass, rho -> rho K^dagger: row r of rho K^dagger is conj(K)
    // applied to row r, so each row is one single-shot pass, no transpose.
    count_single(k_conj, dim, dim);
    for (Index r = 0; r < dim; ++r) {
        run_op<false, false>(k_conj, a + r * dim, dim, OneLane{}, scratch,
                             nullptr, nullptr);
    }
}

void
run_batched(const CompiledCircuit& compiled, BatchedStateVector& psi,
            ExecScratch& scratch)
{
    for (const CompiledOp& op : compiled.ops()) {
        apply_op_batched(op, psi, scratch);
    }
}

}  // namespace qd::exec
