#include "qdsim/exec/batched_state.h"

#include "qdsim/exec/simd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <new>
#include <string>
#include <type_traits>
#include <stdexcept>

namespace qd::exec {

namespace {

std::size_t
checked_lane_count(int lanes)
{
    if (lanes < 1) {
        throw std::invalid_argument(
            "BatchedStateVector: lane count must be >= 1");
    }
    return static_cast<std::size_t>(lanes);
}

// The hot lane loops below run on re/im doubles via the std::complex
// array-oriented-access guarantee: a real-factor complex multiply is two
// independent double multiplies and |z|^2 is re*re + im*im — the exact
// expression trees of the StateVector counterparts, so per-lane results
// stay bitwise identical while the loops vectorise and skip libstdc++'s
// complex-multiply NaN-recovery branches.

/** Mutable double view of a lane-contiguous Complex run. */
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

/** Amplitudes per block of the lane sweeps below: each lane's accumulator
 *  is loaded once per block and carried in a register across it. */
constexpr std::size_t kSweepBlock = 4;

/**
 * One front-to-back sweep over the n amplitudes of a B-lane batch that
 * keeps every lane's accumulator live: acc[b] is loaded once per block of
 * kSweepBlock amplitudes, advanced by step(i, b, acc) for each amplitude
 * of the block in index order, and stored back. Per lane the accumulation
 * therefore runs in amplitude-index order (the StateVector loop order, so
 * sums stay bitwise reproducible), while the batch streams through memory
 * once; the lane loop vectorises across lanes.
 */
template <class Acc, class Step>
inline void
sweep_lanes(std::size_t n, std::size_t B, Acc* __restrict acc, Step step)
{
    std::size_t i = 0;
    for (; i + kSweepBlock <= n; i += kSweepBlock) {
        QD_SIMD
        for (std::size_t b = 0; b < B; ++b) {
            Acc a = acc[b];
            for (std::size_t u = 0; u < kSweepBlock; ++u) {
                step(i + u, b, a);
            }
            acc[b] = a;
        }
    }
    for (; i < n; ++i) {
        for (std::size_t b = 0; b < B; ++b) {
            step(i, b, acc[b]);
        }
    }
}

/** Complex slots holding a frame of `n` reals. */
std::size_t
frame_slots(Index n)
{
    return (static_cast<std::size_t>(n) + 1) / 2;
}

/**
 * sweep_lanes over the amplitudes of `occ` (a tracked batch's occupied
 * indices, increasing) or, when `occ` is null, over all n: step(idx, b,
 * acc) sees each index in increasing order, so per lane the sum is the
 * dense sweep's with its exact-zero terms left out (bitwise equal).
 */
template <class Acc, class Step>
inline void
sweep_support(const std::vector<Index>* occ, std::size_t n, std::size_t B,
              Acc* __restrict acc, Step step)
{
    if (occ == nullptr) {
        sweep_lanes(n, B, acc, step);
        return;
    }
    const Index* idx = occ->data();
    sweep_lanes(occ->size(), B, acc,
                [=](std::size_t k, std::size_t b, Acc& a) {
                    step(static_cast<std::size_t>(idx[k]), b, a);
                });
}

/** Calls row(idx) for every occupied index of `psi` (every index of a
 *  dense batch), in increasing order. */
template <class Row>
inline void
for_each_row(const BatchedStateVector& psi, Row row)
{
    psi.for_each_occupied(
        [&](Index i) { row(static_cast<std::size_t>(i)); });
}

/**
 * One odometer walk of the register carrying L per-lane running products
 * of per-wire diagonals: calls visit(idx, c) for idx = 0 .. size - 1 in
 * order, where (c[2l], c[2l+1]) is lane l's factor
 * prod_w factor(l, w)[digit_w(idx)]. `factor(l, w)` gives lane l's
 * dim(w) unit-modulus entries of wire w. The (wire, level, lane) step
 * ratios (diag_step_ratio) are computed once per call; each lane starts
 * from prod_w factor(l, w)[0] and takes one step-ratio multiply per digit
 * step (per lane, bitwise the single-shot odometer in
 * tests/qdsim/product_diag_reference.h). The multiplies are std::complex
 * products written on re/im doubles.
 */
template <class Factor, class Visit>
void
walk_product_diag(const WireDims& dims, std::size_t L, Factor factor,
                  Visit visit)
{
    const int n = dims.num_wires();
    // Step-ratio table as re/im lane rows: row (first[w] + v) holds every
    // lane's ratio for wire w's digit stepping to v.
    std::vector<std::size_t> first(static_cast<std::size_t>(n));
    std::size_t rows = 0;
    for (int w = 0; w < n; ++w) {
        first[static_cast<std::size_t>(w)] = rows;
        rows += static_cast<std::size_t>(dims.dim(w));
    }
    std::vector<Real> ratio(rows * 2 * L);
    std::vector<Real> cur(2 * L);
    for (std::size_t l = 0; l < L; ++l) {
        Complex c(1, 0);
        for (int w = 0; w < n; ++w) {
            const std::size_t uw = static_cast<std::size_t>(w);
            const auto& f = factor(l, w);
            c *= f[0];
            for (int v = 0; v < dims.dim(w); ++v) {
                const Complex r = diag_step_ratio(f, v);
                Real* row = ratio.data() +
                            (first[uw] + static_cast<std::size_t>(v)) * 2 * L;
                row[2 * l] = r.real();
                row[2 * l + 1] = r.imag();
            }
        }
        cur[2 * l] = c.real();
        cur[2 * l + 1] = c.imag();
    }
    // One odometer drives all lanes (the digit sequence only depends on
    // the dims).
    std::vector<int> odo(static_cast<std::size_t>(n), 0);
    Real* __restrict c = cur.data();
    auto step = [&](std::size_t row) {
        const Real* __restrict r = ratio.data() + row * 2 * L;
        QD_SIMD
        for (std::size_t l = 0; l < L; ++l) {
            const Real cr = c[2 * l], ci = c[2 * l + 1];
            c[2 * l] = cr * r[2 * l] - ci * r[2 * l + 1];
            c[2 * l + 1] = cr * r[2 * l + 1] + ci * r[2 * l];
        }
    };
    const Index total = dims.size();
    for (Index idx = 0;; ++idx) {
        visit(idx, static_cast<const Real*>(c));
        if (idx + 1 >= total) {
            break;
        }
        for (int w = n - 1;; --w) {
            const std::size_t uw = static_cast<std::size_t>(w);
            if (++odo[uw] < dims.dim(w)) {
                step(first[uw] + static_cast<std::size_t>(odo[uw]));
                break;
            }
            step(first[uw]);
            odo[uw] = 0;
        }
    }
}

}  // namespace

std::unique_ptr<Complex, BatchedStateVector::FreeDeleter>
BatchedStateVector::allocate(std::size_t slots)
{
    // calloc hands large blocks out as fresh zero pages, faulted only
    // when first written: a tracked batch never touches most of them.
    void* p = std::calloc(std::max<std::size_t>(slots, 1), sizeof(Complex));
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return std::unique_ptr<Complex, FreeDeleter>(static_cast<Complex*>(p));
}

BatchedStateVector::BatchedStateVector(WireDims dims, int lanes,
                                       bool frame_room, Support support)
    : dims_(std::move(dims)), lanes_(lanes) {
    const std::size_t body =
        static_cast<std::size_t>(dims_.size()) * checked_lane_count(lanes);
    slots_ = body + (frame_room ? frame_slots(dims_.size()) : 0);
    amps_ = allocate(slots_);
    for (int b = 0; b < lanes_; ++b) {
        amps_.get()[static_cast<std::size_t>(b)] = Complex(1, 0);
    }
    // Support walks index with 32-bit digit arithmetic
    // (batched_kernels.cc).
    if (support == Support::kTracked &&
        dims_.size() <= std::numeric_limits<std::uint32_t>::max()) {
        support_.assign(static_cast<std::size_t>(dims_.size()), 0);
        support_[0] = 1;
    }
}

BatchedStateVector::BatchedStateVector(const BatchedStateVector& other)
    : dims_(other.dims_),
      lanes_(other.lanes_),
      framed_(other.framed_),
      support_(other.support_),
      theta_(other.theta_),
      phased_(other.phased_) {
    const std::size_t n = static_cast<std::size_t>(dims_.size());
    const std::size_t B = static_cast<std::size_t>(lanes_);
    slots_ = lane_amps() + (framed_ ? frame_slots(dims_.size()) : 0);
    amps_ = allocate(slots_);
    if (tracked()) {
        for_each_row(*this, [&](std::size_t i) {
            std::memcpy(amps_.get() + i * B, other.amps_.get() + i * B,
                        B * sizeof(Complex));
        });
    } else {
        std::memcpy(amps_.get(), other.amps_.get(),
                    lane_amps() * sizeof(Complex));
    }
    if (framed_) {
        std::memcpy(frame(), other.frame(), n * sizeof(Real));
    }
}

BatchedStateVector&
BatchedStateVector::operator=(const BatchedStateVector& other)
{
    if (this != &other) {
        *this = BatchedStateVector(other);
    }
    return *this;
}

std::vector<Index>
BatchedStateVector::support_indices() const
{
    std::vector<Index> out;
    for_each_occupied([&](Index i) { out.push_back(i); });
    return out;
}

void
BatchedStateVector::check_support() const
{
    if (!tracked()) {
        return;
    }
    const std::size_t n = static_cast<std::size_t>(dims_.size());
    const std::size_t B = static_cast<std::size_t>(lanes_);
    const Real* d = as_reals(amps_.get());
    for (std::size_t i = 0; i < n; ++i) {
        if (support_[i] != 0) {
            continue;
        }
        for (std::size_t j = 0; j < 2 * B; ++j) {
            if (d[i * 2 * B + j] != 0) {
                throw std::logic_error(
                    "BatchedStateVector: index " + std::to_string(i) +
                    " is nonzero in lane " + std::to_string(j / 2) +
                    " but outside the occupancy set");
            }
        }
    }
}

void
BatchedStateVector::set_lane(int lane, const StateVector& src)
{
    if (!(src.dims() == dims_)) {
        throw std::invalid_argument("set_lane: dimension mismatch");
    }
    const Complex* s = src.amplitudes().data();
    store_lane(lane, s, [s](std::size_t i) { return s[i] != Complex(0, 0); });
}

void
BatchedStateVector::set_lane(int lane, const BatchedStateVector& src)
{
    check_lane_batch(src);
    const std::uint8_t* flags = src.support();
    store_lane(lane, src.data(),
               [flags](std::size_t i) { return flags[i] != 0; });
}

void
BatchedStateVector::check_lane_batch(const BatchedStateVector& other) const
{
    if (!(other.dims_ == dims_) || other.lanes_ != 1 || other.framed_ ||
        other.phased_ || other.tracked() != tracked()) {
        throw std::invalid_argument(
            "lane batch: needs a one-lane frameless batch over the same "
            "register, tracked iff the batch is");
    }
}

template <class Present>
void
BatchedStateVector::store_lane(int lane, const Complex* s, Present present)
{
    const std::size_t B = static_cast<std::size_t>(lanes_);
    const std::size_t n = static_cast<std::size_t>(dims_.size());
    Complex* a = amps_.get() + static_cast<std::size_t>(lane);
    const Real* f = frame();
    // A tracked batch skips the indices outside its support where src is
    // zero; the others it writes, and src's nonzeros join the support.
    std::uint8_t* occ = support();
    auto skip = [&](std::size_t i) {
        if (occ == nullptr || occ[i] != 0) {
            return false;
        }
        if (!present(i)) {
            return true;
        }
        occ[i] = 1;
        return false;
    };
    if (phased_) {
        // x = P^dagger src / f, P's factor from a one-lane walk.
        walk_product_diag(
            dims_, 1,
            [&](std::size_t, int w) { return phase_factors(lane, w); },
            [&](Index i, const Real* c) {
                if (skip(i)) {
                    return;
                }
                const Complex v = s[i] * Complex(c[0], -c[1]);
                a[i * B] = f != nullptr ? Complex(v.real() / f[i],
                                                  v.imag() / f[i])
                                        : v;
            });
        return;
    }
    if (occ != nullptr) {
        for (std::size_t i = 0; i < n; ++i) {
            if (!skip(i)) {
                a[i * B] = f != nullptr ? Complex(s[i].real() / f[i],
                                                  s[i].imag() / f[i])
                                        : s[i];
            }
        }
        return;
    }
    if (f != nullptr) {
        for (std::size_t i = 0; i < n; ++i) {
            a[i * B] = Complex(s[i].real() / f[i], s[i].imag() / f[i]);
        }
        return;
    }
    for (std::size_t i = 0; i < n; ++i) {
        a[i * B] = s[i];
    }
}

void
BatchedStateVector::extract_lane(int lane, StateVector& dst) const
{
    if (!(dst.dims() == dims_)) {
        throw std::invalid_argument("extract_lane: dimension mismatch");
    }
    copy_lane_out(lane, dst.amplitudes().data());
}

void
BatchedStateVector::extract_lane(int lane, BatchedStateVector& dst) const
{
    check_lane_batch(dst);
    Complex* d = dst.amps_.get();
    if (tracked()) {
        // Clear dst's old support, then take this batch's.
        dst.for_each_occupied([d](Index i) { d[i] = Complex(0, 0); });
        dst.support_ = support_;
    }
    copy_lane_out(lane, d, /*zero_fill=*/false);
}

void
BatchedStateVector::copy_lane_out(int lane, Complex* d, bool zero_fill) const
{
    const std::size_t B = static_cast<std::size_t>(lanes_);
    const std::size_t n = static_cast<std::size_t>(dims_.size());
    const Complex* a = amps_.get() + static_cast<std::size_t>(lane);
    const Real* f = frame();
    const std::uint8_t* occ = support();
    if (occ != nullptr && zero_fill) {
        // Unoccupied indices are zero in every lane.
        std::fill_n(d, n, Complex(0, 0));
    }
    if (phased_) {
        walk_product_diag(
            dims_, 1,
            [&](std::size_t, int w) { return phase_factors(lane, w); },
            [&](Index i, const Real* c) {
                if (occ != nullptr && occ[i] == 0) {
                    return;
                }
                const Complex x = a[i * B];
                d[i] = (f != nullptr ? Complex(x.real() * f[i],
                                               x.imag() * f[i])
                                     : x) *
                       Complex(c[0], c[1]);
            });
        return;
    }
    if (occ != nullptr) {
        for_each_row(*this, [&](std::size_t i) {
            d[i] = f != nullptr ? Complex(a[i * B].real() * f[i],
                                          a[i * B].imag() * f[i])
                                : a[i * B];
        });
        return;
    }
    if (f != nullptr) {
        for (std::size_t i = 0; i < n; ++i) {
            d[i] = Complex(a[i * B].real() * f[i], a[i * B].imag() * f[i]);
        }
        return;
    }
    for (std::size_t i = 0; i < n; ++i) {
        d[i] = a[i * B];
    }
}

StateVector
BatchedStateVector::lane_state(int lane) const
{
    std::vector<Complex> out(static_cast<std::size_t>(dims_.size()));
    copy_lane_out(lane, out.data());
    return StateVector::from_amplitudes(dims_, std::move(out));
}

void
BatchedStateVector::start_frame()
{
    const std::size_t total = lane_amps() + frame_slots(dims_.size());
    if (slots_ < total) {
        // No room was made: move the lanes to a buffer with the frame
        // after them (a tracked batch copies its occupied rows only).
        auto grown = allocate(total);
        const std::size_t B = static_cast<std::size_t>(lanes_);
        if (tracked()) {
            for_each_row(*this, [&](std::size_t i) {
                std::memcpy(grown.get() + i * B, amps_.get() + i * B,
                            B * sizeof(Complex));
            });
        } else {
            std::memcpy(grown.get(), amps_.get(),
                        lane_amps() * sizeof(Complex));
        }
        amps_ = std::move(grown);
        slots_ = total;
    }
    framed_ = true;
    std::fill_n(frame(), static_cast<std::size_t>(dims_.size()), 1.0);
}

void
BatchedStateVector::scale_frame(const std::vector<std::uint16_t>& key,
                                const std::vector<Real>& scale)
{
    const std::size_t n = static_cast<std::size_t>(dims_.size());
    if (!framed_ || key.size() != n) {
        throw std::invalid_argument(
            "scale_frame: needs a frame and one key per amplitude");
    }
    Real* __restrict f = frame();
    const std::uint16_t* __restrict k = key.data();
    const Real* __restrict s = scale.data();
    if (tracked()) {
        for_each_row(*this, [=](std::size_t i) { f[i] *= s[k[i]]; });
        return;
    }
    for (std::size_t i = 0; i < n; ++i) {
        f[i] *= s[k[i]];
    }
}

void
BatchedStateVector::fold_frame()
{
    if (!framed_) {
        return;
    }
    const std::size_t n = static_cast<std::size_t>(dims_.size());
    const std::size_t B = static_cast<std::size_t>(lanes_);
    Real* __restrict d = as_reals(amps_.get());
    Real* __restrict f = frame();
    for_each_row(*this, [=](std::size_t i) {
        const Real fi = f[i];
        Real* __restrict row = d + i * 2 * B;
        QD_SIMD
        for (std::size_t j = 0; j < 2 * B; ++j) {
            row[j] *= fi;
        }
    });
    std::fill_n(f, n, 1.0);
}

void
BatchedStateVector::start_phase_frame()
{
    theta_.assign(static_cast<std::size_t>(dims_.num_wires()) *
                      static_cast<std::size_t>(lanes_),
                  0.0);
    phased_ = true;
}

std::vector<Complex>
BatchedStateVector::phase_factors(int lane, int wire) const
{
    const Real theta = theta_[static_cast<std::size_t>(wire) *
                                  static_cast<std::size_t>(lanes_) +
                              static_cast<std::size_t>(lane)];
    std::vector<Complex> f(static_cast<std::size_t>(dims_.dim(wire)));
    for (std::size_t m = 0; m < f.size(); ++m) {
        f[m] = std::polar(1.0, static_cast<Real>(m) * theta);
    }
    return f;
}

void
BatchedStateVector::fold_phase_frame()
{
    if (!phased_) {
        return;
    }
    std::vector<std::vector<std::vector<Complex>>> factors(
        static_cast<std::size_t>(lanes_));
    for (int b = 0; b < lanes_; ++b) {
        for (int w = 0; w < dims_.num_wires(); ++w) {
            factors[static_cast<std::size_t>(b)].push_back(
                phase_factors(b, w));
        }
    }
    apply_product_diag_lanes(factors);
    std::fill(theta_.begin(), theta_.end(), 0.0);
}

void
BatchedStateVector::damped_norm_sq_lanes(
    const std::vector<std::uint16_t>& key, const std::vector<Real>& scale,
    std::vector<Real>& norm_sq, std::vector<Real>& scaled) const
{
    const std::size_t n = static_cast<std::size_t>(dims_.size());
    if (!framed_ || key.size() != n) {
        throw std::invalid_argument(
            "damped_norm_sq_lanes: needs a frame and one key per amplitude");
    }
    const std::size_t B = static_cast<std::size_t>(lanes_);
    struct Pair {
        Real n = 0, m = 0;
    };
    std::vector<Pair> acc(B);
    const Real* __restrict d = as_reals(amps_.get());
    const Real* __restrict f = frame();
    const std::uint16_t* __restrict k = key.data();
    const Real* __restrict s = scale.data();
    const std::vector<Index> occ =
        tracked() ? support_indices() : std::vector<Index>{};
    // (f x)^2, never f^2 x^2: x may be as large as 1 / f.
    sweep_support(tracked() ? &occ : nullptr, n, B, acc.data(),
                  [=](std::size_t i, std::size_t b, Pair& v) {
                      const Real* p = d + 2 * (i * B + b);
                      const Real g = f[i], h = f[i] * s[k[i]];
                      const Real ar = p[0] * g, ai = p[1] * g;
                      const Real br = p[0] * h, bi = p[1] * h;
                      v.n += ar * ar + ai * ai;
                      v.m += br * br + bi * bi;
                  });
    norm_sq.resize(B);
    scaled.resize(B);
    for (std::size_t b = 0; b < B; ++b) {
        norm_sq[b] = acc[b].n;
        scaled[b] = acc[b].m;
    }
}

std::vector<Real>
BatchedStateVector::scale_by_table_lanes(
    const std::vector<std::uint16_t>& key, const std::vector<Real>& scale,
    std::vector<Real>* before)
{
    const std::size_t n = static_cast<std::size_t>(dims_.size());
    if (key.size() != n || framed_) {
        throw std::invalid_argument(
            "scale_by_table_lanes: key size mismatch or framed batch");
    }
    const std::size_t B = static_cast<std::size_t>(lanes_);
    struct Pair {
        Real before = 0, after = 0;
    };
    std::vector<Pair> acc(B);
    // Scale, then accumulate the scaled value: per lane the exact
    // multiply-then-accumulate sequence of StateVector::scale_by_table.
    Real* __restrict d = as_reals(amps_.get());
    const std::uint16_t* __restrict k = key.data();
    const Real* __restrict s = scale.data();
    const std::vector<Index> occ =
        tracked() ? support_indices() : std::vector<Index>{};
    auto sweep = [&](auto with_before) {
        sweep_support(tracked() ? &occ : nullptr, n, B, acc.data(),
                      [=](std::size_t i, std::size_t b, Pair& v) {
                          Real* p = d + 2 * (i * B + b);
                          if constexpr (decltype(with_before)::value) {
                              v.before += p[0] * p[0] + p[1] * p[1];
                          }
                          const Real f = s[k[i]];
                          p[0] *= f;
                          p[1] *= f;
                          v.after += p[0] * p[0] + p[1] * p[1];
                      });
    };
    if (before != nullptr) {
        sweep(std::true_type{});
    } else {
        sweep(std::false_type{});
    }
    std::vector<Real> norm_sq(B);
    if (before != nullptr) {
        before->resize(B);
    }
    for (std::size_t b = 0; b < B; ++b) {
        norm_sq[b] = acc[b].after;
        if (before != nullptr) {
            (*before)[b] = acc[b].before;
        }
    }
    return norm_sq;
}

std::vector<Real>
BatchedStateVector::norm_sq_lanes() const
{
    const std::size_t n = static_cast<std::size_t>(dims_.size());
    const std::size_t B = static_cast<std::size_t>(lanes_);
    if (framed_) {
        throw std::invalid_argument("norm_sq_lanes: framed batch");
    }
    std::vector<Real> norm_sq(B, 0.0);
    const Real* __restrict d = as_reals(amps_.get());
    const std::vector<Index> occ =
        tracked() ? support_indices() : std::vector<Index>{};
    sweep_support(tracked() ? &occ : nullptr, n, B, norm_sq.data(),
                  [=](std::size_t i, std::size_t b, Real& acc) {
                      const Real* p = d + 2 * (i * B + b);
                      acc += p[0] * p[0] + p[1] * p[1];
                  });
    return norm_sq;
}

std::vector<std::uint8_t>
BatchedStateVector::normalize_lanes(const std::vector<std::uint8_t>& mask)
{
    const std::size_t B = static_cast<std::size_t>(lanes_);
    if (!mask.empty() && mask.size() != B) {
        throw std::invalid_argument("normalize_lanes: mask size mismatch");
    }
    // Per-lane factors expanded to re/im pairs: exactly
    // StateVector::normalize's sqrt-then-reciprocal for every selected lane
    // whose norm is positive and finite, and 1.0 (a bitwise no-op
    // multiply) for the rest.
    std::vector<std::uint8_t> ok(B, 1);
    const std::vector<Real> norm_sq = norm_sq_lanes();
    std::vector<Real> inv2(2 * B, 1.0);
    bool any = false;
    for (std::size_t b = 0; b < B; ++b) {
        if (!mask.empty() && mask[b] == 0) {
            continue;
        }
        const Real nrm = std::sqrt(norm_sq[b]);
        if (nrm <= 0 || !std::isfinite(nrm)) {
            ok[b] = 0;
            continue;
        }
        inv2[2 * b] = inv2[2 * b + 1] = 1.0 / nrm;
        any = true;
    }
    if (!any) {
        return ok;
    }
    Real* __restrict d = as_reals(amps_.get());
    const Real* __restrict f = inv2.data();
    for_each_row(*this, [=](std::size_t i) {
        Real* __restrict row = d + i * 2 * B;
        QD_SIMD
        for (std::size_t j = 0; j < 2 * B; ++j) {
            row[j] *= f[j];
        }
    });
    return ok;
}

std::vector<Real>
BatchedStateVector::populations_lanes(int wire) const
{
    if (framed_) {
        throw std::invalid_argument("populations_lanes: framed batch");
    }
    const Index stride = dims_.stride(wire);
    const int d = dims_.dim(wire);
    const Index period = stride * static_cast<Index>(d);
    const Index total = dims_.size();
    const std::size_t B = static_cast<std::size_t>(lanes_);
    std::vector<Real> acc(static_cast<std::size_t>(d) * B, 0.0);
    // Mirrors StateVector::populations: per (start, level) run, accumulate
    // into a local partial sum, then fold it into the level total — the
    // same order keeps each lane bitwise equal to its unbatched shot.
    std::vector<Real> s(B);
    auto add_row = [&](const Complex* p) {
        const Real* d = as_reals(p);
        QD_SIMD
        for (std::size_t b = 0; b < B; ++b) {
            s[b] += d[2 * b] * d[2 * b] + d[2 * b + 1] * d[2 * b + 1];
        }
    };
    auto fold_run = [&](Index run) {
        Real* lvl = acc.data() +
                    static_cast<std::size_t>(run % static_cast<Index>(d)) * B;
        for (std::size_t b = 0; b < B; ++b) {
            lvl[b] += s[b];
        }
    };
    if (tracked()) {
        // Run r = [r stride, (r + 1) stride) at level r mod d, visited
        // through its occupied rows; a run without one adds an exact 0.
        bool open = false;
        Index run = 0;
        for_each_row(*this, [&](std::size_t i) {
            const Index r = static_cast<Index>(i) / stride;
            if (!open || r != run) {
                if (open) {
                    fold_run(run);
                }
                std::fill(s.begin(), s.end(), 0.0);
                run = r;
                open = true;
            }
            add_row(amps_.get() + i * B);
        });
        if (open) {
            fold_run(run);
        }
        return acc;
    }
    for (Index start = 0; start < total; start += period) {
        for (int v = 0; v < d; ++v) {
            std::fill(s.begin(), s.end(), 0.0);
            const Complex* p =
                amps_.get() +
                static_cast<std::size_t>(start +
                                         static_cast<Index>(v) * stride) *
                    B;
            for (Index i = 0; i < stride; ++i, p += B) {
                add_row(p);
            }
            fold_run(start / stride + static_cast<Index>(v));
        }
    }
    return acc;
}

void
BatchedStateVector::apply_diag1_masked(const std::vector<Complex>& diag,
                                       int wire,
                                       const std::vector<std::uint8_t>& mask)
{
    const int d = dims_.dim(wire);
    if (static_cast<int>(diag.size()) != d) {
        throw std::invalid_argument(
            "apply_diag1_masked: diagonal size mismatch");
    }
    const std::size_t B = static_cast<std::size_t>(lanes_);
    if (!mask.empty() && mask.size() != B) {
        throw std::invalid_argument("apply_diag1_masked: mask size mismatch");
    }
    const Index stride = dims_.stride(wire);
    const Index period = stride * static_cast<Index>(d);
    const Index total = dims_.size();
    auto scale_row = [&](Complex* p, Complex f) {
        for (std::size_t b = 0; b < B; ++b) {
            if (mask.empty() || mask[b] != 0) {
                p[b] *= f;
            }
        }
    };
    if (tracked()) {
        for_each_row(*this, [&](std::size_t i) {
            const Complex f = diag[static_cast<std::size_t>(
                static_cast<Index>(i) / stride % static_cast<Index>(d))];
            if (f != Complex(1, 0)) {
                scale_row(amps_.get() + i * B, f);
            }
        });
        return;
    }
    for (Index start = 0; start < total; start += period) {
        for (int v = 0; v < d; ++v) {
            const Complex f = diag[static_cast<std::size_t>(v)];
            if (f == Complex(1, 0)) {
                continue;  // same skip as StateVector::apply_diag1
            }
            Complex* p =
                amps_.get() +
                static_cast<std::size_t>(start +
                                         static_cast<Index>(v) * stride) *
                    B;
            for (Index i = 0; i < stride; ++i, p += B) {
                scale_row(p, f);
            }
        }
    }
}

void
BatchedStateVector::apply_product_diag_lanes(
    const std::vector<std::vector<std::vector<Complex>>>& factors)
{
    const int n = dims_.num_wires();
    const std::size_t B = static_cast<std::size_t>(lanes_);
    if (factors.size() != B) {
        throw std::invalid_argument(
            "apply_product_diag_lanes: lane count mismatch");
    }
    for (const auto& lane_factors : factors) {
        if (static_cast<int>(lane_factors.size()) != n) {
            throw std::invalid_argument(
                "apply_product_diag_lanes: factor count mismatch");
        }
        for (int w = 0; w < n; ++w) {
            if (static_cast<int>(
                    lane_factors[static_cast<std::size_t>(w)].size()) !=
                dims_.dim(w)) {
                throw std::invalid_argument(
                    "apply_product_diag_lanes: factor size mismatch");
            }
        }
    }
    Real* __restrict d = as_reals(amps_.get());
    auto factor = [&](std::size_t b, int w) -> const std::vector<Complex>& {
        return factors[b][static_cast<std::size_t>(w)];
    };
    auto multiply = [&](std::size_t i, const Real* __restrict c) {
        Real* __restrict p = d + i * 2 * B;
        QD_SIMD
        for (std::size_t b = 0; b < B; ++b) {
            const Real ar = p[2 * b], ai = p[2 * b + 1];
            p[2 * b] = ar * c[2 * b] - ai * c[2 * b + 1];
            p[2 * b + 1] = ar * c[2 * b + 1] + ai * c[2 * b];
        }
    };
    // The odometer steps through every index; a tracked batch multiplies
    // only its occupied rows.
    const std::uint8_t* occ = support();
    walk_product_diag(dims_, B, factor,
                      [&](Index idx, const Real* __restrict c) {
                          if (occ == nullptr || occ[idx] != 0) {
                              multiply(static_cast<std::size_t>(idx), c);
                          }
                      });
}

std::vector<Real>
BatchedStateVector::fidelity_lanes(const BatchedStateVector& other,
                                   std::vector<Real>* norm_sq) const
{
    if (!(dims_ == other.dims_) || lanes_ != other.lanes_ ||
        other.framed_ || other.phased_ || (norm_sq != nullptr && !framed_)) {
        throw std::invalid_argument(
            "fidelity_lanes: shape mismatch, framed `other`, or norms "
            "asked of an unframed batch");
    }
    const std::size_t n = static_cast<std::size_t>(dims_.size());
    const std::size_t B = static_cast<std::size_t>(lanes_);
    // Per lane the overlap accumulates in amplitude-index order and
    // (conj(a) * o) == (ar*or + ai*oi, ar*oi - ai*or) bitwise, matching
    // StateVector::inner. Under a frame a = f x, formed first; under a
    // phase frame, a = P (f x), P's factor from an all-lane walk.
    struct Overlap {
        Real re = 0, im = 0, nsq = 0;
    };
    std::vector<Overlap> acc(B);
    const Real* __restrict a = as_reals(amps_.get());
    const Real* __restrict o = as_reals(other.amps_.get());
    const Real* f = frame();
    auto phased_step = [&](std::size_t i, const Real* __restrict c) {
        const Real g = f != nullptr ? f[i] : 1.0;
        for (std::size_t b = 0; b < B; ++b) {
            const std::size_t at = 2 * (i * B + b);
            const Real xr = a[at] * g, xi = a[at + 1] * g;
            const Real ar = xr * c[2 * b] - xi * c[2 * b + 1];
            const Real ai = xr * c[2 * b + 1] + xi * c[2 * b];
            Overlap& v = acc[b];
            v.re += ar * o[at] + ai * o[at + 1];
            v.im += ar * o[at + 1] - ai * o[at];
            v.nsq += ar * ar + ai * ai;
        }
    };
    const std::vector<Index> occ =
        tracked() ? support_indices() : std::vector<Index>{};
    const std::vector<Index>* walk = tracked() ? &occ : nullptr;
    if (phased_) {
        // The odometer steps through every index; a tracked batch
        // accumulates only its occupied rows.
        const std::uint8_t* flags = support();
        walk_product_diag(
            dims_, B,
            [&](std::size_t b, int w) {
                return phase_factors(static_cast<int>(b), w);
            },
            [&](Index idx, const Real* __restrict c) {
                if (flags == nullptr || flags[idx] != 0) {
                    phased_step(static_cast<std::size_t>(idx), c);
                }
            });
    } else if (f != nullptr) {
        const Real* __restrict g = f;
        sweep_support(walk, n, B, acc.data(),
                      [=](std::size_t i, std::size_t b, Overlap& v) {
                          const std::size_t at = 2 * (i * B + b);
                          const Real ar = a[at] * g[i],
                                     ai = a[at + 1] * g[i];
                          v.re += ar * o[at] + ai * o[at + 1];
                          v.im += ar * o[at + 1] - ai * o[at];
                          v.nsq += ar * ar + ai * ai;
                      });
    } else {
        sweep_support(walk, n, B, acc.data(),
                      [=](std::size_t i, std::size_t b, Overlap& v) {
                          const std::size_t at = 2 * (i * B + b);
                          v.re += a[at] * o[at] + a[at + 1] * o[at + 1];
                          v.im += a[at] * o[at + 1] - a[at + 1] * o[at];
                      });
    }
    std::vector<Real> fid(B);
    if (norm_sq != nullptr) {
        norm_sq->resize(B);
    }
    for (std::size_t b = 0; b < B; ++b) {
        fid[b] = acc[b].re * acc[b].re + acc[b].im * acc[b].im;
        if (norm_sq != nullptr) {
            (*norm_sq)[b] = acc[b].nsq;
        }
    }
    return fid;
}

}  // namespace qd::exec
