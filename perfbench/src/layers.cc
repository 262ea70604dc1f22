#include "layers.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>

#include "constructions/gen_toffoli.h"
#include "noise/models.h"
#include "noise/trajectory.h"
#include "qdsim/exec/batched_kernels.h"
#include "qdsim/exec/batched_state.h"

namespace pb {

namespace {

using qd::Complex;
using qd::Index;
using qd::Real;
using qd::exec::KernelKind;

/** The kernel classes, named as the obs counters name them. */
constexpr const char* kClasses[] = {"permutation", "diagonal", "monomial",
                                    "single_wire", "controlled", "dense"};
constexpr int kNumClasses = 6;

/** The state passes of the trajectory moment loop. */
constexpr const char* kStatePasses[] = {"scale_pass", "normalize",
                                        "populations", "dephase",
                                        "fidelity"};

/** Layers whose self time a traced run reports. */
constexpr const char* kLayers[] = {"constructions", "ir",      "verify",
                                   "compile",       "kernel",  "state",
                                   "traj",          "density", "serve",
                                   "machine"};

int
class_index(KernelKind kind)
{
    switch (kind) {
        case KernelKind::kPermutation: return 0;
        case KernelKind::kDiagonal: return 1;
        case KernelKind::kMonomial: return 2;
        case KernelKind::kSingleWireD2:
        case KernelKind::kSingleWireD3: return 3;
        case KernelKind::kControlled: return 4;
        case KernelKind::kDense: return 5;
    }
    return 5;
}

/** Amplitudes per lane one application of `op` reads and writes. */
double
touched_amplitudes(const qd::exec::CompiledOp& op, Index total)
{
    const double outer =
        op.plan == nullptr ? 0.0 : static_cast<double>(op.plan->outer_count());
    switch (op.kind) {
        case KernelKind::kPermutation:
        case KernelKind::kMonomial:
            return outer * static_cast<double>(op.cycle_offsets.size());
        case KernelKind::kControlled:
            return outer * static_cast<double>(op.inner_offset.size());
        default:
            return static_cast<double>(total);
    }
}

void
fill_uniform(qd::exec::BatchedStateVector& psi)
{
    const auto n = static_cast<std::size_t>(psi.size()) *
                   static_cast<std::size_t>(psi.lanes());
    const Complex a(1.0 / std::sqrt(static_cast<double>(psi.size())), 0.0);
    std::fill(psi.data(), psi.data() + n, a);
}

double
median_of(std::vector<double> v)
{
    return percentile(std::move(v), 50);
}

}  // namespace

Ceiling
measure_ceiling(long long llc, int threads)
{
    Ceiling c;
    c.llc_bytes = llc;
    c.threads = std::max(1, threads);
    // At least 4x the LLC (and 256 MiB when the LLC is unknown or small),
    // so every pass streams from memory.
    const long long floor_bytes = 256ll << 20;
    c.array_bytes = std::max(4 * llc, floor_bytes);
    const auto n = static_cast<std::size_t>(c.array_bytes) / sizeof(double);
    std::unique_ptr<double[]> a(new double[n]);

    auto run_pass = [&](int nt, double scale) {
        std::vector<std::thread> pool;
        const std::size_t chunk = (n + static_cast<std::size_t>(nt) - 1) /
                                  static_cast<std::size_t>(nt);
        for (int t = 0; t < nt; ++t) {
            pool.emplace_back([&, t] {
                const std::size_t lo = static_cast<std::size_t>(t) * chunk;
                const std::size_t hi = std::min(n, lo + chunk);
                double* p = a.get();
                for (std::size_t i = lo; i < hi; ++i) {
                    p[i] *= scale;
                }
            });
        }
        for (auto& th : pool) {
            th.join();
        }
    };
    // First touch from every thread, then the measured passes.
    {
        std::vector<std::thread> pool;
        const std::size_t chunk =
            (n + static_cast<std::size_t>(c.threads) - 1) /
            static_cast<std::size_t>(c.threads);
        for (int t = 0; t < c.threads; ++t) {
            pool.emplace_back([&, t] {
                const std::size_t lo = static_cast<std::size_t>(t) * chunk;
                const std::size_t hi = std::min(n, lo + chunk);
                for (std::size_t i = lo; i < hi; ++i) {
                    a[i] = 1.0;
                }
            });
        }
        for (auto& th : pool) {
            th.join();
        }
    }
    const double bytes = 2.0 * static_cast<double>(n * sizeof(double));
    auto best_gbps = [&](int nt) {
        double best = 0;
        for (int rep = 0; rep < 5; ++rep) {
            const auto t0 = Clock::now();
            run_pass(nt, rep % 2 == 0 ? 1.0000001 : 0.9999999);
            best = std::max(best, bytes / seconds_since(t0) / 1e9);
        }
        return best;
    };
    c.gbps_1t = best_gbps(1);
    c.gbps_nt = best_gbps(c.threads);
    return c;
}

void
init_layer_metrics(Metrics& m)
{
    m.set("constructions.build_s", 0, "s");
    m.set("ir.parse_ms_p50", 0, "ms");
    m.set("verify.admit_ms_p50", 0, "ms");
    m.set("compile.cold_ms_p50", 0, "ms");
    m.set("compile.warm_us_p50", 0, "us");
    m.set("compile.hit_ratio", 0, "ratio");
    m.set("compile.evictions", 0, "count");
    m.set("compile.fusion_blocks_per_op", 0, "ratio");
    for (const char* c : kClasses) {
        const std::string k = std::string("kernel.") + c;
        m.set(k + ".calls", 0, "count");
        m.set(k + ".s", 0, "s");
        m.set(k + ".gbps", 0, "GB/s");
        m.set(k + ".ceiling_frac", 0, "ratio");
    }
    m.set("kernel.dispatch_us", 0, "us");
    for (const char* p : kStatePasses) {
        const std::string k = std::string("state.") + p;
        m.set(k + "_s", 0, "s");
        m.set(k + ".ceiling_frac", 0, "ratio");
    }
    m.set("traj.s_per_traj", 0, "s");
    m.set("traj.moment_pass_equiv", 0, "ratio");
    m.set("traj.gate_error_draws", 0, "count");
    m.set("traj.gate_errors_fired", 0, "count");
    m.set("traj.damping_jumps", 0, "count");
    m.set("traj.lane_extract_ratio", 0, "ratio");
    m.set("traj.scaling_eff", 0, "ratio");
    m.set("density.exec_ms_p50", 0, "ms");
    m.set("serve.compile_ms_p50", 0, "ms");
    m.set("serve.exec_ms_p50", 0, "ms");
    m.set("serve.outside_ms_p50", 0, "ms");
    m.set("serve.outside_ms_p99", 0, "ms");
    m.set("serve.warm_hits", 0, "count");
    m.set("serve.rejected", 0, "count");
    m.set("serve.failed", 0, "count");
    m.set("machine.pass_gbps_1t", 0, "GB/s");
    m.set("machine.pass_gbps_nt", 0, "GB/s");
    m.set("machine.array_mb", 0, "MB");
    m.set("machine.llc_mb", 0, "MB");
    m.set("trace.overhead_frac", 0, "ratio");
    for (const char* l : kLayers) {
        m.set(std::string(l) + ".self_s", 0, "s");
    }
}

void
ceiling_metrics(const Ceiling& c, Metrics& m)
{
    m.set("machine.pass_gbps_1t", c.gbps_1t, "GB/s");
    m.set("machine.pass_gbps_nt", c.gbps_nt, "GB/s");
    m.set("machine.array_mb", static_cast<double>(c.array_bytes) / 1048576.0,
          "MB");
    m.set("machine.llc_mb", static_cast<double>(c.llc_bytes) / 1048576.0,
          "MB");
}

void
kernel_layer(const std::vector<const qd::exec::CompiledCircuit*>& circuits,
             const qd::Circuit& small, const Ceiling& ceiling, Metrics& m)
{
    qd::exec::BatchedScratch scratch;
    std::vector<qd::exec::BatchedStateVector> states;
    for (const auto* c : circuits) {
        states.emplace_back(c->dims(), kLanes);
        fill_uniform(states.back());
    }
    double calls[kNumClasses] = {};
    double secs[kNumClasses] = {};
    double bytes[kNumClasses] = {};
    int passes = 0;
    const auto t_all = Clock::now();
    while (passes < 2 || (seconds_since(t_all) < 1.0 && passes < 10)) {
        for (std::size_t c = 0; c < circuits.size(); ++c) {
            const Index total = circuits[c]->dims().size();
            for (const auto& op : circuits[c]->ops()) {
                const int k = class_index(op.kind);
                qd::obs::ScopedSpan span("kernel", kClasses[k]);
                const auto t0 = Clock::now();
                qd::exec::apply_op_batched(op, states[c], scratch);
                secs[k] += seconds_since(t0);
                calls[k] += 1;
                bytes[k] += 2.0 * touched_amplitudes(op, total) * kLanes *
                            sizeof(Complex);
            }
        }
        ++passes;
    }
    for (int k = 0; k < kNumClasses; ++k) {
        const std::string key = std::string("kernel.") + kClasses[k];
        const double gbps = secs[k] > 0 ? bytes[k] / secs[k] / 1e9 : 0;
        m.set(key + ".calls", calls[k] / passes, "count");
        m.set(key + ".s", secs[k] / passes, "s");
        m.set(key + ".gbps", gbps, "GB/s");
        m.set(key + ".ceiling_frac",
              ceiling.gbps_nt > 0 ? gbps / ceiling.gbps_nt : 0, "ratio");
    }

    // Dispatch cost: a register that fits in L1, so each call is nearly
    // all fixed per-call work.
    qd::exec::FusionOptions unfused;
    unfused.enabled = false;
    const qd::exec::CompiledCircuit tiny(small, unfused, {});
    qd::exec::BatchedStateVector psi(tiny.dims(), kLanes);
    fill_uniform(psi);
    std::vector<double> per_call;
    const auto t_disp = Clock::now();
    while (per_call.size() < 5 || seconds_since(t_disp) < 0.2) {
        qd::obs::ScopedSpan span("kernel", "dispatch");
        const auto t0 = Clock::now();
        for (int rep = 0; rep < 20; ++rep) {
            for (const auto& op : tiny.ops()) {
                qd::exec::apply_op_batched(op, psi, scratch);
            }
        }
        per_call.push_back(seconds_since(t0) /
                           (20.0 * static_cast<double>(tiny.num_ops())));
    }
    m.set("kernel.dispatch_us", median_of(per_call) * 1e6, "us");
}

void
state_layer(const qd::WireDims& dims, const Ceiling& ceiling, Metrics& m)
{
    qd::exec::BatchedStateVector psi(dims, kLanes);
    qd::exec::BatchedStateVector other(dims, kLanes);
    fill_uniform(psi);
    fill_uniform(other);
    const Index n = dims.size();
    const double lane_bytes = static_cast<double>(n) * kLanes *
                              static_cast<double>(sizeof(Complex));

    // Damping-table shaped inputs: a small key alphabet, scales near 1.
    std::vector<std::uint16_t> key(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i) {
        key[static_cast<std::size_t>(i)] = static_cast<std::uint16_t>(i % 7);
    }
    const std::vector<Real> scale = {0.999, 0.998, 0.997, 0.996,
                                     0.995, 0.994, 0.993};
    std::vector<std::vector<std::vector<Complex>>> factors(
        static_cast<std::size_t>(kLanes));
    for (int b = 0; b < kLanes; ++b) {
        for (int w = 0; w < dims.num_wires(); ++w) {
            std::vector<Complex> f;
            for (int l = 0; l < dims.dim(w); ++l) {
                f.push_back(std::polar(1.0, 1e-3 * (b + w + l)));
            }
            factors[static_cast<std::size_t>(b)].push_back(std::move(f));
        }
    }

    auto time_pass = [&](const char* name, double traffic,
                         const std::function<void()>& pass) {
        std::vector<double> t;
        for (int rep = 0; rep < 5; ++rep) {
            qd::obs::ScopedSpan span("state", name);
            const auto t0 = Clock::now();
            pass();
            t.push_back(seconds_since(t0));
        }
        const double s = median_of(t);
        const double gbps = traffic * lane_bytes / s / 1e9;
        m.set(std::string("state.") + name + "_s", s, "s");
        m.set(std::string("state.") + name + ".ceiling_frac",
              ceiling.gbps_nt > 0 ? gbps / ceiling.gbps_nt : 0, "ratio");
    };
    // Traffic in passes over the batch: read+write = 2, read-only = 1;
    // normalising reads once for the norms, then scales.
    time_pass("scale_pass", 2,
              [&] { psi.scale_by_table_lanes(key, scale); });
    time_pass("normalize", 3, [&] { psi.normalize_lanes(); });
    time_pass("populations", 1, [&] { psi.populations_lanes(0); });
    time_pass("dephase", 2, [&] { psi.apply_product_diag_lanes(factors); });
    time_pass("fidelity", 2, [&] { psi.fidelity_lanes(other); });
}

double
trajectory_scaling(int width, int threads, std::uint64_t seed)
{
    const auto g = qd::ctor::build_gen_toffoli(qd::ctor::Method::kQutrit,
                                               width - 1);
    const qd::noise::TrajectoryCompilation compiled(g.circuit,
                                                    qd::noise::sc());
    auto run = [&](int nt) {
        qd::noise::TrajectoryOptions opts;
        opts.trials = kLanes * nt;
        opts.threads = nt;
        opts.seed = seed;
        qd::obs::ScopedSpan span("traj", "scaling_" + std::to_string(nt) + "t");
        const auto t0 = Clock::now();
        qd::noise::run_noisy_trials(compiled, opts);
        return seconds_since(t0);
    };
    const double t1 = run(1);
    const double tn = run(std::max(1, threads));
    return tn > 0 ? t1 / tn : 0;
}

void
counter_metrics(const qd::obs::CounterSnapshot& before,
                const qd::obs::CounterSnapshot& after, Metrics& m)
{
    using qd::obs::Counter;
    auto d = [&](Counter c) {
        return static_cast<double>(after[c] - before[c]);
    };
    const double hits = d(Counter::kServiceHits);
    const double misses = d(Counter::kServiceMisses);
    m.set("compile.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
          "ratio");
    m.set("compile.evictions", d(Counter::kServiceEvictions), "count");
    const double ops_in = d(Counter::kFusionOpsIn);
    m.set("compile.fusion_blocks_per_op",
          ops_in > 0 ? d(Counter::kFusionBlocksOut) / ops_in : 0, "ratio");
    m.set("traj.gate_error_draws", d(Counter::kTrajGateErrorDraws), "count");
    m.set("traj.gate_errors_fired", d(Counter::kTrajGateErrorsFired), "count");
    m.set("traj.damping_jumps", d(Counter::kTrajDampingJumps), "count");
    const double shots = d(Counter::kTrajShots);
    m.set("traj.lane_extract_ratio",
          shots > 0 ? d(Counter::kTrajLaneExtracts) / shots : 0, "ratio");
}

double
moment_loop_seconds(const std::vector<qd::obs::TraceEvent>& events)
{
    std::vector<std::pair<double, double>> rounds;
    for (const auto& e : events) {
        if (std::strcmp(e.cat, "bench") == 0 && e.name == "round") {
            rounds.emplace_back(e.ts_us, e.ts_us + e.dur_us);
        }
    }
    double us = 0;
    for (const auto& e : events) {
        if (std::strcmp(e.cat, "traj") != 0 || e.name != "moment") {
            continue;
        }
        for (const auto& [lo, hi] : rounds) {
            if (e.ts_us >= lo && e.ts_us + e.dur_us <= hi) {
                us += e.dur_us;
                break;
            }
        }
    }
    return us * 1e-6;
}

void
self_time_metrics(std::vector<qd::obs::TraceEvent> events, Metrics& m)
{
    // Per thread, parents before their children: by start, longer first.
    std::sort(events.begin(), events.end(),
              [](const qd::obs::TraceEvent& a, const qd::obs::TraceEvent& b) {
                  return std::make_tuple(a.tid, a.ts_us, -a.dur_us) <
                         std::make_tuple(b.tid, b.ts_us, -b.dur_us);
              });
    auto layer_of = [](const char* cat) -> const char* {
        for (const char* l : kLayers) {
            if (std::strcmp(cat, l) == 0) {
                return l;
            }
        }
        return nullptr;
    };
    struct Open {
        double end_us;
        double self_us;
        const char* layer;
    };
    std::map<std::string, double> self_us;
    std::vector<Open> stack;
    auto close = [&] {
        const Open& o = stack.back();
        if (o.layer != nullptr) {
            self_us[o.layer] += std::max(0.0, o.self_us);
        }
        stack.pop_back();
    };
    std::uint32_t tid = 0;
    for (const auto& e : events) {
        while (!stack.empty() &&
               (e.tid != tid || stack.back().end_us <= e.ts_us)) {
            close();
        }
        tid = e.tid;
        const char* layer = layer_of(e.cat);
        if (!stack.empty()) {
            stack.back().self_us -= e.dur_us;
            if (layer == nullptr) {
                layer = stack.back().layer;
            }
        }
        stack.push_back({e.ts_us + e.dur_us, e.dur_us, layer});
    }
    while (!stack.empty()) {
        close();
    }
    for (const auto& [layer, us] : self_us) {
        m.set(layer + ".self_s", us * 1e-6, "s");
    }
}

}  // namespace pb
