/**
 * Self-tests of the benchmark's own machinery: the seeded job generator,
 * the percentile helper, the output checks (a perturbed fidelity or
 * served value must be flagged) and per-layer self time from a trace. Run from the checkout root:
 *
 *   python3 perfbench/run.py --selftest
 *
 * Checks stay active in every build type (no assert).
 */
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "jobs.h"
#include "layers.h"
#include "serve/run.h"

namespace {

int g_failures = 0;

void
expect(bool ok, const char* what)
{
    if (!ok) {
        ++g_failures;
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

std::vector<std::string>
stream_texts(const pb::JobSet& set, std::uint64_t seed, int conn, int n)
{
    pb::JobStream stream(set, seed, conn);
    std::vector<std::string> out;
    for (int i = 0; i < n; ++i) {
        out.push_back(*stream.next().qdj);
    }
    return out;
}

void
test_generator()
{
    const pb::JobSet a(7);
    const pb::JobSet b(7);
    const pb::JobSet c(8);
    bool same_hot = a.hot().size() == b.hot().size();
    for (std::size_t i = 0; same_hot && i < a.hot().size(); ++i) {
        same_hot = *a.hot()[i] == *b.hot()[i];
    }
    expect(same_hot, "hot set is deterministic for a fixed seed");
    expect(*a.hot()[0] != *c.hot()[0], "hot set differs across seeds");

    const auto s1 = stream_texts(a, 7, 0, 60);
    expect(s1 == stream_texts(b, 7, 0, 60),
           "job stream is deterministic for a fixed seed");
    expect(s1 != stream_texts(c, 8, 0, 60), "job stream differs across seeds");
    expect(s1 != stream_texts(a, 7, 1, 60),
           "connections draw independent streams");

    // Every kBlock jobs hold exactly kColdPerBlock never-seen circuits,
    // and cold documents never repeat.
    pb::JobStream stream(a, 7, 0);
    int cold = 0;
    std::set<std::string> cold_texts;
    for (int i = 0; i < 10 * pb::kBlock; ++i) {
        const auto job = stream.next();
        if (!job.hot) {
            ++cold;
            cold_texts.insert(*job.qdj);
        }
    }
    expect(cold == 10 * pb::kColdPerBlock, "cold share is exact per block");
    expect(static_cast<int>(cold_texts.size()) == cold,
           "cold circuits are distinct");

    // Generated documents parse and are admitted.
    qd::serve::RunRequest request =
        qd::serve::RunRequest::from_qdj(*a.hot()[0]);
    request.threads = 1;
    const auto result = qd::serve::execute(request);
    expect(result.ok(), "a generated job executes with status ok");
}

void
test_percentile()
{
    expect(near(pb::percentile({1, 2, 3, 4}, 50), 2.5), "p50 of 1..4");
    expect(near(pb::percentile({4, 1, 3, 2}, 0), 1), "p0 is the minimum");
    expect(near(pb::percentile({4, 1, 3, 2}, 100), 4), "p100 is the maximum");
    expect(near(pb::percentile({1, 2, 3, 4, 5}, 25), 2), "p25 of 1..5");
    expect(near(pb::percentile({10, 20}, 99), 19.9), "p99 interpolates");
    expect(near(pb::percentile({5}, 99), 5), "single sample");
    expect(std::isnan(pb::percentile({}, 50)), "empty sample is NaN");
    expect(pb::reportable_percentile(1000) == 99, "p99 needs 1000 samples");
    expect(pb::reportable_percentile(999) == 95, "999 samples report p95");
    expect(pb::reportable_percentile(100) == 90, "100 samples report p90");
    expect(pb::reportable_percentile(5) == 50, "tiny samples report p50");
}

void
test_checks()
{
    pb::ReferenceCell ref;
    ref.circuit = "QUTRIT";
    ref.model = "SC";
    ref.width = 12;
    ref.mean = 0.70;
    ref.std_error = 0.02;
    ref.trials = 480;
    expect(pb::fidelity_ok(0.72, 0.06, 48, ref), "close fidelity passes");
    expect(!pb::fidelity_ok(0.72 + 0.3, 0.06, 48, ref),
           "perturbed fidelity is flagged");
    expect(!pb::fidelity_ok(1.05, 0.0, 48, ref),
           "fidelity above 1 is flagged");
    expect(pb::fidelity_in_range(std::nextafter(1.0, 2.0)),
           "fidelity one ulp above 1 is rounding, not an error");
    expect(!pb::fidelity_ok(-0.01, 0.0, 48, ref),
           "negative fidelity is flagged");
    expect(!pb::fidelity_ok(std::nan(""), 0.01, 48, ref), "NaN is flagged");
    // A small sample that saw no rare event reports a tiny standard error;
    // the reference's spread scaled to 48 trials (0.063) still applies.
    expect(pb::fidelity_ok(0.70 + 0.2, 0.001, 48, ref),
           "tolerance uses the reference spread at the cell's trials");
    expect(!pb::fidelity_ok(0.70 + 0.2, 0.001, 480, ref),
           "the same offset over 480 trials is flagged");
    ref.mean = 1.0;
    ref.std_error = 0.0;
    expect(pb::fidelity_ok(0.995, 0.0, 48, ref), "tolerance floor is 0.01");
    expect(!pb::fidelity_ok(0.98, 0.0, 48, ref),
           "beyond the floor is flagged");

    expect(pb::ordering_ok(0.70, 0.05, 0.20, 0.05), "paper ordering holds");
    expect(!pb::ordering_ok(0.20, 0.01, 0.70, 0.01),
           "reversed ordering is flagged");

    const double v = 0.9123456789;
    const double bumped = std::nextafter(v, 1.0);
    expect(pb::served_result_ok("ok", v, 0.01, "ok", v, 0.01),
           "identical served result passes");
    expect(!pb::served_result_ok("ok", bumped, 0.01, "ok", v, 0.01),
           "one-ulp perturbed served value is flagged");
    expect(!pb::served_result_ok("ok", v, std::nextafter(0.01, 1.0), "ok", v,
                                 0.01),
           "perturbed standard error is flagged");
    expect(!pb::served_result_ok("failed", v, 0.01, "ok", v, 0.01),
           "failed status is flagged");

    const auto cells = pb::read_reference("perfbench/fig11_reference.txt");
    expect(cells.size() == 16, "reference holds the 16 Figure 11 cells");
    expect(pb::find_reference(cells, "QUTRIT", "SC", 12) != nullptr,
           "reference lookup");
}

qd::obs::TraceEvent
event(const char* cat, const char* name, std::uint32_t tid, double ts,
      double dur)
{
    qd::obs::TraceEvent e;
    e.cat = cat;
    e.name = name;
    e.tid = tid;
    e.ts_us = ts;
    e.dur_us = dur;
    return e;
}

void
test_self_time()
{
    // Thread 1: a bench cell holding a compile span (which holds a
    // library exec span, credited to compile) and a kernel span.
    // Thread 2: a traj span alone. Events arrive unordered.
    const std::vector<qd::obs::TraceEvent> events = {
        event("kernel", "op", 1, 50, 40),
        event("exec", "compile_circuit", 1, 15, 20),
        event("traj", "moment", 2, 0, 30),
        event("bench", "cell", 1, 0, 100),
        event("compile", "compile", 1, 10, 30),
    };
    pb::Metrics m;
    pb::self_time_metrics(events, m);
    auto self = [&m](const char* name) {
        const pb::Metric* x = m.find(name);
        return x == nullptr ? -1.0 : x->value;
    };
    expect(near(self("compile.self_s"), 30e-6),
           "a library span counts for the enclosing layer");
    expect(near(self("kernel.self_s"), 40e-6), "sibling span self time");
    expect(near(self("traj.self_s"), 30e-6), "spans nest per thread");
    expect(m.find("bench.self_s") == nullptr,
           "workload-level spans are no layer");
}

}  // namespace

int
main()
{
    test_generator();
    test_percentile();
    test_checks();
    test_self_time();
    if (g_failures == 0) {
        std::printf("perfbench selftest: all checks passed\n");
        return 0;
    }
    std::printf("perfbench selftest: %d check(s) failed\n", g_failures);
    return 1;
}
