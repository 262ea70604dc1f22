#!/usr/bin/env python3
"""Compare BENCH_*.json results against the checked-in baselines.

Usage: compare_bench.py [--tolerance FRAC] [--results DIR] [--baselines DIR]
       compare_bench.py --self-test

Three metric modes, chosen per tracked metric:

  min    higher-is-better ratio (the default): fails when the result
         falls more than --tolerance (default 25%) below its baseline —
         i.e. the compiled fast path lost ground against the reference
         implementation. Only machine-independent throughput ratios are
         gated this way (a "speedup" of a compiled path over its
         reference measured in the SAME run on the SAME machine); raw
         millisecond numbers vary with the runner and are uploaded as
         artifacts but never gated on.
  exact  deterministic counter (plan-cache traffic, fused block counts
         from the obs instrumentation layer): fails on ANY numeric
         difference from the baseline. These counters are
         thread-count- and machine-invariant by construction, so a
         drift means the engine's behaviour changed, not the runner.
  max    lower-is-better quantity: fails when the result exceeds the
         baseline by more than --tolerance.

Every loaded file is schema-checked first: the top level must be a JSON
object and every tracked metric must be a plain number (booleans are
rejected — JSON true/false silently coerce to 1/0 in Python and would
gate on garbage).

Every failure line names the engine worker count each side ran under
(the BENCH_*.json "threads" field: std::thread::hardware_concurrency(),
the default worker count of run_noisy_trials; "unrecorded" when a file
predates it), so a failure on a different core count reads as such.

--self-test exercises the script's own failure paths (truncated JSON,
schema violations, zero metrics compared, below-floor / not-exact /
above-ceiling regressions, and the passing cases) against generated
fixture files, so a broken gate fails CI in seconds instead of silently
passing after a 20-minute build.
"""

import argparse
import io
import json
import os
import sys
import tempfile

# file -> list of metrics to gate on. A bare string means mode "min";
# a {"metric": ..., "mode": ...} dict selects "min", "exact" or "max".
# One speedup entry per benchmarked engine: compiled state-vector
# (exec), density-matrix conjugation (the same kernels over rho), batched
# trajectory lanes, and compile-time fusion. The obs_* entries gate the instrumentation
# layer's deterministic counters from bench_exec's instrumented section
# (fused compile + one pass of the default workload).
TRACKED = {
    "BENCH_exec.json": [
        "speedup",
        {"metric": "obs_plan_cache_hits", "mode": "exact"},
        {"metric": "obs_plan_cache_misses", "mode": "exact"},
        {"metric": "obs_fusion_blocks_out", "mode": "exact"},
        {"metric": "obs_cache_hit_rate", "mode": "min"},
    ],
    "BENCH_density.json": ["speedup"],
    # speedup_sparse gates the support walk: width-10 qutrit trajectories
    # from qubit-subspace inputs, tracked against forced dense.
    "BENCH_batch.json": ["speedup", "speedup_sparse"],
    # speedup_tree gates the stage-2 cost-model look-ahead (overlapping
    # wire-set unions: the qutrit gen-Toffoli tree fuses ONLY through
    # it), and obs_fusion_cost_rejected pins the model's decisions on
    # bench_fusion's instrumented section (deterministic compile of two
    # fixed circuits).
    "BENCH_fusion.json": [
        "speedup",
        "speedup_incrementer",
        "speedup_tree",
        {"metric": "obs_fusion_cost_rejected", "mode": "exact"},
    ],
    # speedup is the cold-vs-warm submission ratio through the
    # CompileService artifact cache; the hit/miss counters pin
    # bench_service's instrumented 16-submission burst (1 miss, 15 hits)
    # so any keying or admission change that alters cache traffic fails
    # the gate.
    "BENCH_service.json": [
        "speedup",
        {"metric": "obs_service_hits", "mode": "exact"},
        {"metric": "obs_service_misses", "mode": "exact"},
    ],
    # The serving layer (qd_served / run_stdin_loop): speedup is the
    # cold-vs-warm full-request ratio (decode + compile + execute),
    # warm_jobs_per_sec a deliberately conservative throughput floor
    # (baseline ~10% of a dev-box run — catches order-of-magnitude
    # collapses, not runner variance), and the obs_serve_* counters pin
    # bench_serve's instrumented 16-submission burst exactly.
    "BENCH_serve.json": [
        "speedup",
        "warm_jobs_per_sec",
        {"metric": "obs_serve_jobs_accepted", "mode": "exact"},
        {"metric": "obs_serve_jobs_ok", "mode": "exact"},
        {"metric": "obs_serve_warm_hits", "mode": "exact"},
    ],
}

MODES = ("min", "exact", "max")


def normalize_spec(spec):
    """Returns (metric_name, mode) from a bare string or a dict spec."""
    if isinstance(spec, str):
        return spec, "min"
    metric = spec["metric"]
    mode = spec.get("mode", "min")
    if mode not in MODES:
        raise ValueError(f"unknown metric mode {mode!r} for {metric}")
    return metric, mode


def load_json(path, failures):
    """Parses a result/baseline file, recording a clear failure (instead of
    an uncaught traceback) when the file is truncated or malformed, and
    validating the schema: the top level must be a JSON object."""
    try:
        with open(path) as f:
            data = json.load(f)
    except json.JSONDecodeError as err:
        failures.append(f"{path}: invalid or truncated JSON ({err})")
        return None
    if not isinstance(data, dict):
        failures.append(f"{path}: schema violation — top level must be a "
                        f"JSON object, got {type(data).__name__}")
        return None
    return data


def numeric(data, path, metric, failures):
    """Extracts a tracked metric as a float, recording a schema failure
    for non-numeric values (bool included: JSON true/false would
    otherwise coerce to 1.0/0.0 and gate on garbage)."""
    value = data[metric]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        failures.append(f"{path}:{metric}: schema violation — expected a "
                        f"number, got {value!r}")
        return None
    return float(value)


def threads_of(data):
    """The thread count a BENCH_*.json records, as printed."""
    return str(data["threads"]) if "threads" in data else "unrecorded"


def check_metric(name, metric, mode, base, got, tolerance, failures, out,
                 threads=""):
    """Applies one mode's pass criterion and logs/records the outcome;
    `threads` is appended to a failure line."""
    failed = len(failures)
    if mode == "min":
        floor = base * (1.0 - tolerance)
        ok = got >= floor
        bound = f"floor {floor:.3f}"
        if not ok:
            failures.append(
                f"{name}:{metric} regressed to {got:.3f}; baseline "
                f"{base:.3f} allows no less than {floor:.3f}")
    elif mode == "max":
        ceiling = base * (1.0 + tolerance)
        ok = got <= ceiling
        bound = f"ceiling {ceiling:.3f}"
        if not ok:
            failures.append(
                f"{name}:{metric} grew to {got:.3f}; baseline "
                f"{base:.3f} allows no more than {ceiling:.3f}")
    else:  # exact
        ok = got == base
        bound = "exact"
        if not ok:
            failures.append(
                f"{name}:{metric} is {got:g}; baseline requires exactly "
                f"{base:g} (deterministic counter drifted — either the "
                f"engine changed or the baseline needs a deliberate "
                f"update)")
    if len(failures) > failed and threads:
        failures[-1] += f" [{threads}]"
    status = "ok" if ok else "REGRESSION"
    print(f"[{status}] {name}:{metric} ({mode}): {got:.3f} "
          f"(baseline {base:.3f}, {bound})", file=out)


def compare(results_dir, baselines_dir, tolerance, tracked=None,
            out=sys.stdout, err=sys.stderr):
    """Runs the comparison; returns 0 (pass) or 1 (fail)."""
    tracked = TRACKED if tracked is None else tracked
    failures = []
    checked = 0
    for name, specs in sorted(tracked.items()):
        result_path = os.path.join(results_dir, name)
        baseline_path = os.path.join(baselines_dir, name)
        if not os.path.exists(baseline_path):
            print(f"[skip] {name}: no baseline checked in", file=out)
            continue
        if not os.path.exists(result_path):
            failures.append(f"{name}: benchmark result missing "
                            f"(expected at {result_path})")
            continue
        result = load_json(result_path, failures)
        baseline = load_json(baseline_path, failures)
        if result is None or baseline is None:
            continue
        threads = (f"threads: result {threads_of(result)}, "
                   f"baseline {threads_of(baseline)}")
        for spec in specs:
            metric, mode = normalize_spec(spec)
            if metric not in baseline:
                print(f"[skip] {name}:{metric}: not in baseline", file=out)
                continue
            if metric not in result:
                failures.append(f"{name}:{metric}: missing from result")
                continue
            base = numeric(baseline, baseline_path, metric, failures)
            got = numeric(result, result_path, metric, failures)
            if base is None or got is None:
                continue
            check_metric(name, metric, mode, base, got, tolerance,
                         failures, out, threads)
            checked += 1

    if failures:
        print("\nbenchmark regression check FAILED:", file=err)
        for failure in failures:
            print(f"  - {failure}", file=err)
        return 1
    if checked == 0:
        # Every tracked file was skipped (e.g. no baselines checked in, or
        # metrics missing from every baseline). Exiting green here would
        # silently disable the perf gate.
        print("benchmark regression check FAILED: 0 metrics compared — "
              "every tracked file was skipped; check that baselines exist "
              f"under --baselines and results under --results "
              f"(tracked: {', '.join(sorted(tracked))})", file=err)
        return 1
    print(f"\nbenchmark regression check passed ({checked} metrics)",
          file=out)
    return 0


def self_test():
    """Exercises the gate's failure paths with fixture files. Returns 0
    when every scenario behaves as specified."""
    problems = []
    scenarios = 0

    def scenario(name, expect_rc, baseline_text, result_text,
                 tracked=None, expect_err=None):
        nonlocal scenarios
        scenarios += 1
        tracked = ({"BENCH_fixture.json": ["speedup"]}
                   if tracked is None else tracked)
        with tempfile.TemporaryDirectory() as tmp:
            baselines = os.path.join(tmp, "baselines")
            results = os.path.join(tmp, "results")
            os.makedirs(baselines)
            os.makedirs(results)
            if baseline_text is not None:
                with open(os.path.join(baselines,
                                       "BENCH_fixture.json"), "w") as f:
                    f.write(baseline_text)
            if result_text is not None:
                with open(os.path.join(results,
                                       "BENCH_fixture.json"), "w") as f:
                    f.write(result_text)
            err = io.StringIO()
            with open(os.devnull, "w") as sink:
                # Keep both streams out of the log: the scenarios FAIL on
                # purpose, and their diagnostics would read as real
                # failures in the CI log.
                rc = compare(results, baselines, 0.25, tracked,
                             out=sink, err=err)
            passed = rc == expect_rc and (expect_err is None or
                                          expect_err in err.getvalue())
            status = "ok" if passed else "FAIL"
            print(f"[self-test {status}] {name}: exit {rc} "
                  f"(expected {expect_rc})")
            if not passed:
                problems.append(name)

    exact = {"BENCH_fixture.json": [{"metric": "hits", "mode": "exact"}]}
    ceiling = {"BENCH_fixture.json": [{"metric": "misses", "mode": "max"}]}

    ok = json.dumps({"speedup": 2.0})
    scenario("passing result within floor", 0, ok,
             json.dumps({"speedup": 1.9}))
    scenario("below-floor regression fails", 1, ok,
             json.dumps({"speedup": 1.0}))
    scenario("truncated result JSON fails", 1, ok, '{"speedup": 2.')
    scenario("truncated baseline JSON fails", 1, '{"speedup', ok)
    scenario("missing result file fails", 1, ok, None)
    scenario("zero metrics compared fails (no baseline)", 1, None, ok)
    scenario("metric missing from result fails", 1, ok,
             json.dumps({"other": 1.0}))
    scenario("failure line names both thread counts", 1, ok,
             json.dumps({"threads": 4, "speedup": 1.0}),
             expect_err="threads: result 4, baseline unrecorded")
    scenario("exact match passes", 0, json.dumps({"hits": 41}),
             json.dumps({"hits": 41}), tracked=exact)
    scenario("exact mismatch fails", 1, json.dumps({"hits": 41}),
             json.dumps({"hits": 40}), tracked=exact)
    scenario("max within ceiling passes", 0, json.dumps({"misses": 8.0}),
             json.dumps({"misses": 9.0}), tracked=ceiling)
    scenario("max above ceiling fails", 1, json.dumps({"misses": 8.0}),
             json.dumps({"misses": 11.0}), tracked=ceiling)
    # The BENCH_fusion.json gate shape: min-mode speedup_tree plus the
    # exact-mode cost-model counter, checked together like CI does.
    fusion = {"BENCH_fixture.json": [
        "speedup_tree",
        {"metric": "obs_fusion_cost_rejected", "mode": "exact"},
    ]}
    fusion_base = json.dumps(
        {"speedup_tree": 30.0, "obs_fusion_cost_rejected": 2572})
    scenario("fusion-shape gate passes", 0, fusion_base,
             json.dumps({"speedup_tree": 28.5,
                         "obs_fusion_cost_rejected": 2572}),
             tracked=fusion)
    scenario("speedup_tree below floor fails", 1, fusion_base,
             json.dumps({"speedup_tree": 1.0,
                         "obs_fusion_cost_rejected": 2572}),
             tracked=fusion)
    scenario("cost-rejected counter drift fails", 1, fusion_base,
             json.dumps({"speedup_tree": 30.0,
                         "obs_fusion_cost_rejected": 2571}),
             tracked=fusion)
    # The BENCH_service.json gate shape: amortization speedup plus the
    # exact-mode artifact-cache traffic from the 16-submission burst.
    service = {"BENCH_fixture.json": [
        "speedup",
        {"metric": "obs_service_hits", "mode": "exact"},
        {"metric": "obs_service_misses", "mode": "exact"},
    ]}
    service_base = json.dumps(
        {"speedup": 40.0, "obs_service_hits": 15, "obs_service_misses": 1})
    scenario("service-shape gate passes", 0, service_base,
             json.dumps({"speedup": 38.0, "obs_service_hits": 15,
                         "obs_service_misses": 1}),
             tracked=service)
    scenario("service hit-counter drift fails", 1, service_base,
             json.dumps({"speedup": 40.0, "obs_service_hits": 14,
                         "obs_service_misses": 2}),
             tracked=service)
    # The BENCH_serve.json gate shape: request-path speedup, the
    # conservative throughput floor, and the exact serve counters from
    # the 16-submission burst.
    serve = {"BENCH_fixture.json": [
        "speedup",
        "warm_jobs_per_sec",
        {"metric": "obs_serve_warm_hits", "mode": "exact"},
    ]}
    serve_base = json.dumps({"speedup": 3.0, "warm_jobs_per_sec": 500.0,
                             "obs_serve_warm_hits": 15})
    scenario("serve-shape gate passes", 0, serve_base,
             json.dumps({"speedup": 2.8, "warm_jobs_per_sec": 5000.0,
                         "obs_serve_warm_hits": 15}),
             tracked=serve)
    scenario("serve throughput collapse fails", 1, serve_base,
             json.dumps({"speedup": 3.0, "warm_jobs_per_sec": 50.0,
                         "obs_serve_warm_hits": 15}),
             tracked=serve)
    scenario("serve warm-hit drift fails", 1, serve_base,
             json.dumps({"speedup": 3.0, "warm_jobs_per_sec": 5000.0,
                         "obs_serve_warm_hits": 0}),
             tracked=serve)
    scenario("top-level array fails schema", 1, ok,
             json.dumps([{"speedup": 2.0}]))
    scenario("boolean metric fails schema", 1, ok,
             json.dumps({"speedup": True}))
    scenario("string metric fails schema", 1, ok,
             json.dumps({"speedup": "2.0"}))

    if problems:
        print(f"\nself-test FAILED: {', '.join(problems)}",
              file=sys.stderr)
        return 1
    print(f"\nself-test passed ({scenarios} scenarios)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional regression (default 0.25)")
    parser.add_argument("--results", default=".",
                        help="directory holding freshly produced BENCH_*.json")
    parser.add_argument("--baselines", default="bench/baselines",
                        help="directory holding checked-in baselines")
    parser.add_argument("--self-test", action="store_true",
                        help="exercise the gate's failure paths against "
                             "fixture files and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return compare(args.results, args.baselines, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
