#!/usr/bin/env python3
"""Project-specific greppable-invariant lint.

Usage: lint_invariants.py [--root DIR]
       lint_invariants.py --self-test

Invariants that code review keeps re-checking by hand, now gated
in CI before anything is built (first-stage gate, like
compare_bench.py --self-test):

  obs-in-omp     obs:: instrumentation hooks must not be called inside
                 an OpenMP parallel region (the counter slabs are
                 per-thread aggregated OUTSIDE the region; hooks inside
                 would tear or serialize the hot loop). Detected by
                 brace-tracking the statement or block that follows
                 every `#pragma omp parallel...` in src/.
  omp-sites      no `#pragma omp parallel...` in src/ outside the files
                 of OMP_SITES, which is empty: every kernel pass runs on
                 its calling thread, and parallelism comes only from
                 trajectory batches (run_noisy_trials' workers) and
                 daemon jobs (qd_served's pool), so a thread team inside
                 a pass would nest under them. `#pragma omp simd`
                 (QD_SIMD) is vectorisation, not a region, and passes.
  raw-assert     no raw assert() in library code (src/): asserts vanish
                 in Release builds, so invariants must either throw or
                 be static_assert. Tests/benches may assert freely.
  bench-metrics  the bench gate must actually gate: every
                 bench/baselines/BENCH_*.json is listed in
                 compare_bench.py's TRACKED table, every TRACKED file
                 has a baseline, and every tracked metric exists in its
                 baseline file (a renamed metric would otherwise pass
                 the gate by matching nothing).
  ir-error-ids   every stable "qdj.*" decode-error id raised anywhere in
                 src/qdsim/ir/ must appear verbatim in
                 tests/ir/test_ir.cc, so no rejection path can be added
                 (or an id renamed) without an adversarial decode test
                 covering it. Both sides are scanned as RAW text —
                 strip_comments blanks string contents, which would
                 erase the ids themselves.

--self-test runs every check against generated good/bad fixtures so a
broken linter fails CI in seconds.
"""

import argparse
import importlib.util
import json
import os
import re
import sys
import tempfile

OBS_CALL = re.compile(r"\bobs::\w+")
RAW_ASSERT = re.compile(r"(?<![_\w])assert\s*\(")
OMP_PARALLEL = re.compile(r"#\s*pragma\s+omp\s.*\bparallel\b")


def strip_comments(text):
    """Removes // and /* */ comments (keeps line structure for numbering)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            out.append("\n" * text.count("\n", i, n if j < 0 else j + 2))
            i = n if j < 0 else j + 2
        elif text[i] in "\"'":
            q = text[i]
            out.append(q)
            i += 1
            while i < n and text[i] != q:
                if text[i] == "\\":
                    out.append("..")
                    i += 2
                else:
                    out.append("." if text[i] != "\n" else "\n")
                    i += 1
            out.append(q)
            i += 1
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def omp_region_span(text, pragma_end):
    """Returns (start, end) of the construct following an omp pragma at
    pragma_end: the brace block if one opens before a top-level ';',
    otherwise the single statement (e.g. a braceless for body counts via
    its own braces or trailing ';')."""
    depth = 0
    i = pragma_end
    n = len(text)
    opened = False
    while i < n:
        c = text[i]
        if c == "{":
            depth += 1
            opened = True
        elif c == "}":
            depth -= 1
            if opened and depth == 0:
                return pragma_end, i + 1
        elif c == ";" and depth == 0 and opened is False:
            # Statement without braces ended (pure `parallel for` over a
            # single expression-statement loop still contains its `;`s
            # inside the for(...) parens — treat parens as nesting too).
            return pragma_end, i + 1
        elif c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        i += 1
    return pragma_end, n


def check_obs_in_omp(root):
    """Flags obs:: calls inside OpenMP parallel regions in src/."""
    findings = []
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in sorted(files):
            if not name.endswith((".cc", ".h")):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as f:
                text = strip_comments(f.read())
            for m in OMP_PARALLEL.finditer(text):
                line_end = text.find("\n", m.end())
                # honour pragma line continuations
                while line_end > 0 and text[line_end - 1] == "\\":
                    line_end = text.find("\n", line_end + 1)
                start, end = omp_region_span(
                    text, len(text) if line_end < 0 else line_end)
                for call in OBS_CALL.finditer(text, start, end):
                    line = text.count("\n", 0, call.start()) + 1
                    findings.append(
                        f"{os.path.relpath(path, root)}:{line}: "
                        f"{call.group(0)} inside an OpenMP parallel "
                        f"region (hooks must run outside; aggregate "
                        f"per-thread and report after the join)")
    return findings


# The src/ files allowed to open OpenMP parallel regions: none.
OMP_SITES = ()


def check_omp_sites(root):
    """Flags `#pragma omp parallel` in src/ outside OMP_SITES."""
    findings = []
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in sorted(files):
            if not name.endswith((".cc", ".h")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            if rel in OMP_SITES:
                continue
            with open(path, encoding="utf-8") as f:
                text = strip_comments(f.read())
            for m in OMP_PARALLEL.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                findings.append(
                    f"{rel}:{line}: OpenMP parallel region in src/ "
                    f"(kernel passes run on their calling thread; "
                    f"parallelism comes from trajectory batches and "
                    f"daemon jobs)")
    return findings


def check_raw_assert(root):
    """Flags raw assert() in library code under src/."""
    findings = []
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in sorted(files):
            if not name.endswith((".cc", ".h")):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as f:
                text = strip_comments(f.read())
            for m in RAW_ASSERT.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                findings.append(
                    f"{os.path.relpath(path, root)}:{line}: raw assert() "
                    f"in library code (it vanishes in Release; throw or "
                    f"static_assert instead)")
    return findings


def load_tracked(root):
    """Imports compare_bench.py and returns its TRACKED table."""
    path = os.path.join(root, "scripts", "compare_bench.py")
    spec = importlib.util.spec_from_file_location("compare_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACKED, module.normalize_spec


def check_bench_metrics(root):
    """Cross-checks bench/baselines against compare_bench.py TRACKED."""
    findings = []
    tracked, normalize = load_tracked(root)
    baseline_dir = os.path.join(root, "bench", "baselines")
    baselines = sorted(f for f in os.listdir(baseline_dir)
                       if f.startswith("BENCH_") and f.endswith(".json"))
    for name in baselines:
        if name not in tracked:
            findings.append(
                f"bench/baselines/{name}: baseline exists but the file "
                f"is not in compare_bench.py TRACKED (its regressions "
                f"would never gate)")
    for name, specs in tracked.items():
        path = os.path.join(baseline_dir, name)
        if not os.path.exists(path):
            findings.append(
                f"compare_bench.py TRACKED lists {name} but "
                f"bench/baselines/{name} does not exist")
            continue
        with open(path, encoding="utf-8") as f:
            baseline = json.load(f)
        for spec in specs:
            metric, _ = normalize(spec)
            if metric not in baseline:
                findings.append(
                    f"bench/baselines/{name}: tracked metric "
                    f"'{metric}' missing from the baseline (the gate "
                    f"would compare nothing)")
    return findings


IR_ERROR_ID = re.compile(r'"(qdj\.[a-z][a-z-]*)"')


def check_ir_error_ids(root):
    """Requires every qdj.* id raised in src/qdsim/ir/ to appear in the
    adversarial decode tests. RAW text on both sides: the ids live inside
    string literals, which strip_comments blanks out."""
    findings = []
    ir_dir = os.path.join(root, "src", "qdsim", "ir")
    test_path = os.path.join(root, "tests", "ir", "test_ir.cc")
    if not os.path.isdir(ir_dir):
        return findings
    raised = {}
    for dirpath, _, files in os.walk(ir_dir):
        for name in sorted(files):
            if not name.endswith((".cc", ".h")):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as f:
                text = f.read()
            for m in IR_ERROR_ID.finditer(text):
                raised.setdefault(m.group(1), os.path.relpath(path, root))
    if not raised:
        findings.append(
            "src/qdsim/ir/: no qdj.* error ids found — either the decoder "
            "lost its structured rejections or the id pattern drifted")
        return findings
    if not os.path.exists(test_path):
        findings.append(
            "tests/ir/test_ir.cc missing: the adversarial decode tests "
            "that pin every qdj.* error id are gone")
        return findings
    with open(test_path, encoding="utf-8") as f:
        tested = set(IR_ERROR_ID.findall(f.read()))
    for error_id in sorted(set(raised) - tested):
        findings.append(
            f"{raised[error_id]}: error id \"{error_id}\" is raised but "
            f"never appears in tests/ir/test_ir.cc (every stable decode "
            f"rejection needs an adversarial test)")
    return findings


CHECKS = {
    "obs-in-omp": check_obs_in_omp,
    "omp-sites": check_omp_sites,
    "raw-assert": check_raw_assert,
    "bench-metrics": check_bench_metrics,
    "ir-error-ids": check_ir_error_ids,
}


def run_checks(root):
    failures = 0
    for name, check in CHECKS.items():
        findings = check(root)
        status = "OK" if not findings else f"{len(findings)} finding(s)"
        print(f"lint_invariants: {name:14s} {status}")
        for f in findings:
            print(f"  {f}")
        failures += len(findings)
    return failures


# ------------------------------------------------------------- self-test

GOOD_CC = """
void hot() {
#pragma omp parallel for schedule(static)
    for (int i = 0; i < n; ++i) { work(i); }
    obs::record_pass(n);  // outside the region: fine
}
"""

BAD_OMP_CC = """
void hot() {
#pragma omp parallel
    {
        work();
        obs::record_pass(1);
    }
}
"""

BAD_OMP_FOR_CC = """
void hot() {
#pragma omp parallel for
    for (int i = 0; i < n; ++i) {
        obs::bump(i);
    }
}
"""

COMMENT_ONLY_CC = """
void hot() {
#pragma omp parallel
    {
        // obs::record_pass(1) would be wrong here
        work();
    }
}
"""

COMMENT_PRAGMA_CC = """
// A thread team would need `#pragma omp parallel for` here.
"""

SIMD_CC = """
void lanes() {
#pragma omp simd
    for (int l = 0; l < n; ++l) { work(l); }
    obs::record_pass(n);
}
"""

BAD_ASSERT_CC = """
#include <cassert>
void f(int x) { assert(x > 0); }
"""

GOOD_ASSERT_CC = """
void f(int x) {
    static_assert(sizeof(int) == 4, "ILP32/LP64 only");
    my_assert(x);  // not the macro
}
"""


IR_CC = """
void decode() {
    fail("qdj.syntax", "bad token");
    fail("qdj.wires", "duplicate wire");  // raised on two paths
}
"""

IR_TEST_GOOD = """
const char* kIds[] = {"qdj.syntax", "qdj.wires"};
"""

IR_TEST_BAD = """
const char* kIds[] = {"qdj.syntax"};  // qdj.wires untested
"""


def write(root, rel, content):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(content)


def expect(cond, label, problems):
    print(f"  self-test: {label}: {'ok' if cond else 'FAIL'}")
    if not cond:
        problems.append(label)


def make_fixture_repo(root, *, bad):
    write(root, "src/good.cc", GOOD_ASSERT_CC + COMMENT_PRAGMA_CC + SIMD_CC)
    if bad:
        write(root, "src/bad_omp.cc", BAD_OMP_CC)
        write(root, "src/bad_omp_for.cc", BAD_OMP_FOR_CC)
        write(root, "src/bad_assert.cc", BAD_ASSERT_CC)
        # Regions obs-in-omp accepts still fail omp-sites.
        write(root, "src/qdsim/exec/batched_kernels.cc",
              GOOD_CC + COMMENT_ONLY_CC)
    write(
        root, "scripts/compare_bench.py", """
TRACKED = {
    "BENCH_a.json": ["speedup", {"metric": "ghost", "mode": "exact"}],
    "BENCH_missing.json": ["speedup"],
}
def normalize_spec(spec):
    if isinstance(spec, str):
        return spec, "min"
    return spec["metric"], spec["mode"]
""" if bad else """
TRACKED = {"BENCH_a.json": ["speedup"]}
def normalize_spec(spec):
    if isinstance(spec, str):
        return spec, "min"
    return spec["metric"], spec["mode"]
""")
    write(root, "bench/baselines/BENCH_a.json",
          json.dumps({"speedup": 2.0}))
    if bad:
        write(root, "bench/baselines/BENCH_orphan.json",
              json.dumps({"speedup": 1.0}))
    write(root, "src/qdsim/ir/ir.cc", IR_CC)
    write(root, "tests/ir/test_ir.cc",
          IR_TEST_BAD if bad else IR_TEST_GOOD)


def self_test():
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        good = os.path.join(tmp, "good")
        make_fixture_repo(good, bad=False)
        expect(check_obs_in_omp(good) == [], "clean omp fixture passes",
               problems)
        expect(check_omp_sites(good) == [],
               "omp simd and a commented-out pragma pass", problems)
        expect(check_raw_assert(good) == [], "clean assert fixture passes",
               problems)
        expect(check_bench_metrics(good) == [],
               "consistent bench tables pass", problems)
        expect(check_ir_error_ids(good) == [],
               "fully tested ir error ids pass", problems)

        bad = os.path.join(tmp, "bad")
        make_fixture_repo(bad, bad=True)
        omp = check_obs_in_omp(bad)
        expect(len(omp) == 2 and any("bad_omp.cc" in f for f in omp)
               and any("bad_omp_for.cc" in f for f in omp),
               "obs:: inside parallel block and parallel-for flagged",
               problems)
        sites = check_omp_sites(bad)
        expect(len(sites) == 4 and any("bad_omp.cc" in f for f in sites)
               and any("bad_omp_for.cc" in f for f in sites)
               and sum("exec/batched_kernels.cc" in f for f in sites) == 2,
               "every parallel region in src/ flagged", problems)
        expect(check_raw_assert(bad) != [], "raw assert flagged", problems)
        bench = check_bench_metrics(bad)
        expect(any("ghost" in f for f in bench),
               "missing tracked metric flagged", problems)
        expect(any("BENCH_missing.json" in f for f in bench),
               "tracked file without baseline flagged", problems)
        expect(any("BENCH_orphan.json" in f for f in bench),
               "untracked baseline flagged", problems)
        ir = check_ir_error_ids(bad)
        expect(len(ir) == 1 and "qdj.wires" in ir[0],
               "untested ir error id flagged", problems)
    if problems:
        print(f"lint_invariants --self-test: FAILED ({len(problems)})")
        return 1
    print("lint_invariants --self-test: all checks behave")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return 1 if run_checks(args.root) else 0


if __name__ == "__main__":
    sys.exit(main())
