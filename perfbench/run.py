#!/usr/bin/env python3
"""End-to-end benchmark of the qutrit-circuits library.

Builds the library, the qd_served daemon and the benchmark program from
the checkout's sources (Release, into .bench_build/perfbench), runs one
workload and prints its output; the last line is the result
object {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload fig11-qutrit-w12 --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --paper-scale
    python3 perfbench/run.py --make-reference

See perfbench/README.md for the workloads, metrics and layer map.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; output goes to stderr.
    Compiler temporaries stay inside the checkout too."""
    jobs = str(os.cpu_count() or 1)
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT, env=env).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "--parallel", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT, env=env).returncode == 0


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def validate(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json names."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys differ from the contract"
    want = expected_metrics(trace)
    got = list(result["metrics"])
    if sorted(got) != sorted(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    return None


def main(argv):
    if not build():
        log("build failed")
        return 1
    if "--selftest" in argv:
        exe = os.path.join(BUILD, "perfbench_selftest")
        return subprocess.run([exe], cwd=ROOT).returncode

    exe = os.path.join(BUILD, "perfbench")
    cmd = [exe, "--bin-dir", BUILD] + argv
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    last = ""
    for line in proc.stdout:
        sys.stdout.write(line)
        if line.strip():
            last = line.strip()
    sys.stdout.flush()
    rc = proc.wait()
    if rc != 0:
        log(f"perfbench exited with {rc}")
        return rc
    if "--workload" in argv:
        trace = "--trace" in argv and argv[argv.index("--trace") + 1] != "0"
        problem = validate(last, trace)
        if problem:
            log(problem)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
