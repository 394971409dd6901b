#!/usr/bin/env python3
"""Build and run commitbench, the f+1-proof commit benchmark (see README.md).

    python3 commitbench/run.py --workload steady|busy|rollup --seed N \
        --seconds S --trace 0|1
    python3 commitbench/run.py --self-test

Builds the benchmark and the repository's library from source under
.bench_build/ at the checkout root, runs one measured run, and passes its
output through. The last line of standard output is the run's JSON result.
A traced run (--trace 1) also prints its overhead against the median of
the untraced runs of the same workload made earlier in this checkout.

--self-test runs the checker's planted-fault cases and a 6-second run of
every workload, traced and untraced; any failure exits non-zero.
"""
import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "commitbench")
BUILD = os.path.join(ROOT, ".bench_build", "commitbench")
OUT = os.path.join(BUILD, "out")
WORKLOADS = ("steady", "busy", "rollup")
RUN_TIMEOUT_S = 170
BUILD_TYPE = "RelWithDebInfo"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(targets):
    """Configure once, then build `targets`; False when either step fails."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the run's result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("commitbench: build step failed: " + " ".join(cmd))
            return False
    return True


def source_revision():
    """The git commit (or "nogit") plus a content hash of the sources.

    The hash tells apart edits that share one commit, so traced and untraced
    runs are compared only on identical sources.
    """
    commit = "nogit"
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if (git.returncode == 0 and len(lines) == 2
                and os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "commitbench"):
        for path in sorted(glob.glob(os.path.join(ROOT, top, "**", "*"), recursive=True)):
            if os.path.isfile(path):
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "%s/tree-%s" % (commit, digest.hexdigest()[:16])


def run_once(workload, seed, seconds, trace, out_dir, echo=True):
    """One measured run. Returns (exit code, result line or None)."""
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "commitbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir, "--git-commit", source_revision()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("commitbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    result = lines[-1] if lines and lines[-1].startswith("{") else None
    if echo:
        for line in lines[:-1] if result else lines:
            print(line)
    if result is None:
        log("commitbench: the run printed no result (exit %d)" % proc.returncode)
        return proc.returncode or 1, None
    return proc.returncode, result


def trace_overhead(workload, seed, out_dir):
    """Traced run's end-to-end metrics against the untraced runs' medians."""
    traced_path = os.path.join(out_dir, "%s-seed%s-trace1.json" % (workload, seed))
    if not os.path.exists(traced_path):
        return
    with open(traced_path) as f:
        traced_run = json.load(f)
    traced = traced_run["end_to_end"]
    untraced = []
    for path in sorted(glob.glob(os.path.join(out_dir, workload + "-seed*-trace0.json"))):
        with open(path) as f:
            run = json.load(f)
        # Only runs of the same length on the same sources compare.
        if (run.get("correct") and run.get("seconds") == traced_run["seconds"]
                and run.get("revision") == traced_run["revision"]):
            untraced.append(run["end_to_end"])
    if not untraced:
        print("trace_overhead none: no untraced %s run of this length and source "
              "revision in this checkout yet" % workload)
        return
    report = {"untraced_runs": len(untraced), "metrics": {}}
    for name, m in traced.items():
        base = statistics.median(u[name]["value"] for u in untraced if name in u)
        delta = m["value"] - base
        share = delta / base if base else 0.0
        report["metrics"][name] = {"traced": m["value"], "untraced_median": base,
                                   "delta": delta, "share": share, "unit": m["unit"]}
        print("trace_overhead %s traced=%.6g untraced_median=%.6g delta=%+.6g %s "
              "(%+.1f%%, %d untraced runs)"
              % (name, m["value"], base, delta, m["unit"], 100 * share, len(untraced)))
    with open(traced_path.replace(".json", "-overhead.json"), "w") as f:
        json.dump(report, f, indent=1)


def self_test():
    if not build(["commitbench", "commitbench_test"]):
        return 1
    test_bin = os.path.join(BUILD, "commitbench_test")
    if not os.path.exists(test_bin):
        log("self-test: GTest not found, checker cases not built")
        return 1
    failed = subprocess.run([test_bin]).returncode != 0
    out_dir = os.path.join(BUILD, "selftest")
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_once(workload, 1, 6, trace, out_dir, echo=False)
            ok = code == 0 and result is not None and json.loads(result)["correct"]
            log("self-test %s trace=%d: %s" % (workload, trace, "ok" if ok else "FAILED"))
            failed |= not ok
    log("self-test " + ("FAILED" if failed else "passed"))
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if not build(["commitbench"]):
        return 1
    code, result = run_once(args.workload, args.seed, args.seconds, args.trace, OUT)
    if result is None:
        return code
    if args.trace:
        trace_overhead(args.workload, args.seed, OUT)
    print(result, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
