#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seeds 1,2,3 [--seconds S] [--out FILE]
    python3 perfbench/run.py --selftest

Run from the repository root. The VM is compiled from ../src into
$CARGO_TARGET_DIR (default .bench_build); build output goes to stderr so the
last line of stdout is the benchmark's JSON result. The self-tests run
before every benchmark run. Exits non-zero when the build, a self-test or
any response check fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve-donate", "serve-graph", "spec-compute"]
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench; returns the build directory."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    bdir = os.path.join(os.path.abspath(target), "perfbench-" + BUILD_TYPE.lower())
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return bdir


def selftest(bdir):
    out = subprocess.run([os.path.join(bdir, "perfbench_selftest")],
                         capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(out.stdout + out.stderr)
    return out.returncode == 0


def provenance(build_type):
    sha = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    # The checkout the benchmark runs in need not be a git repository, so
    # also fingerprint the sources that were built.
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for f in sorted(filenames):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": sha, "tree_sha256": h.hexdigest(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "build_type": build_type,
            "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def run_one(bdir, workload, seed, seconds, trace, spans=None, echo=True):
    """Runs one benchmark process; returns (exit code, detail dict, last line)."""
    cmd = [os.path.join(bdir, "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return 1, None, None
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    detail, last = None, None
    for line in lines:
        if line.startswith("detail: "):
            detail = json.loads(line[len("detail: "):])
    if lines and lines[-1].startswith("{"):
        last = lines[-1]
        result = json.loads(last)
        if detail is not None:
            detail.update(correct=result["correct"], attempted=result["attempted"],
                          failed=result["failed"])
    if echo:
        for line in lines[:-1]:
            if not line.startswith("detail: "):
                print(line)
    return out.returncode, detail, last


def print_table(runs):
    for r in runs:
        print("\n%s seed %s trace %s: correct=%s attempted=%d failed=%d fail_ratio=%.6f" % (
            r["workload"], r["seed"], r["trace"], r["correct"], r["attempted"], r["failed"],
            r["fail_ratio"]))
        metrics = dict(r["metrics"])
        # The same figures under their familiar names.
        if r["workload"] == "spec-compute" and "service_geomean_us" in metrics:
            g = metrics["service_geomean_us"]
            metrics["spec_geomean_ms"] = dict(g, value=g["value"] / 1000, unit="ms")
        # The open-loop request latency, from the due time (unbounded).
        for name in ("req_p50_us", "req_p99_us"):
            if "loadgen." + name in metrics:
                metrics[name] = metrics["loadgen." + name]
        for name, m in metrics.items():
            tail = ("  n=%d, p%g=%.4g" % (m["n"], m["tail_p"], m["tail"])) if m["n"] else ""
            print("  %-28s %16.6g %-6s%s" % (name, m["value"], m["unit"], tail))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seeds", help="comma-separated seeds for --all")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spans", help="write the first requests' spans (TSV) here")
    ap.add_argument("--all", action="store_true",
                    help="every workload, traced and untraced, with a summary")
    ap.add_argument("--selftest", action="store_true", help="only build and self-test")
    ap.add_argument("--out", help="write the result set (JSON) here")
    args = ap.parse_args()
    if not (args.all or args.selftest or args.workload):
        ap.error("give --workload, --all or --selftest")

    try:
        bdir = build()
    except (OSError, subprocess.SubprocessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1
    if not selftest(bdir):
        log("perfbench: self-tests failed")
        return 1
    if args.selftest:
        return 0

    runs, worst = [], 0
    if args.all:
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [args.seed]
        for seed in seeds:
            for w in WORKLOADS:
                for trace in (0, 1):
                    code, detail, _ = run_one(bdir, w, seed, args.seconds, trace, echo=False)
                    worst = max(worst, code if code else 0, 0 if detail else 1)
                    if detail:
                        runs.append(detail)
        print_table(runs)
        print("\ntracing overhead (trace.overhead_p50_us = traced - untraced req p50):")
        for r in runs:
            if r["trace"] == 1:
                m = r["metrics"]["trace.overhead_p50_us"]
                print("  %-14s seed %-4s %+.3f us" % (r["workload"], r["seed"], m["value"]))
    else:
        code, detail, last = run_one(bdir, args.workload, args.seed, args.seconds, args.trace,
                                     spans=args.spans)
        worst = code
        if detail:
            runs.append(detail)
    if args.out and runs:
        with open(args.out, "w") as fh:
            json.dump({"provenance": provenance(BUILD_TYPE), "runs": runs}, fh, indent=1)
    print("provenance: " + json.dumps(provenance(BUILD_TYPE)))
    if args.all:
        print("result: %s" % ("ok" if worst == 0 else "FAILED (a check failed)"))
    elif last is not None:
        print(last)  # the contract line: last line of stdout
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
