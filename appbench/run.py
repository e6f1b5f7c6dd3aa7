#!/usr/bin/env python3
"""Builds and runs the BriskStream application benchmark.

    python3 appbench/run.py --workload wc-saturated --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The harness (appbench/harness.cc) and
the brisk library are built from source with CMake into
$CARGO_TARGET_DIR/appbench (default .bench_build/appbench); later runs
reuse the build. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it carries the host/build fingerprint and diagnostics,
and every result is also appended to history.jsonl in the build
directory, which compare.py summarizes. See appbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "appbench")


def build():
    """Configures and builds the harness; returns its path or None."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bdir, "-j", jobs],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"appbench: build failed: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print("appbench: build failed", file=sys.stderr)
            return None
    exe = os.path.join(bdir, "appbench")
    return exe if os.access(exe, os.X_OK) else None


def cmake_cache(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """sha256 over src/ and appbench/ sources: identifies the code
    measured when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "appbench"):
        base = os.path.join(ROOT, top)
        for d, dirs, files in sorted(os.walk(base)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none"


def fingerprint(compiler_version):
    compiler = os.path.basename(cmake_cache("CMAKE_CXX_COMPILER"))
    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "compiler": f"{compiler} {compiler_version}".strip(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def run_harness(exe, args):
    """Runs the harness; returns its parsed result line or None."""
    bdir = build_dir()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--plan-file", os.path.join(bdir, f"plan-{args.workload}.txt")]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(bdir, f"trace-{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"appbench: harness did not finish: {e}", file=sys.stderr)
        return None
    lines = [l for l in done.stdout.splitlines() if l.startswith("{")]
    if done.returncode != 0 or not lines:
        print(f"appbench: harness exited {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    exe = build()
    if exe is None:
        return 1
    start = time.monotonic()
    result = run_harness(exe, args)
    if result is None:
        return 1
    info = result.pop("info", {})
    record = {
        "fingerprint": fingerprint(info.pop("compiler", "")),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "elapsed_s": round(time.monotonic() - start, 3),
        "info": info,
        "result": result,
    }
    with open(os.path.join(build_dir(), "history.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print("appbench: " + json.dumps({k: record[k] for k in
                                     ("fingerprint", "info")},
                                    sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
