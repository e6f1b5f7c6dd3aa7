#!/usr/bin/env python3
"""Fast self-test of the application benchmark (about a minute).

    python3 appbench/selftest.py

Checks that the pacer stamps tuple i at t0 + i/rate and reports lag
when starved (fake-clock unit test in the harness), that the metric
catalogue matches BENCHMARK.json, and that every workload runs briefly
in both modes with its output checks passing and every named metric
printed with its unit. Exits 0 when everything holds.
"""

import json
import math
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (sibling module)

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def main():
    exe = run.build()
    if exe is None:
        print("FAIL build")
        return 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    pacer = subprocess.run([exe, "--selftest-pacer"], capture_output=True,
                           text=True)
    check(pacer.returncode == 0, "pacer: due-time stamps, lag, replica split")

    listed = json.loads(subprocess.check_output([exe, "--list-metrics"]))
    for kind in ("end_to_end", "per_layer"):
        want = {m["name"]: m["unit"] for m in bench[kind]}
        got = {m["name"]: m["unit"] for m in listed[kind]}
        check(want == got, f"{kind} catalogue matches BENCHMARK.json")
    check(listed["workloads"] == [w["name"] for w in bench["workloads"]],
          "workloads match BENCHMARK.json")

    bdir = run.build_dir()
    for workload in listed["workloads"]:
        for trace in (0, 1):
            kind = "per_layer" if trace else "end_to_end"
            trace_file = os.path.join(bdir, f"selftest-trace-{workload}.json")
            cmd = [exe, "--workload", workload, "--seed", "7", "--seconds",
                   "1", "--trace", str(trace), "--plan-file",
                   os.path.join(bdir, f"selftest-plan-{workload}.txt"),
                   "--trace-out", trace_file]
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=run.RUN_TIMEOUT_S)
            tag = f"{workload} trace={trace}"
            lines = [l for l in done.stdout.splitlines() if l.startswith("{")]
            check(done.returncode == 0 and lines, f"{tag}: runs")
            if not lines:
                continue
            res = json.loads(lines[-1])
            check(res["correct"] and res["failed"] == 0 and
                  res["attempted"] >= 1,
                  f"{tag}: output checks pass ({res['attempted']} runs)")
            want = {m["name"]: m["unit"] for m in bench[kind]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{tag}: every metric printed with its unit")
            check(all(math.isfinite(v["value"])
                      for v in res["metrics"].values()),
                  f"{tag}: values are finite")
            if trace:
                ratio = res["metrics"]["api.vectorized_ratio"]["value"]
                if workload.startswith("lr"):
                    check(ratio == 0, f"{tag}: LR runs interpreted")
                else:
                    check(ratio > 0, f"{tag}: WC runs compiled pipelines")
                with open(trace_file) as f:
                    events = json.load(f)["traceEvents"]
                phases = {e["ph"] for e in events}
                check({"X", "C"} <= phases,
                      f"{tag}: trace has spans and counters")

    # The wrapper the benchmark command runs: its last line has exactly
    # four keys.
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         listed["workloads"][0], "--seed", "3", "--seconds", "1",
         "--trace", "0"], capture_output=True, text=True,
        timeout=run.RUN_TIMEOUT_S, cwd=run.ROOT)
    last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    try:
        keys = sorted(json.loads(last))
    except ValueError:
        keys = []
    check(done.returncode == 0 and
          keys == ["attempted", "correct", "failed", "metrics"],
          "run.py prints the four-key result as its last line")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
