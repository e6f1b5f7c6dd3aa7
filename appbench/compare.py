#!/usr/bin/env python3
"""Summarizes appbench results from history.jsonl files.

    python3 appbench/compare.py HISTORY [--bench BENCHMARK.json]
    python3 appbench/compare.py BASE_HISTORY NEW_HISTORY [--bench ...]

One file: per fingerprint, workload and mode, each metric's median,
quartiles and spread (interquartile range as a share of the median);
end-to-end spreads above a third of the metric's bound are flagged.

Two files: per workload and end-to-end metric, the median of each
side and the change, judged against the bound. Results are compared
only when their host fingerprints (cores, CPU model, kernel, compiler,
build type) are identical; differing commits are what is compared.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict

HOST_KEYS = ("cores", "cpu_model", "kernel", "compiler", "build_type")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def host(rec):
    return tuple(rec["fingerprint"].get(k) for k in HOST_KEYS)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def series(records, trace):
    """{workload: {metric: [values]}} over successful runs."""
    out = defaultdict(lambda: defaultdict(list))
    for r in records:
        res = r["result"]
        if r["trace"] != trace or not res["correct"] or res["failed"]:
            continue
        for name, m in res["metrics"].items():
            out[r["workload"]][name].append(m["value"])
    return out


def bounds_of(bench_path):
    if not bench_path:
        return {}
    with open(bench_path) as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"]}


def summarize(records, bounds):
    groups = defaultdict(list)
    for r in records:
        fp = r["fingerprint"]
        groups[(host(r), fp.get("git_commit"), fp.get("source_sha256"),
                r["seconds"])].append(r)
    flagged = 0
    for (hostfp, commit, digest, seconds), recs in groups.items():
        print(f"== host {dict(zip(HOST_KEYS, hostfp))}")
        print(f"   commit {commit} source {digest}, {seconds} s runs")
        for trace in (0, 1):
            for workload, metrics in sorted(series(recs, trace).items()):
                print(f"-- {workload} (trace {trace})")
                for name, vals in metrics.items():
                    q1, med, q3 = quartiles(vals)
                    spread = (q3 - q1) / med if med else 0.0
                    note = ""
                    b = bounds.get(name)
                    if trace == 0 and b and name != "setup_s" and \
                            spread > b["bound"] / 3:
                        note = f"  <-- spread above bound/3 ({b['bound']})"
                        flagged += 1
                    print(f"   {name:48s} n={len(vals):2d} median={med:.6g} "
                          f"q1={q1:.6g} q3={q3:.6g} spread={spread:.3%}{note}")
        failed = [r for r in recs if r["result"]["failed"]]
        if failed:
            print(f"   {len(failed)} run(s) with failed output checks")
    return flagged


def compare(base, new, bounds):
    hosts = {host(r) for r in base + new}
    if len(hosts) != 1:
        print("refusing to compare: host fingerprints differ", file=sys.stderr)
        for h in hosts:
            print(f"   {dict(zip(HOST_KEYS, h))}", file=sys.stderr)
        return 1
    if len({r["seconds"] for r in base + new}) != 1:
        print("refusing to compare: run lengths differ", file=sys.stderr)
        return 1
    a, b = series(base, 0), series(new, 0)
    worse = 0
    for workload in sorted(set(a) & set(b)):
        print(f"-- {workload}")
        for name, spec in bounds.items():
            if name not in a[workload] or name not in b[workload]:
                continue
            ma = statistics.median(a[workload][name])
            mb = statistics.median(b[workload][name])
            change = (mb - ma) / ma if ma else 0.0
            regress = change if spec["better"] == "lower" else -change
            verdict = "WORSE" if regress > spec["bound"] else "ok"
            worse += verdict == "WORSE"
            print(f"   {name:20s} base={ma:.6g} new={mb:.6g} "
                  f"change={change:+.2%} bound={spec['bound']:.0%} {verdict}")
    return 1 if worse else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("history", nargs="+", help="one or two history.jsonl files")
    p.add_argument("--bench", help="BENCHMARK.json with the bounds")
    args = p.parse_args()
    bounds = bounds_of(args.bench)
    if len(args.history) == 1:
        return 1 if summarize(load(args.history[0]), bounds) else 0
    if len(args.history) == 2:
        if not bounds:
            p.error("comparing two histories needs --bench")
        return compare(load(args.history[0]), load(args.history[1]), bounds)
    p.error("give one or two history files")


if __name__ == "__main__":
    sys.exit(main())
