#!/usr/bin/env python3
"""Run the repo benchmark, or compare two sets of its results.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload lookup_mapped --seed 1 --seconds 8 --trace 0

builds perfbench/ (CMake, into .bench_build/perfbench), runs the
hma_perfbench binary, appends the full record (host and run facts plus the result) to
.bench_build/results/results.jsonl and prints the result object as the
last line of stdout. A traced run (--trace 1) also writes its spans as
Chrome trace JSON under .bench_build/traces/. The exit code is non-zero
when the build fails, the binary fails, or any answer was wrong.

Compare two result sets (JSONL files written as above):

    python3 perfbench/run.py compare OLD.jsonl NEW.jsonl

prints one row per workload and end-to-end metric: each side's median and
quartiles, the change of the medians, and the metric's bound from
BENCHMARK.json. A metric is marked "unresolved" when either side's
quartile spread, as a share of its median, is wider than the bound.
The metrics a workload records without a gate follow, marked "recorded".
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "hma_perfbench")
RESULTS = os.path.join(".bench_build", "results", "results.jsonl")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure (once) and build the benchmark; False on failure."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose one of {names}", file=sys.stderr)
        return 2
    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                       timeout=170)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    facts = None
    result = None
    for line in lines:
        if line.startswith("FACTS "):
            facts = json.loads(line[len("FACTS "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if r.returncode not in (0, 1) or facts is None or result is None:
        print(f"perfbench: hma_perfbench failed (exit {r.returncode})",
              file=sys.stderr)
        return 1
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]
               or result["metrics"][m["name"]]["value"] is None]
    if missing:
        print(f"perfbench: hma_perfbench did not report {missing}",
              file=sys.stderr)
        return 1
    # The record keeps every metric the binary printed; the result line
    # carries exactly those BENCHMARK.json lists.
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "facts": facts,
              "all_metrics": result["metrics"]}
    result["metrics"] = {m["name"]: result["metrics"][m["name"]]
                         for m in wanted}
    record["result"] = result
    os.makedirs(os.path.dirname(RESULTS), exist_ok=True)
    with open(RESULTS, "a") as f:
        f.write(json.dumps(record) + "\n")
    print("FACTS " + json.dumps(facts))
    print(json.dumps(result))
    return 0 if result["correct"] and r.returncode == 0 else 1


def load_records(path):
    """{workload: {metric: [values]}} from a JSONL result set, gated and
    recorded metrics alike."""
    out = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("trace"):
                continue
            per = out.setdefault(rec["workload"], {})
            for name, m in rec["all_metrics"].items():
                if m["value"] is not None:
                    per.setdefault(name, []).append(m["value"])
    return out


def summary(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(old_path, new_path):
    spec = load_spec()
    old, new = load_records(old_path), load_records(new_path)
    print(f"{'workload':<16} {'metric':<22} {'old q1/med/q3':>32} "
          f"{'new q1/med/q3':>32} {'delta':>8} {'bound':>6}  verdict")
    gated = [m["name"] for m in spec["end_to_end"]]
    fmt = lambda s: f"{s[0]:.4g}/{s[1]:.4g}/{s[2]:.4g}"
    for w in spec["workloads"]:
        name = w["name"]
        a_all, b_all = old.get(name, {}), new.get(name, {})
        for m in spec["end_to_end"]:
            a, b = a_all.get(m["name"]), b_all.get(m["name"])
            if not a or not b:
                print(f"{name:<16} {m['name']:<22} {'(missing)':>32}")
                continue
            sa, sb = summary(a), summary(b)
            delta = (sb[1] - sa[1]) / sa[1] if sa[1] else float("nan")
            spread_a = (sa[2] - sa[0]) / sa[1] if sa[1] else 0.0
            spread_b = (sb[2] - sb[0]) / sb[1] if sb[1] else 0.0
            worse = delta > 0 if m["better"] == "lower" else delta < 0
            if max(spread_a, spread_b) > m["bound"]:
                verdict = "unresolved"
            elif worse and abs(delta) > m["bound"]:
                verdict = "regressed"
            elif not worse and abs(delta) > spread_a:
                verdict = "improved"
            else:
                verdict = "within bound"
            print(f"{name:<16} {m['name']:<22} {fmt(sa):>32} {fmt(sb):>32} "
                  f"{delta:>+8.2%} {m['bound']:>6.2f}  {verdict}")
        for metric in sorted(set(a_all) & set(b_all) - set(gated)):
            sa, sb = summary(a_all[metric]), summary(b_all[metric])
            delta = f"{(sb[1] - sa[1]) / sa[1]:+.2%}" if sa[1] else "-"
            print(f"{name:<16} {metric:<22} {fmt(sa):>32} {fmt(sb):>32} "
                  f"{delta:>8} {'-':>6}  recorded")
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: run.py compare OLD.jsonl NEW.jsonl", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
