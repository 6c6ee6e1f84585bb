#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises every metric.

    python3 perfbench/repeat.py --workload serve-mix --seeds 1-10 \
        --seconds 20 [--trace 0|1]

For each metric it prints the median, the first and third quartiles (as
Python's statistics.quantiles(values, n=4) gives them), the spread
(q3 - q1) / median, and the sample count, next to the metric's bound in
BENCHMARK.json. It records nproc, the commit (when run inside a git
checkout), the rustc version and the seeds, and writes the whole summary
to perfbench-out/summary-<workload>-trace<t>.json. Exits nonzero if any
run fails.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(spec: str) -> list:
    if "-" in spec:
        lo, hi = spec.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def tool(cmd: list) -> str:
    try:
        began = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True, check=False)
        took = time.monotonic() - began
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values, units = {}, {}
    seeds = seeds_of(a.seeds)
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
               "--seed", str(seed), "--seconds", a.seconds, "--trace", a.trace]
        began = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True, check=False)
        took = time.monotonic() - began
        if out.returncode != 0:
            sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        steal = re.search(r"cpu steal during run: ([0-9.]+)%", out.stdout)
        line = [f"seed {seed} ({took:.0f} s, steal {steal.group(1) if steal else '?'}%):"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            line.append(f"{name}={m['value']:.4g}")
        print(" ".join(line), flush=True)
    summary = {
        "workload": a.workload, "seconds": a.seconds, "trace": a.trace, "seeds": seeds,
        "nproc": os.cpu_count(), "commit": tool(["git", "rev-parse", "HEAD"]),
        "rustc": tool(["rustc", "--version"]), "metrics": {},
    }
    print(f"{'metric':<26} {'unit':<6} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) >= 2 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        summary["metrics"][name] = {"unit": units[name], "n": len(v), "median": med,
                                    "q1": q1, "q3": q3, "spread": spread, "values": v}
        print(f"{name:<26} {units[name]:<6} {len(v):>3} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
              f"{spread:>7.3f} {'' if bound is None else bound:>6}")
    os.makedirs("perfbench-out", exist_ok=True)
    path = f"perfbench-out/summary-{a.workload}-trace{a.trace}.json"
    with open(path, "w") as f:
        json.dump(summary, f, indent=1)
    print(f"nproc {summary['nproc']}  commit {summary['commit']}  {summary['rustc']}  -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
