#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs perfbench/run.sh once per seed and prints, for every metric, the median
of the runs and the spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median.
Run from the repository root:

    python3 perfbench/spread.py --workload rank-scale --seeds 1-10 --seconds 20
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    values = {}
    units = {}
    for seed in args.seeds:
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        res = json.loads(lines[-1])
        if not res["correct"]:
            sys.exit(f"seed {seed}: {res['failed']} of {res['attempted']} cells failed")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())
            if args.trace == 0), flush=True)

    print(f"{'metric':32} {'median':>12} {'unit':8} {'iqr/median':>10}  (n={len(args.seeds)})")
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        spread = 0.0
        if len(vs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med)
        print(f"{name:32} {med:12.6g} {units[name]:8} {spread:10.4f}")


if __name__ == "__main__":
    main()
