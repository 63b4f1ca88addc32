"""Steadiness check: how much each end-to-end metric moves between runs.

    python3 perfbench/steady.py [--workloads NAME ...] [--runs 10]
        [--seconds S] [--sets 1]

Runs ``perfbench/run.py`` once per seed (seeds 1 to ``runs``) for each
workload, one run at a time, and prints per end-to-end metric the
median, the quartiles (``statistics.quantiles(n=4)``) and the spread
``(Q3 - Q1) / median`` next to the metric's bound from ``BENCHMARK.json``
and a third of it, the target the bounds were set against.  ``setup_s`` is
listed but has no spread limit.  With ``--sets 2`` the same seeds run twice
and the drift of the second median against the first is printed as well,
with the share of failed operations of each set.  The wall time of a whole
run (inputs, set-up, checks) is printed too: the runs of every workload
must fit the benchmark's time budget.  Exits 1 when a spread or
a drift is over its bound or the failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    """One run's result line, with its wall time in seconds added."""
    start = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be at least 4 to have quartiles")

    seeds = range(1, args.runs + 1)
    ok = True
    for workload in args.workloads:
        sets = [[run_once(workload, seed, args.seconds) for seed in seeds]
                for _ in range(args.sets)]
        print(f"{workload}: {args.runs} runs x {args.sets} set(s), "
              f"{args.seconds} s each")
        shares = []
        for runs in sets:
            share = {(r["failed"], r["attempted"]) for r in runs}
            shares.append(sorted({f / a for f, a in share}))
            if not all(r["correct"] for r in runs):
                ok = False
                print("  a run reported correct=false")
        print(f"  failed share per set: {shares}")
        walls = [r["wall_s"] for runs in sets for r in runs]
        print(f"  wall per run: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        if len(shares) == 2 and shares[0] != shares[1]:
            ok = False
        print(f"  {'metric':24s}{'median':>12s}{'Q1':>12s}{'Q3':>12s}"
              f"{'spread':>9s}{'bound':>7s}{'bound/3':>9s}"
              + (f"{'drift':>9s}" if args.sets == 2 else ""))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [spread([r["metrics"][name]["value"] for r in runs])
                     for runs in sets]
            median, q1, q3, rel = stats[0]
            limit = name != "setup_s"
            flag = ""
            if limit and rel > bound:
                flag, ok = " OVER BOUND", False
            elif limit and rel > bound / 3:
                flag = " over a third"
            line = (f"  {name:24s}{median:12.4f}{q1:12.4f}{q3:12.4f}"
                    f"{rel:9.3f}{bound:7.2f}{bound / 3:9.3f}")
            if args.sets == 2:
                second = stats[1][0]
                worse = (second - median) / median
                if metric["better"] == "higher":
                    worse = -worse
                line += f"{worse:9.3f}"
                if worse > bound:
                    flag, ok = flag + " DRIFT OVER BOUND", False
            print(line + flag)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
