"""Steadiness and parent/change report for the benchmark.

Repeats each workload with a new ``--seed`` per run, each run lasting
``BENCHMARK.json``'s ``run_seconds``, and prints, for every end-to-end
metric, the median, the quartiles (as ``statistics.quantiles(values,
n=4)`` gives them) and the spread — interquartile distance over median
— against the metric's bound in ``BENCHMARK.json``.  A run that exits
without a result is retried with the same seed, twice at most; a seed
refused every time is listed and left out of the figures.  Run from the
repository root::

    python3 iotbench/steady.py --runs 10
    python3 iotbench/steady.py --workloads serve-mixed --runs 5 --first-seed 100

With ``--against PARENT`` (the root of another checkout) each seed runs
on both trees, alternating which goes first, and the report adds the
parent's median and quartiles, the pairs the change won, and the
verdict for each metric: ``gain`` when the change won at least nine
tenths of the pairs and the medians differ by more than the parent's
interquartile distance, ``regression`` when the change's median is
worse than the parent's by more than the bound, ``unresolved`` when
the parent's spread is wider than the bound, otherwise ``same``.  A
seed refused on either tree is left out of both.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEAL_PREFIX = "cpu steal during the run:"
ATTEMPTS = 3


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict | None:
    """One benchmark run in ``root``: its result line, parsed, or None
    when every attempt with this seed exited without a result."""
    command = [
        sys.executable, "iotbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    for attempt in range(1, ATTEMPTS + 1):
        try:
            done = subprocess.run(
                command, cwd=root, capture_output=True, text=True, timeout=300
            )
        except subprocess.TimeoutExpired:
            print(f"{workload} seed {seed} in {root} timed out "
                  f"(attempt {attempt})", file=sys.stderr)
            continue
        lines = done.stdout.strip().splitlines()
        if done.returncode == 0 and lines:
            result = json.loads(lines[-1])
            for line in lines:
                if line.startswith(STEAL_PREFIX):
                    result["steal"] = line[len(STEAL_PREFIX):].strip()
            return result
        print(f"{workload} seed {seed} in {root} exited {done.returncode} "
              f"(attempt {attempt}): {done.stderr.strip()[-500:]}",
              file=sys.stderr)
    return None


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
    }


def verdict(parent, change, wins, pairs, metric) -> str:
    lower = metric["better"] == "lower"
    worse = change["median"] - parent["median"]
    if not lower:
        worse = -worse
    if worse > metric["bound"] * parent["median"]:
        return "regression"
    if wins >= 0.9 * pairs and -worse > parent["q3"] - parent["q1"]:
        return "gain"
    if parent["spread"] > metric["bound"]:
        return "unresolved"
    return "same"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("quartiles need at least two runs")
    seconds = spec["run_seconds"]

    for workload in args.workloads.split(","):
        if workload not in names:
            parser.error(f"unknown workload {workload!r}")
        change_runs, parent_runs, refused = [], [], []
        for index in range(args.runs):
            seed = args.first_seed + index
            roots = [ROOT] if args.against is None else [ROOT, args.against]
            if index % 2:
                roots.reverse()
            results = {root: run_once(root, workload, seed, seconds) for root in roots}
            if None in results.values():
                refused.append(seed)
                continue
            change_runs.append(results[ROOT])
            if args.against is not None:
                parent_runs.append(results[args.against])
        failed = sum(run["failed"] for run in change_runs + parent_runs)
        kept = len(change_runs)
        print(f"\n{workload}: {kept} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}"
              + (f" less refused {refused}" if refused else "")
              + f", {failed} failed operations; cpu steal per run: "
              + " ".join(run.get("steal", "?") for run in change_runs))
        if kept < 2:
            print("  too few runs for quartiles")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [run["metrics"][name]["value"] for run in change_runs]
            row = summary(values)
            line = (f"  {name:<18} median {row['median']:.6g}  q1 {row['q1']:.6g}"
                    f"  q3 {row['q3']:.6g}  spread {row['spread']:.4f}"
                    f"  bound {metric['bound']}  "
                    f"{'ok' if row['spread'] <= metric['bound'] else 'WIDE'}"
                    f" ({row['spread'] / metric['bound']:.2f} of bound)")
            if parent_runs:
                parent_values = [run["metrics"][name]["value"] for run in parent_runs]
                parent = summary(parent_values)
                lower = metric["better"] == "lower"
                wins = sum(
                    (c < p) if lower else (c > p)
                    for c, p in zip(values, parent_values)
                )
                outcome = verdict(parent, row, wins, kept, metric)
                line += (f"\n  {'':<18} parent median {parent['median']:.6g}"
                         f"  q1 {parent['q1']:.6g}  q3 {parent['q3']:.6g};"
                         f" change won {wins}/{kept}: {outcome}")
            print(line)
            print(f"  {'':<18} values " + " ".join(f"{v:.6g}" for v in values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
