"""Benchmark for fitting and serving: ``fit-local``, ``fit-fleet``, ``serve-mixed``.

Run from the repository root::

    python3 iotbench/run.py --workload fit-local --seed 1 --seconds 25 --trace 0

Builds every input from ``--seed``, measures for about ``--seconds``
seconds, checks every output against its reference, and prints, as its
last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the workload runs untraced and then again with spans
recorded around the program's public entry points, and the metrics are
the per-layer ones (spans are written to ``iotbench/out/``).  See
``iotbench/README.md`` for the metrics, the predictions and the records.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fit-local", "fit-fleet", "serve-mixed")
FLEET_WORKLOADS = ("fit-fleet", "serve-mixed")
#: Hard ceiling on one run: the watchdog interrupts a hung run so its
#: teardown still stops every worker process.
WATCHDOG_S = 170
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _interrupt(signum, frame):
    raise SystemExit(f"stopped by signal {signum}")


def cpu_times() -> list[int]:
    """Aggregate CPU jiffies from ``/proc/stat`` (user ... steal)."""
    with open("/proc/stat") as stat:
        return [int(field) for field in stat.readline().split()[1:9]]


def with_units(values: dict, traced: bool) -> dict:
    """Attach each metric's unit from ``BENCHMARK.json``.

    Every end-to-end metric must have been measured; a per-layer metric
    of a layer the workload never calls reads 0.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    unknown = set(values) - set(units)
    missing = set() if traced else set(units) - set(values)
    if unknown or missing:
        raise RuntimeError(
            f"metrics not in BENCHMARK.json: {sorted(unknown)}; "
            f"not measured: {sorted(missing)}"
        )
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One BLAS thread per process, inherited by the worker processes:
    # spinning BLAS thread pools contending for the run's cores make
    # timings swing by an order of magnitude from run to run.
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"
    # A fleet workload runs on one CPU, inherited by every thread and
    # worker process: it hops between processes for every request, and
    # on a shared VM each hop onto an idle vCPU waits for the hypervisor
    # to run it, so on two vCPUs its latencies tracked other tenants'
    # load (serve-mixed p99 7.4 ms at 1% CPU steal, 16 ms at 16%).  A
    # closed loop on one CPU never leaves it idle.  fit-local is one
    # thread with no hops; pinned, it only lost the freedom to move off
    # a vCPU that other tenants slow down.
    if args.workload in FLEET_WORKLOADS:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Teardown (worker processes included) runs on every exit path:
    # termination signals become SystemExit, a hang trips the watchdog.
    for signum in (signal.SIGTERM, signal.SIGHUP, signal.SIGALRM):
        signal.signal(signum, _interrupt)
    signal.alarm(WATCHDOG_S)

    import workloads

    cpu_before = cpu_times()
    try:
        if args.workload == "serve-mixed":
            report = workloads.run_serve(args.seed, args.seconds, bool(args.trace))
        else:
            report = workloads.run_fit(
                args.workload, args.seed, args.seconds, bool(args.trace)
            )
    except workloads.RunInvalid as error:
        print(f"run invalid: {error}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    spent = [after - before for after, before in zip(cpu_times(), cpu_before)]
    print(f"cpu steal during the run: {spent[7] / max(1, sum(spent)):.2%}")
    if args.trace:
        out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        report["recorder"].write(
            out, workload=args.workload, seed=args.seed, seconds=args.seconds
        )
        print(f"wrote {len(report['recorder'].spans)} spans to {out.relative_to(ROOT)}")
    metrics = with_units(report["layers" if args.trace else "metrics"], args.trace)
    attempted, failed = report["attempted"], report["failed"]
    print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted}); nproc {os.cpu_count()}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
