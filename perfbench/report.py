"""Print every benchmark metric by name, with its unit, for each workload.

Run from the root of a relayfl checkout:

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

Writes BENCHMARK.json from spec.py, then runs run.py once untraced and once
traced per workload, one at a time, and prints the end-to-end metrics (gated
and reported-only) and the per-layer metrics.  A metric that does not apply
to a workload is printed as ``n/a``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent


def write_benchmark_json(path: Path = Path("BENCHMARK.json")) -> None:
    path.write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n", encoding="utf-8")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), **json.loads(lines[-2])}


def _line(metric: spec.Metric, values: dict, note: str = "") -> str:
    value = values.get(metric.name)
    shown = "n/a" if value is None else f"{value:.6g}"
    return f"  {metric.name:<44} {shown:>14} {metric.unit:<6} ({metric.better} is better){note}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--workload", action="append", choices=sorted(spec.WORKLOADS_BY_NAME),
                        help="repeatable; default: every workload in BENCHMARK.json")
    args = parser.parse_args(argv)
    write_benchmark_json()
    for name in args.workload or [w.name for w in spec.WORKLOADS]:
        untraced = run_once(name, args.seed, args.seconds, 0)
        traced = run_once(name, args.seed, args.seconds, 1)
        record = untraced["record"]
        machine = record["machine"]
        print(f"{name}  seed={args.seed}  correct={untraced['result']['correct']}"
              f"/{traced['result']['correct']}  nproc={machine['nproc']}  "
              f"blas={machine['blas']}  reference_kernel_ms={record['reference_kernel_ms']}")
        print(" end to end (gated)")
        for metric in spec.END_TO_END:
            print(_line(metric, record["reported"], f"  bound {metric.bound}"))
        print(" end to end (reported)")
        for metric in spec.END_TO_END_REPORTED:
            print(_line(metric, record["reported"]))
        print(" per layer")
        tails = traced["record"]["tail_percentiles"]
        for metric in spec.PER_LAYER:
            tail = tails.get(metric.name)
            note = (f"  p{tail['percentile']:.1f} of {tail['samples']} calls"
                    if tail else "")
            print(_line(metric, traced["record"]["reported"], note))
    return 0


if __name__ == "__main__":
    sys.exit(main())
