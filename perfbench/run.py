"""relayfl benchmark: one workload, one seed, one run.

Run from the root of a relayfl checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The relayfl package is imported from ``src``; nothing is installed.  With
``--trace 0`` the run reports the gated end-to-end metrics, with ``--trace 1``
the per-layer metrics (see README.md).  The runner times ``setup_s`` over
fresh set-up processes, then starts one fresh workload process with every
BLAS/OpenMP pool limited to one thread.  The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it and
``.perfbench_out/<workload>-s<seed>-t<trace>/result.json`` hold the full
record, machine information included.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
TIME_LIMIT_S = 170.0
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def workload_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def time_setup(config: Path, env: dict) -> tuple[float, list[float]]:
    """Median seconds from process start to a validated config, over fresh processes."""
    samples = []
    for _ in range(spec.SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), str(config)],
                              stdout=subprocess.PIPE, env=env, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            code = proc.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            raise BenchmarkError(f"set-up probe failed with exit code {code}")
    return statistics.median(samples), samples


def run(workload: spec.Workload, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    if not Path("src/relayfl/__init__.py").is_file():
        raise BenchmarkError("run from the root of a relayfl checkout (src/relayfl missing)")
    directory = Path(".perfbench_out") / f"{workload.name}-s{seed}-t{int(trace)}"
    directory.mkdir(parents=True, exist_ok=True)
    env = workload_env()
    extra = {}
    if not trace:
        config = directory / "setup_config.json"
        config.write_text(json.dumps(workload.config) + "\n", encoding="utf-8")
        extra["setup_s"], setup_samples = time_setup(config, env)
    command = [sys.executable, str(HERE / "workload.py"), "--workload", workload.name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
               "--dir", str(directory)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"workload process exceeded {TIME_LIMIT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"workload process failed with exit code {proc.returncode}")
    child = json.loads(lines[-1])
    measured = {**child["metrics"], **extra}
    record = child["record"]
    record["reported"] = measured
    if not trace:
        record["setup_samples_s"] = setup_samples
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    metrics = {m.name: {"value": measured[m.name], "unit": m.unit} for m in declared}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    result = {"correct": child["failed"] == 0 and finite, "attempted": child["attempted"],
              "failed": child["failed"], "metrics": metrics}
    (directory / "result.json").write_text(
        json.dumps({"result": result, "record": record}, indent=1) + "\n", encoding="utf-8")
    return {"result": result, "record": record}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one relayfl benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS_BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(spec.WORKLOADS_BY_NAME[args.workload], args.seed, args.seconds,
                  bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"record": out["record"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
