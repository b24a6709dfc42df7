"""SHA-256 prefixes of the CSVs written for the reference configs.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 tools/csv_digests.py [NAME ...]

Each config runs through ``relayfl.cli.main`` with no ``--seed`` and one BLAS
thread (the hashes depend on the OpenBLAS thread count), and one line
``name sha256[:12]`` is printed per config.  A refactor that must keep the
output byte-identical keeps every line; point PYTHONPATH at another
checkout's ``src`` to print that checkout's table.  The first four configs
are the benchmark workload documents of ``perfbench/spec.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("line-k20-n1", "fl-k100-norelay", "theorem-k20-hisnr", "cell-k100-n4")
ZERO_RELAY_SCHEMES = ("proposed", "relay_only", "no_relay", "error_free")


def reference_configs() -> dict[str, tuple[str, dict]]:
    """Name -> (relayfl subcommand, config document)."""
    sys.path.insert(0, str(PERFBENCH))
    import spec

    configs = {name: (spec.WORKLOADS_BY_NAME[name].command, spec.WORKLOADS_BY_NAME[name].config)
               for name in WORKLOADS}
    configs["trials-3"] = ("run", {"trials": 3})
    configs["relay-only-100dbm"] = ("run", {"scheme": "relay_only", "trials": 2,
                                            "budget": {"noise_dbm": -100.0},
                                            "fl": {"total_blocks": 20}})
    configs["csi-kappa-0.5"] = ("run", {"trials": 2, "csi_kappa": 0.5,
                                        "fl": {"total_blocks": 8}})
    for scheme in ZERO_RELAY_SCHEMES:
        configs[f"zero-relay-cell-{scheme}"] = ("run", {
            "scheme": scheme, "num_relays": 0, "trials": 2, "layout": {"kind": "cell"},
            "fl": {"total_blocks": 8}})
    configs["num-relays-0-2"] = ("run", {"trials": 2, "layout": {"kind": "cell"},
                                         "sweep": {"key": "num_relays", "values": [0, 2]},
                                         "fl": {"total_blocks": 8}})
    # The only config whose device updates reach the Levenberg-Marquardt damping.
    configs["cell-n4-70dbm"] = ("run", {"num_relays": 4, "trials": 2, "layout": {"kind": "cell"},
                                        "budget": {"noise_dbm": -70.0, "pr_watts": 0.01},
                                        "fl": {"total_blocks": 8}})
    # The only config whose solves end a sweep with the device QCQP gap above
    # optimizer.QCQP_TOL (one BLAS thread: sweep 7 of the second round's solve).
    configs["qcqp-gap-cell-n4"] = ("run", {"num_relays": 4, "trials": 1, "master_seed": 11,
                                           "layout": {"kind": "cell"},
                                           "budget": {"noise_dbm": -70.0, "pr_watts": 0.01},
                                           "fl": {"total_blocks": 4}})
    # The only config whose local steps multiply by x and then by x^T (tau >= 2
    # with 240 samples per device, at least 2 (d + 1) = 42).
    configs["plain-local-steps"] = ("run", {"num_devices": 2, "trials": 1,
                                            "fl": {"tau": 3, "total_blocks": 4}})
    # The only one-relay config whose device updates silence phase 1 (at +100
    # dBm the relay's whole budget is forwarded noise) and then find the
    # relay silent from then on (|b|^2 = 0), bounding nothing.
    configs["silent-relay-100dbm"] = ("run", {"trials": 1, "budget": {"noise_dbm": 100.0},
                                              "fl": {"total_blocks": 4}})
    # The same in a cell: the only config whose device updates drop silent
    # relays from the caps of several.
    configs["silent-relays-cell-100dbm"] = ("run", {"num_relays": 2, "trials": 1,
                                                    "layout": {"kind": "cell"},
                                                    "budget": {"noise_dbm": 100.0},
                                                    "fl": {"total_blocks": 4}})
    return configs


def write_csvs(names, out_dir: Path, report) -> int:
    """Run each named config (all when `names` is empty) into out_dir/<name>.csv.

    Calls ``report(name, path)`` after each CSV is written; returns the first
    nonzero exit code, or 0.
    """
    configs = reference_configs()
    unknown = sorted(set(names) - set(configs))
    if unknown:
        print(f"unknown config {unknown[0]}; known: {', '.join(configs)}", file=sys.stderr)
        return 1
    # Before NumPy loads OpenBLAS, which reads the thread count once.
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    from relayfl import cli

    config = Path(out_dir, "config.json")
    for name in names or configs:
        command, document = configs[name]
        config.write_text(json.dumps(document))
        out = Path(out_dir, f"{name}.csv")
        code = cli.main([command, "--config", str(config), "--out", str(out)])
        if code != 0:
            print(f"{name}: relayfl {command} exited {code}", file=sys.stderr)
            return code
        report(name, out)
    return 0


def main(names: list[str]) -> int:
    def digest(name, path):
        print(name, hashlib.sha256(path.read_bytes()).hexdigest()[:12], flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        return write_csvs(names, Path(tmp), digest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
