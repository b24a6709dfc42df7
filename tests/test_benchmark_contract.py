"""The package names the benchmark's per-layer metrics rely on.

perfbench/spec.py declares per-layer metrics such as
``optimizer.update_device_scalars.busy_s``; the tracer produces one only while
``relayfl.optimizer.update_device_scalars`` is a public function defined in
that module.  It also binds the arguments of ``optimizer.solve`` by name, and
those of ``experiment.run_trial``, whose ``sweep_index`` and ``trial`` label
each traced solve.  A refactor that renames or drops one would otherwise show
up only when ``perfbench/run.py --trace 1`` runs.  spec.py is read, never
edited.
"""

import importlib
import inspect
import runpy
from pathlib import Path

import pytest

from relayfl import experiment, optimizer

SPEC_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spec.py"


def traced_functions():
    """(module, function) of every per-layer metric named module.function.stat."""
    per_layer = runpy.run_path(str(SPEC_PATH))["PER_LAYER"]
    names = sorted({tuple(m.name.split(".")[:2]) for m in per_layer if m.name.count(".") == 2})
    assert names, "no module.function.stat metric in perfbench/spec.py"
    return names


@pytest.mark.parametrize("module, function", traced_functions())
def test_traced_function_is_public_in_its_module(module, function):
    fn = getattr(importlib.import_module(f"relayfl.{module}"), function, None)
    assert not function.startswith("_")
    assert inspect.isfunction(fn), f"relayfl.{module}.{function} is not a function"
    assert fn.__module__ == f"relayfl.{module}", f"{function} is defined elsewhere"


@pytest.mark.parametrize("fn, names", [
    (optimizer.solve, ["channels", "weights", "budget", "solver_cfg", "variant", "warm_start"]),
    (experiment.run_trial, ["config", "sweep_index", "trial"]),
], ids=["optimizer.solve", "experiment.run_trial"])
def test_solve_binds_the_traced_arguments_by_name(fn, names):
    assert list(inspect.signature(fn).parameters) == names
