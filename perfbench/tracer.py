"""Span tracing of relayfl from outside the package.

``Tracer.install`` replaces every public function of the traced modules with a
wrapper that records a span (name, start, end, parent span).  A function is
replaced under every module attribute that refers to it, so callers that
imported it by name (``optimizer.relay_mse``, ``cli.write_csv``) see the
wrapper too.  ``uninstall`` restores the originals.  Spans are kept in flat
arrays and reduced only by ``function_stats`` after the traced calls end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from dataclasses import dataclass

import numpy as np

# Traced modules and the layer each one counts towards.
MODULE_LAYERS = {
    "geometry": "geometry",
    "aggregation": "aggregation",
    "optimizer": "optimizer",
    "single_relay": "single_relay",
    "federated": "federated",
    "experiment": "experiment",
    "cli": "experiment",
}


@dataclass
class SolveRecord:
    """One call of optimizer.solve: its bound arguments, its result, and its trial."""

    arguments: dict
    config: object
    trace: object
    trial: tuple | None


@dataclass
class FunctionStats:
    calls: int
    busy_s: float
    self_s: float
    durations_s: np.ndarray


class Tracer:
    def __init__(self):
        self._modules = {name: importlib.import_module(f"relayfl.{name}")
                         for name in MODULE_LAYERS}
        self.names: list[str] = []
        self._span_name = array("q")
        self._span_parent = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.solves: list[SolveRecord] = []
        self._trial: tuple | None = None

    def install(self) -> None:
        if self.names:
            raise RuntimeError("a Tracer records one traced run; make a new one")
        wrappers = {}
        for module_name, module in self._modules.items():
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrappers[fn] = self._wrap(f"{module_name}.{attr}", fn)
        for module in self._modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        span_name, span_parent = self._span_name, self._span_parent
        span_start, span_end = self._span_start, self._span_end
        stack = self._stack
        perf_counter = time.perf_counter
        signature = inspect.signature(fn)
        on_enter = on_return = None
        if name == "experiment.run_trial":
            def on_enter(args, kwargs):
                bound = signature.bind(*args, **kwargs).arguments
                self._trial = (bound["sweep_index"], bound["trial"])
        elif name == "optimizer.solve":
            def on_return(args, kwargs, result):
                config, trace = result
                self.solves.append(SolveRecord(
                    signature.bind(*args, **kwargs).arguments, config, trace, self._trial))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(args, kwargs)
            index = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span_start[index] = start
                span_end[index] = end
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def function_stats(self) -> dict[str, FunctionStats]:
        """Calls, busy time, self time and per-call durations of every traced function.

        Self time is a span's duration minus the durations of its child spans;
        children run inside their parent, one at a time, so their durations
        are the part of the parent's interval they cover.
        """
        names = np.frombuffer(self._span_name, dtype=np.int64)
        parents = np.frombuffer(self._span_parent, dtype=np.int64)
        duration = (np.frombuffer(self._span_end, dtype=np.float64)
                    - np.frombuffer(self._span_start, dtype=np.float64))
        covered = np.zeros_like(duration)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], duration[has_parent])
        own = duration - covered
        count = len(self.names)
        calls = np.bincount(names, minlength=count)
        busy = np.bincount(names, weights=duration, minlength=count)
        self_time = np.bincount(names, weights=own, minlength=count)
        order = np.argsort(names, kind="stable")
        groups = np.split(duration[order], np.cumsum(calls)[:-1])
        return {name: FunctionStats(int(calls[i]), float(busy[i]), float(self_time[i]),
                                    groups[i])
                for i, name in enumerate(self.names)}


def layer_of(function: str) -> str:
    return MODULE_LAYERS[function.split(".", 1)[0]]


def tail_percentile(samples: np.ndarray) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least 10 samples beyond it.

    With n > 10 sorted samples that is the (n - 10)-th smallest, at percentile
    100 (n - 10) / n.  With 10 or fewer samples no percentile qualifies and
    (0.0, 0.0) is returned.
    """
    n = samples.size
    if n <= 10:
        return 0.0, 0.0
    return 100.0 * (n - 10) / n, float(np.sort(samples)[n - 11])
