"""Spans around hivbrn's layer boundaries, recorded from outside the package.

``install`` replaces module attributes (for example
``hivbrn.reproduction.transmission_prob``) with wrappers that record one
span per call: name, parent span, op id, start, end and the number of array
elements passed in.  Spans stay in memory in flat arrays and are written out
once, at the end, by :meth:`Tracer.save`.  A layer's self time is its span's
duration minus the durations of its child spans.

Kernel spans are named after the module that calls the kernel
(``reproduction.transmission_prob`` sees 24 x 24 quadrature blocks,
``mc_oracle.transmission_prob`` flat Monte Carlo arrays); every other span is
named after the module that defines the function.
"""

from __future__ import annotations

import time
from array import array

import numpy as np


def _array_points(*args, **_):
    numeric = [a for a in args if isinstance(a, (np.ndarray, float, int))]
    return np.broadcast(*numeric).size if numeric else 0


def _samples(profile, spec, *_, **__):
    return spec.samples


def _no_points(*_, **__):
    return 0


KERNELS = ("transmission_prob", "activity_fraction", "survival_density")

# (module attribute, span name, points counter)
BOUNDARIES = (
    [(f"reproduction.{k}", f"reproduction.{k}", _array_points) for k in KERNELS]
    + [(f"mc_oracle.{k}", f"mc_oracle.{k}", _array_points) for k in KERNELS[:2]]
    + [
        ("reproduction.solve_plateau_point", "natural_history.solve_plateau_point", _no_points),
        ("reproduction.sex_integral", "reproduction.sex_integral", _no_points),
        ("reproduction.sensitivity_sweep", "reproduction.sensitivity_sweep", _no_points),
        ("reproduction.evaluate_brn", "reproduction.evaluate_brn", _no_points),
        ("mc_oracle.estimate_sex_integral", "mc_oracle.estimate_sex_integral", _samples),
        ("scenario.load_scenario", "scenario.load_scenario", _no_points),
        # the CLI's own references to the same functions
        ("cli.sex_integral", "reproduction.sex_integral", _no_points),
        ("cli.sensitivity_sweep", "reproduction.sensitivity_sweep", _no_points),
        ("cli.evaluate_brn", "reproduction.evaluate_brn", _no_points),
        ("cli.estimate_sex_integral", "mc_oracle.estimate_sex_integral", _samples),
        ("cli.load_scenario", "scenario.load_scenario", _no_points),
        ("cli.main", "cli.main", _no_points),
    ]
)
NAMES = sorted({name for _, name, _ in BOUNDARIES})


class Tracer:
    """In-memory span store; one instance per traced process."""

    def __init__(self):
        self.parent = array("q")
        self.name = array("b")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.points = array("q")
        self.current_op = -1
        self._stack = [-1]
        self._restore = []

    def wrap(self, module, attr: str, name: str, points=_no_points):
        original = getattr(module, attr)
        code = NAMES.index(name)

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.parent.append(self._stack[-1])
            self.name.append(code)
            self.op.append(self.current_op)
            self.points.append(points(*args, **kwargs))
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(time.perf_counter())
            try:
                return original(*args, **kwargs)
            finally:
                self.end[sid] = time.perf_counter()
                self._stack.pop()

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def install(self):
        import importlib

        # import every module before wrapping any attribute, so that a module
        # imported later cannot copy a wrapper and record its calls twice
        modules = {
            path.rsplit(".", 1)[0]: importlib.import_module(f"hivbrn.{path.rsplit('.', 1)[0]}")
            for path, _, _ in BOUNDARIES
        }
        for path, name, points in BOUNDARIES:
            module, attr = path.rsplit(".", 1)
            self.wrap(modules[module], attr, name, points)

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def arrays(self) -> dict:
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int8),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "points": np.frombuffer(self.points, dtype=np.int64),
        }

    def save(self, path):
        np.savez(path, names=np.array(NAMES), **self.arrays())


def load(path) -> dict:
    with np.load(path) as data:
        spans = {k: data[k] for k in data.files}
    if list(spans.pop("names")) != NAMES:
        raise ValueError(f"{path}: span names differ from this benchmark's")
    return spans


def summarize(span_sets: list[dict]) -> dict:
    """Per boundary: calls, points, self seconds and points per self second.

    Each span set comes from one process; self time is computed within it.
    """
    calls = np.zeros(len(NAMES))
    points = np.zeros(len(NAMES))
    self_s = np.zeros(len(NAMES))
    for spans in span_sets:
        n = spans["start"].size
        if n == 0:
            continue
        duration = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        child_time = np.bincount(
            spans["parent"][has_parent], weights=duration[has_parent], minlength=n
        )
        names = spans["name"].astype(np.int64)
        calls += np.bincount(names, minlength=len(NAMES))
        points += np.bincount(names, weights=spans["points"], minlength=len(NAMES))
        self_s += np.bincount(names, weights=duration - child_time, minlength=len(NAMES))
    out = {}
    for i, name in enumerate(NAMES):
        out[name] = {
            "calls": int(calls[i]),
            "points": int(points[i]),
            "self_s": float(self_s[i]),
            "pts_per_s": float(points[i] / self_s[i]) if self_s[i] > 0 else 0.0,
        }
    return out


def calls_in(span_sets: list[dict], name: str, ops: set) -> int:
    """Number of ``name`` spans recorded under the given op ids."""
    code = NAMES.index(name)
    ops = np.array(sorted(ops))
    return int(sum(np.isin(s["op"][s["name"] == code], ops).sum() for s in span_sets))
