"""Spans around the public functions of weakrig's layers, recorded from the
benchmark's side of the package boundary.

``Tracer.install`` wraps every public function a layer module defines, and
the evaluation methods of ``ControlEvaluator``. Modules import functions by
name, so it rebinds each name that points at an original in every loaded
weakrig module, the package namespace included. Spans stay in memory as
(name, start, end, parent) columns until ``save`` writes them out.
``layer_metrics`` turns them into the per-layer table; a span's self time is
its duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("graphs", "linalg", "framework", "triples", "shape", "control",
          "simulate", "fileio", "cli")
EVALUATOR_METHODS = ("residuals", "cost", "velocity", "velocity_and_residuals")
MATRIX_BUILDERS = frozenset({"framework.weak_rigidity_matrix", "framework.rigidity_matrix",
                             "framework.edge_weak_rigidity_matrix"})

# Span groups behind the named per-layer metrics.
GROUPS = {
    "control.eig": ("control.classify_stability", "control.sort_eigenvalues"),
    "simulate.post": ("simulate.monitor_invariants", "simulate.convergence_rate"),
    "framework.matrix": tuple(sorted(MATRIX_BUILDERS)),
    "linalg.rank": ("linalg.numerical_rank",),
    "triples.full_set": ("triples.full_triple_set",),
    "triples.construct": ("triples.min_iwr_spanning_tree", "triples.minimal_triple_set"),
    "triples.graphical": ("triples.check_planar_graphical_condition",
                          "triples.collinearity_defects"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.matrix_bytes = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def current(self) -> int:
        return self._stack[-1]

    @contextmanager
    def span(self, name: str):
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        try:
            yield idx
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._id(name)
        names, parents, starts, ends, stack = (self.name, self.parent, self.start,
                                               self.end, self._stack)
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        if name not in MATRIX_BUILDERS:
            return traced

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = traced(*args, **kwargs)
            self.matrix_bytes += out.size * out.itemsize  # computed from the shape
            return out

        return counted

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"weakrig.{layer}")
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "weakrig" or key.startswith("weakrig."))]
        for layer in LAYERS:
            mod = sys.modules[f"weakrig.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn)
                for owner in modules:
                    for bound, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, bound, traced)
        evaluator = sys.modules["weakrig.control"].ControlEvaluator
        for meth in EVALUATOR_METHODS:
            self._patch(evaluator, meth,
                        self.wrap(f"control.ControlEvaluator.{meth}", vars(evaluator)[meth]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def columns(self):
        return (np.array(self.name, dtype=np.int32), np.array(self.parent, dtype=np.int64),
                np.array(self.start, dtype=float), np.array(self.end, dtype=float))

    def save(self, path) -> None:
        name, parent, start, end = self.columns()
        np.savez_compressed(path, names=np.array(self.names, dtype=str), name=name,
                            parent=parent, start=start, end=end,
                            matrix_bytes=np.array(self.matrix_bytes))

    def merge(self, path, parent: int) -> None:
        """Append spans another process saved, hanging its roots under ``parent``."""
        with np.load(path) as data:
            remap = np.array([self._id(str(n)) for n in data["names"]], dtype=np.int64)
            offset = len(self.start)
            child_parent = data["parent"]
            self.name.extend(remap[data["name"]].astype(np.int32).tolist())
            self.parent.extend(np.where(child_parent < 0, parent,
                                        child_parent + offset).tolist())
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())
            self.matrix_bytes += int(data["matrix_bytes"])


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - covered


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-round means of the layer counters and self times."""
    name, parent, start, end = tracer.columns()
    dur = end - start
    own = self_times(parent, dur)
    k = len(tracer.names)
    calls = np.bincount(name, minlength=k)
    self_by = np.bincount(name, weights=own, minlength=k)
    dur_by = np.bincount(name, weights=dur, minlength=k)
    ids = {n: i for i, n in enumerate(tracer.names)}
    per = 1.0 / max(rounds, 1)

    def pick(table, names):
        return float(sum(table[ids[n]] for n in names if n in ids))

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        members = [n for n in tracer.names if n.split(".")[0] == layer]
        out[f"{layer}.calls"] = (pick(calls, members) * per, "count")
        out[f"{layer}.self_s"] = (pick(self_by, members) * per, "s")

    # one velocity evaluation is a velocity call or a velocity_and_residuals
    # call made directly by the integrator
    vel = ids.get("control.ControlEvaluator.velocity", -1)
    var = ids.get("control.ControlEvaluator.velocity_and_residuals", -1)
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
    top = (name == vel) | ((name == var) & (parent_name != vel))
    evaluations = int(np.count_nonzero(top))
    out["control.velocity.calls"] = (evaluations * per, "count")
    out["control.velocity.us_per_call"] = (
        float(dur[top].sum()) / evaluations * 1e6 if evaluations else 0.0, "us")

    # a gain-search trial is one Jacobian the search itself evaluates
    jac = ids.get("control.jacobian_at_target", -1)
    search = ids.get("control.gain_search", -1)
    trials = int(np.count_nonzero((name == jac) & (parent_name == search)))
    out["control.jacobian.calls"] = (pick(calls, ["control.jacobian_at_target"]) * per, "count")
    out["control.gain_search.trials"] = (trials * per, "count")
    out["simulate.post_s"] = (pick(dur_by, GROUPS["simulate.post"]) * per, "s")
    out["framework.matrix_bytes"] = (tracer.matrix_bytes * per, "B_computed")
    out["linalg.collinear.calls"] = (pick(calls, ["linalg.are_collinear"]) * per, "count")
    for group in ("control.eig", "framework.matrix", "linalg.rank", "triples.full_set",
                  "triples.construct", "triples.graphical"):
        out[f"{group}.self_s"] = (pick(self_by, GROUPS[group]) * per, "s")
    fileio = [n for n in tracer.names if n.startswith("fileio.")]
    out["fileio.read.self_s"] = (pick(self_by, [n for n in fileio if "_from_" in n
                                                or n.endswith(".load_json")]) * per, "s")
    out["fileio.write.self_s"] = (pick(self_by, [n for n in fileio if "_to_" in n
                                                 or ".write_" in n]) * per, "s")
    return out
