"""JSON and CSV input/output for every structured object the CLI touches.

Readers raise InputError naming the offending field; writers emit floats with
9 significant digits. Every JSON format written here is accepted unchanged by
the matching reader.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError
from .framework import Configuration, Framework, TripleSet
from .graphs import Graph

if TYPE_CHECKING:  # the readers import these when they build them
    from .control import FormationTarget, GainMatrix
    from .simulate import SimulationConfig, SimulationTrace

_AXES = "xyz"


def _axis_label(a: int) -> str:
    return _AXES[a] if a < len(_AXES) else f"c{a + 1}"


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected a JSON object at the top level")
    return obj


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _get(obj: dict, key: str, kind, what: str):
    if key not in obj:
        raise InputError(f"missing field '{key}' ({what})")
    val = obj[key]
    if isinstance(val, (int, float) if kind is float else kind) and not isinstance(val, bool):
        return float(val) if kind is float else val
    raise InputError(f"field '{key}' must be {what}")


def graph_from_dict(obj: dict) -> Graph:
    n = _get(obj, "n", int, "the vertex count, a positive integer")
    edges = _get(obj, "edges", list, "a list of [i, j] pairs")
    try:
        return Graph(n, edges)
    except (InputError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"field 'edges': {exc}") from exc


def framework_from_dict(obj: dict) -> Framework:
    g = graph_from_dict(obj)
    d = _get(obj, "d", int, "the ambient dimension, a positive integer")
    points = _get(obj, "points", list, "a list of coordinate rows")
    if len(points) != g.n:
        raise InputError(f"field 'points' must have {g.n} rows, got {len(points)}")
    try:
        config = Configuration(np.array(points, dtype=float))
    except (InputError, ValueError) as exc:
        raise InputError(f"field 'points': {exc}") from exc
    if config.d != d:
        raise InputError(f"field 'points' rows have {config.d} coordinates, 'd' says {d}")
    return Framework(g, config)


def triples_from_dict(obj: dict) -> TripleSet:
    trips = _get(obj, "triples", list, "a list of [i, j, k] triples")
    try:
        return TripleSet(trips)
    except (InputError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"field 'triples': {exc}") from exc


def triples_to_dict(t: TripleSet) -> dict:
    return {"triples": [list(trip) for trip in t.triples]}


def gain_from_dict(obj: dict) -> GainMatrix:
    from .control import GainMatrix

    blocks = _get(obj, "blocks", list, "a list of d x d matrices, one per agent")
    try:
        return GainMatrix(tuple(np.array(b, dtype=float) for b in blocks))
    except (InputError, ValueError) as exc:
        raise InputError(f"field 'blocks': {exc}") from exc


def gain_to_dict(k: GainMatrix) -> dict:
    return {"blocks": [[[float(x) for x in row] for row in b] for b in k.blocks]}


def target_from_dict(obj: dict) -> FormationTarget:
    from .control import FormationTarget

    fw = framework_from_dict(obj)
    trips = triples_from_dict(obj)
    return FormationTarget(fw.graph, trips, fw.config)


def simulation_config_from_dict(obj: dict) -> SimulationConfig:
    from .control import ControllerSpec, Law
    from .simulate import SimulationConfig

    if not isinstance(obj.get("target"), dict):
        raise InputError("missing field 'target' (framework plus triples)")
    target = target_from_dict(obj["target"])
    law_name = _get(obj, "law", str, "'gradient' or 'nongradient'")
    try:
        law = Law(law_name)
    except ValueError as exc:
        raise InputError("field 'law' must be 'gradient' or 'nongradient'") from exc
    gain = None
    if obj.get("gain") is not None:
        if not isinstance(obj["gain"], dict):
            raise InputError("field 'gain' must be an object with 'blocks'")
        gain = gain_from_dict(obj["gain"])
    spec = ControllerSpec(law, target, gain)

    init = obj.get("initial")
    if not isinstance(init, dict):
        raise InputError("missing field 'initial' (object with 'points', or "
                         "'perturb' and 'seed')")
    if "points" in init:
        points = _get(init, "points", list, "a list of coordinate rows")
        try:
            initial = Configuration(np.array(points, dtype=float))
        except (InputError, ValueError) as exc:
            raise InputError(f"field 'initial.points': {exc}") from exc
    else:
        perturb = _get(init, "perturb", float, "a perturbation magnitude")
        if not (perturb >= 0.0 and math.isfinite(2.0 * perturb)):  # the draw's range width
            raise InputError("field 'initial.perturb' must be >= 0, with 2 * perturb finite")
        seed = _get(init, "seed", int, "an integer seed")
        if seed < 0:
            raise InputError("field 'initial.seed' must be >= 0")
        rng = np.random.default_rng(seed)
        shift = rng.uniform(-perturb, perturb, size=target.witness.points.shape)
        initial = Configuration(target.witness.points + shift)

    kwargs = {}
    for key in ("h", "t_max", "stop_cost"):
        if key in obj:
            kwargs[key] = _get(obj, key, float, "a number")
    if "record_every" in obj:
        kwargs["record_every"] = _get(obj, "record_every", int, "a positive integer")
    return SimulationConfig(initial, spec, **kwargs)


def write_eigenvalue_csv(path, eigenvalues) -> None:
    """Columns re, im; one row per eigenvalue in the given order."""
    ev = np.asarray(eigenvalues, dtype=complex)
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, np.column_stack([ev.real, ev.imag]), fmt="%.9g", delimiter=",",
                   header="re,im", comments="")


def write_trace_csv(path, trace: SimulationTrace) -> None:
    """One row per recorded sample; positions flattened agent by agent."""
    nsamp, n, d = trace.positions.shape
    header = ["t"]
    for i in range(1, n + 1):
        header += [f"p{i}{_axis_label(a)}" for a in range(d)]
    header += ["V", "delta_norm", "minDist"]
    header += [f"cent{_axis_label(a).upper()}" for a in range(d)]
    header += ["rankP"]
    table = np.column_stack([trace.times, trace.positions.reshape(nsamp, n * d), trace.cost,
                             trace.residual_norm, trace.min_distance, trace.centroid,
                             trace.rank_p])
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, table, fmt=["%.9g"] * (len(header) - 1) + ["%d"], delimiter=",",
                   header=",".join(header), comments="")
