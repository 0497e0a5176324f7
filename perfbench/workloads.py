"""The four workloads: seeded inputs, the operations run on them one at a
time, and the check every operation's output must pass.

A workload is built in three steps. The constructor derives every raw input
from the workload seed with the benchmark's own generators. ``setup`` turns
those inputs into weakrig objects (targets, controller specs, frameworks);
it is what ``setup_s`` times. ``round_ops`` hands out the fixed work of one
round as a list of ``Op``; ``wall_s`` is the time one round takes.

Ensemble members and gain searches are drawn from pools whose outcomes the
program recorded in ``reference.json`` (regenerate it with
``python3 perfbench/make_reference.py``). Each pool is sorted by its recorded
step or trial count and cut into equal strata, and a round takes one entry
from every stratum. So every round carries the same mix of short and long
runs whatever the seed, and rounds of different seeds cost the same work.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
REFERENCE = HERE / "reference.json"

H = 0.01  # the simulator's default RK4 step, used by both ensembles

# Criterion 3: designed gain, starts perturbed by up to 0.1, deadline t = 50.
HEXAGON_RUN = {"t_max": 50.0, "stop_cost": 1e-6}
HEXAGON_PERTURB = 0.1
HEXAGON_POOL = 100
HEXAGON_STRATA = 5

# Criterion 6: gradient law on the triangle, non-degenerate starts.
TRIANGLE_RUN = {"t_max": 300.0, "stop_cost": 1e-16, "record_every": 5}
TRIANGLE_SEED_BASE = 3000
TRIANGLE_POOL = 200
TRIANGLE_STRATA = 10

# gain_search derives trial seeds as seed + index. Pool searches start
# GAIN_STRIDE apart, so no two share a trial seed; the reference records the
# trial of each search's first stabilizing gain, searched up to GAIN_STRIDE.
# One search op gets GAIN_TRIALS trials, so the number of trials per search is
# bounded and known: min(GAIN_TRIALS, recorded trial).
GAIN_STRIDE = 100_000
GAIN_POOL = 64
GAIN_STRATA = 2
GAIN_TRIALS = 250
CLI_SEARCH_TRIALS = 500  # long enough to stand apart from the other CLI calls

# Per-member agreement with the recorded outcome of the program.
TIME_TOL = 0.5 * H       # the same final step
COST_RTOL = 1e-6         # final cost, relative
POSITION_TOL = 1e-9      # final positions, absolute per coordinate
SHAPE_TOL = 1e-6         # triangle: final shape distance to the target

ROUND_TRIP_TOL = 1e-8    # shape_distance(recover_shape(gram(fw)), fw)

# Static frameworks: (family, n). Sparse graphs have average degree 6; dense
# graphs have 0.3 of all pairs as edges. Each is a random spanning tree plus
# pairs drawn uniformly, so it is connected and its size does not depend on
# the seed. Three sparse n=150
# frameworks sit in the middle of a round's latencies, so the median op is
# one of them; the dense n=70 framework holds the tail percentile.
STATIC_FRAMEWORKS = (
    ("sparse", 50), ("sparse", 100), ("sparse", 150), ("sparse", 150),
    ("sparse", 150), ("sparse", 200),
    ("dense", 40), ("dense", 70), ("dense", 100),
)
SPARSE_DEGREE = 6
DENSE_PAIRS = 0.3


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- generators

def hexagon_start(member: int, witness: np.ndarray) -> np.ndarray:
    """Criterion 3's start for ensemble seed ``member``."""
    rng = np.random.default_rng(member)
    return witness + rng.uniform(-HEXAGON_PERTURB, HEXAGON_PERTURB, witness.shape)


def triangle_start(member: int) -> np.ndarray:
    """Criterion 6's start: uniform on [-1, 1]^2 per agent, redrawn until the
    triangle's sine of the apex angle exceeds 0.05."""
    rng = np.random.default_rng(TRIANGLE_SEED_BASE + member)
    while True:
        pts = rng.uniform(-1.0, 1.0, (3, 2))
        u, v = pts[1] - pts[0], pts[2] - pts[0]
        if abs(u[0] * v[1] - u[1] * v[0]) > 0.05 * np.linalg.norm(u) * np.linalg.norm(v):
            return pts


def gain_search_seed(index: int) -> int:
    return index * GAIN_STRIDE


def gain_at_trial(seed: int, trial: int, n: int, d: int) -> np.ndarray:
    """The (n, d) diagonal entries gain_search samples at ``trial``."""
    return np.random.default_rng(seed + trial).uniform(-1.5, 1.5, size=(n, d))


def random_edges(rng, n: int, m: int) -> list[tuple[int, int]]:
    """m edges on 1..n: a random spanning tree plus other pairs drawn uniformly."""
    tree = {(int(rng.integers(1, v)), v) for v in range(2, n + 1)}
    iu, ju = np.triu_indices(n, k=1)
    rest = [(int(i) + 1, int(j) + 1) for i, j in zip(iu, ju)
            if (int(i) + 1, int(j) + 1) not in tree]
    picked = rng.choice(len(rest), size=m - len(tree), replace=False)
    return sorted(tree.union(rest[k] for k in picked))


def strata(pool: list[dict], key: str, count: int) -> list[list[dict]]:
    ordered = sorted(pool, key=lambda rec: (rec[key], rec["id"]))
    size = len(ordered) // count
    return [ordered[k * size:(k + 1) * size] for k in range(count)]


def rng_for(*keys: int) -> np.random.Generator:
    """A generator fixed by the workload seed (any integer) and round."""
    return np.random.default_rng([k % 2**64 for k in keys])


def draw(groups: list[list[dict]], seed: int, rnd: int) -> list[tuple[int, dict]]:
    """(stratum, entry) for one entry of every stratum, fixed by (seed, round)."""
    rng = rng_for(seed, rnd)
    return [(k, grp[int(rng.integers(len(grp)))]) for k, grp in enumerate(groups)]


# ---------------------------------------------------------------- targets

def hexagon_target(wr):
    obj = json.loads((FIXTURES / "hexagon_target.json").read_text(encoding="utf-8"))
    graph = wr.Graph(obj["n"], tuple(tuple(e) for e in obj["edges"]))
    triples = wr.TripleSet(tuple(tuple(t) for t in obj["triples"]))
    return wr.FormationTarget(graph, triples, wr.Configuration(np.array(obj["points"])))


def designed_gain(wr):
    obj = json.loads((FIXTURES / "gain.json").read_text(encoding="utf-8"))
    return wr.GainMatrix(tuple(np.array(b) for b in obj["blocks"]))


def triangle_target(wr):
    tree = wr.Graph(3, ((1, 2), (1, 3)))
    sensing = wr.Graph(3, ((1, 2), (1, 3), (2, 3)))
    witness = wr.Configuration(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]]))
    return wr.FormationTarget(tree, wr.build_formation_triples(tree, sensing), witness)


# ---------------------------------------------------------------- operations

@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    probe: str = "interpreter"  # the speed probe closest to this work; see run.py
    argv: list[str] | None = None  # CLI calls only


class Workload:
    """What the runner needs from a workload. The counters are read from the
    operations' outputs by their checks."""

    name = ""
    tail_pct = 0.0  # op_tail_ms percentile; see README.md

    def __init__(self, seed: int):
        self.seed = seed
        self.steps: list[int] = []    # RK4 steps per simulation
        self.samples: list[int] = []  # recorded samples per simulation
        self.trials: list[int] = []   # trials per gain search
        self.searches_found = 0
        self.bytes_written = 0

    def setup(self, wr) -> None:
        raise NotImplementedError

    def round_ops(self, wr, rnd: int) -> list[Op]:
        raise NotImplementedError

    def context(self) -> dict:
        raise NotImplementedError


def member_outcome(trace) -> dict:
    """Everything an ensemble member's check and the counters need."""
    return {
        "termination": trace.termination,
        "final_time": float(trace.times[-1]),
        "final_cost": float(trace.cost[-1]),
        "final_positions": trace.positions[-1].tolist(),
        "steps": int(round(float(trace.times[-1]) / H)),
        "samples": len(trace),
    }


def run_member(wr, spec, start: np.ndarray, run_kwargs: dict):
    """integrate, then the post-processing the acceptance criteria apply."""
    trace = wr.integrate(wr.SimulationConfig(wr.Configuration(start), spec, **run_kwargs))
    wr.convergence_rate(trace, window=min(len(trace), 360))
    wr.monitor_invariants(trace, spec.law)
    return trace


def member_matches(out: dict, ref: dict) -> bool:
    return (out["termination"] == ref["termination"]
            and abs(out["final_time"] - ref["final_time"]) <= TIME_TOL
            and abs(out["final_cost"] - ref["final_cost"]) <= COST_RTOL * ref["final_cost"]
            and float(np.max(np.abs(np.array(out["final_positions"])
                                    - np.array(ref["final_positions"])))) <= POSITION_TOL)


class Ensemble(Workload):
    """What the two closed-loop ensembles share."""

    pool_key = ""
    strata_count = 0
    run_kwargs: dict = {}

    def __init__(self, seed: int, reference: dict):
        super().__init__(seed)
        self.groups = strata(reference[self.pool_key], "steps", self.strata_count)
        self.spec = None
        self.reached = 0  # members that ended below stop_cost

    def start(self, member: int) -> np.ndarray:
        raise NotImplementedError

    def round_ops(self, wr, rnd: int) -> list[Op]:
        ops = []
        for stratum, ref in draw(self.groups, self.seed, rnd):
            start = self.start(ref["id"])

            def run(start=start):
                trace = run_member(wr, self.spec, start, self.run_kwargs)
                return trace, self.final_shape(wr, trace)

            def check(out, ref=ref):
                trace, shape = out
                rec = member_outcome(trace)
                self.steps.append(rec["steps"])
                self.samples.append(rec["samples"])
                self.reached += rec["termination"] == "stop_cost"
                return member_matches(rec, ref) and (shape is None or shape <= SHAPE_TOL)

            ops.append(Op(f"member stratum {stratum}", run, check))
        return ops

    def final_shape(self, wr, trace) -> float | None:
        return None

    def context(self) -> dict:
        return {
            "members": len(self.steps),
            "members_per_round": self.strata_count,
            "steps_per_member": _summary(self.steps),
            "samples_per_member": _summary(self.samples),
            "reached_stop_cost": self.reached,
        }


class HexagonEnsemble(Ensemble):
    name = "hexagon_ensemble"
    tail_pct = 70.0
    pool_key = "hexagon"
    strata_count = HEXAGON_STRATA
    run_kwargs = HEXAGON_RUN

    def __init__(self, seed: int, reference: dict):
        super().__init__(seed, reference)
        self.criterion3_reached = sum(ref["termination"] == "stop_cost"
                                      for ref in reference["hexagon"] if ref["id"] < 20)

    def setup(self, wr) -> None:
        target = hexagon_target(wr)
        self.witness = target.witness.points
        self.spec = wr.ControllerSpec(wr.Law.NONGRADIENT, target, designed_gain(wr))

    def context(self) -> dict:
        return {**super().context(), "criterion3_reached": self.criterion3_reached}

    def start(self, member: int) -> np.ndarray:
        return hexagon_start(member, self.witness)


class TriangleEnsemble(Ensemble):
    name = "triangle_ensemble"
    tail_pct = 90.0
    pool_key = "triangle"
    strata_count = TRIANGLE_STRATA
    run_kwargs = TRIANGLE_RUN

    def setup(self, wr) -> None:
        self.spec = wr.ControllerSpec(wr.Law.GRADIENT, triangle_target(wr))

    def start(self, member: int) -> np.ndarray:
        return triangle_start(member)

    def final_shape(self, wr, trace) -> float:
        # criterion 6 also measures the final shape against the target
        return wr.shape_distance(wr.Configuration(trace.positions[-1]),
                                 self.spec.target.witness)


def expected_gain(ref: dict, n: int, d: int) -> np.ndarray | None:
    """Diagonal entries of the gain a capped search must return, or None."""
    if ref["trials"] > GAIN_TRIALS:
        return None
    return gain_at_trial(ref["seed"], ref["trials"] - 1, n, d)


def same_gain(gain, expected: np.ndarray | None) -> bool:
    if gain is None or expected is None:
        return gain is None and expected is None
    return np.array_equal(np.array([np.diag(b) for b in gain.blocks]), expected)


def search_op(wr, target, stratum: int, ref: dict, counts: Workload) -> Op:
    def run():
        return wr.gain_search(target, trials=GAIN_TRIALS, seed=ref["seed"])

    def check(gain):
        counts.trials.append(min(GAIN_TRIALS, ref["trials"]))
        if not same_gain(gain, expected_gain(ref, target.n, target.d)):
            return False
        if gain is None:
            return True
        counts.searches_found += 1
        report = wr.classify_stability(wr.jacobian_at_target(target, gain), target.d)
        return report.verdict is wr.Verdict.STABLE

    return Op(f"gain_search stratum {stratum}", run, check)


class StaticAnalysis(Workload):
    """Seeded planar frameworks in a sparse and a dense family, plus gain
    searches on the hexagon target; no time stepping."""

    name = "static_analysis"
    tail_pct = 85.0

    def __init__(self, seed: int, reference: dict):
        super().__init__(seed)
        rng = rng_for(seed)
        self.raw = []
        for family, n in STATIC_FRAMEWORKS:
            m = round(SPARSE_DEGREE * n / 2 if family == "sparse"
                      else DENSE_PAIRS * n * (n - 1) / 2)
            self.raw.append((family, n, random_edges(rng, n, m),
                             rng.uniform(-1.0, 1.0, (n, 2))))
        self.groups = strata(reference["gain_search"], "trials", GAIN_STRATA)

    def setup(self, wr) -> None:
        self.frameworks = [
            (family, wr.Framework(wr.Graph(n, tuple(edges)), wr.Configuration(pts)))
            for family, n, edges, pts in self.raw]
        self.target = hexagon_target(wr)

    def round_ops(self, wr, rnd: int) -> list[Op]:
        # dense frameworks spend most of their time in large SVDs
        ops = [Op(f"{family} n={fw.n}", lambda fw=fw: analyse(wr, fw), bool,
                  "linalg" if family == "dense" else "interpreter")
               for family, fw in self.frameworks]
        ops += [search_op(wr, self.target, stratum, ref, self)
                for stratum, ref in draw(self.groups, self.seed, rnd)]
        return ops

    def context(self) -> dict:
        sizes = []
        for family, n, edges, _ in self.raw:
            degree = np.bincount(np.array(edges).ravel(), minlength=n + 1)
            # s: one distance triple per edge plus one angle per neighbour pair
            sizes.append({"family": family, "n": n, "m": len(edges),
                          "s": len(edges) + int((degree * (degree - 1) // 2).sum())})
        return {"frameworks": sizes, "searches": len(self.trials),
                "searches_found": self.searches_found,
                "trials_per_search": _summary(self.trials)}


def analyse(wr, fw) -> bool:
    """Every static decision the paper makes about one planar framework;
    True when they agree with each other."""
    graphical = wr.check_planar_graphical_condition(fw)
    full = wr.full_triple_set(fw.graph)
    iwr = wr.is_infinitesimally_weakly_rigid(fw, full)
    tree = wr.min_iwr_spanning_tree(fw)
    tdag = wr.minimal_triple_set(tree, fw.config)
    tdag_iwr = wr.is_infinitesimally_weakly_rigid(fw, tdag)
    via_tree = wr.check_iwr_via_spanning_tree(fw, wr.spanning_tree(fw.graph), full)
    rebuilt = wr.recover_shape(wr.gram(fw), fw.graph, fw.d)
    round_trip = wr.shape_distance(rebuilt, fw.config)
    return bool(graphical == iwr
                and tdag.s == 2 * fw.n - 3 and tdag_iwr
                and (iwr or not via_tree)
                and round_trip <= ROUND_TRIP_TOL)


# ---------------------------------------------------------------- CLI

CLI_CODE = "from weakrig.cli import run; run()"

# One round of calls: (name, argv template, exit code, files written). The exit
# codes follow the CLI contract on the fixtures: 0 holds, 1 does not. Search
# seeds come from pool searches that need more than CLI_SEARCH_TRIALS trials,
# so every search call does the same work, finds nothing and exits 1. Two
# search calls per round give the tail percentile a band of its own.
CLI_CALLS = (
    ("check_weak", ("check", "{hexagon}", "--mode", "weak"), 0, ()),
    ("check_rigid", ("check", "{hexagon}", "--mode", "rigid"), 1, ()),
    ("check_graphical", ("check", "{hexagon}", "--mode", "graphical"), 0, ()),
    ("check_tree", ("check", "{hexagon}", "--mode", "tree"), 0, ()),
    ("tstar", ("tstar", "{hexagon}", "{work}/tdagger.json"), 0, ("tdagger.json",)),
    ("check_tdagger", ("check", "{hexagon}", "--mode", "weak",
                       "--triples", "{work}/tdagger.json"), 0, ()),
    ("jacobian_gain", ("jacobian", "{target}", "--gain", "{gain}",
                       "--out", "{work}/eig_gain.csv"), 0, ("eig_gain.csv",)),
    ("jacobian_identity", ("jacobian", "{target}", "--identity",
                           "--out", "{work}/eig_identity.csv"), 1, ("eig_identity.csv",)),
    *(("jacobian_search", ("jacobian", "{target}", "--search", str(CLI_SEARCH_TRIALS),
                           "--seed", f"{{search_seed_{k}}}", "--gain-out", "{work}/found.json",
                           "--out", "{work}/eig_search.csv"), 1, ())
      for k in range(2)),
    ("simulate", ("simulate", "{run}", "{work}/sim"), 0,
     ("sim_trace.csv", "sim_summary.json")),
)
TRACE_COLUMNS = 1 + 6 * 2 + 3 + 2 + 1  # t, positions, V, delta_norm, minDist, centroid, rankP


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def csv_rows(path: Path, columns: int) -> int:
    """Data rows of a CSV whose every row has ``columns`` fields, else -1."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or any(len(r) != columns for r in rows):
        return -1
    return len(rows) - 1


def file_rereads(wr, path: Path) -> bool:
    """A file a call wrote reads back through the matching fileio reader.

    fileio has no CSV readers, so CSV files are parsed here and checked for
    their documented columns and row count."""
    fileio = wr.fileio
    if path.name == "tdagger.json":
        return fileio.triples_from_dict(fileio.load_json(path)).s == 2 * 6 - 3
    if path.name.startswith("eig_"):
        return csv_rows(path, 2) == 6 * 2
    if path.name == "sim_summary.json":
        summary = fileio.load_json(path)
        fileio.simulation_config_from_dict(summary["config"])
        return summary["converged"] is True
    return csv_rows(path, TRACE_COLUMNS) > 0


class CliFixtures(Workload):
    """One weakrig subprocess at a time over fixtures/; the only workload
    that pays for interpreter start and import, and uses cli and fileio.

    The calls run in a fixed order; the seed picks each round's search seed."""

    name = "cli_fixtures"
    tail_pct = 80.0

    def __init__(self, seed: int, reference: dict, work: Path):
        super().__init__(seed)
        self.work = work
        self.search_seeds = [ref["seed"] for ref in reference["gain_search"]
                             if ref["trials"] > CLI_SEARCH_TRIALS]
        self.calls = 0
        # set by the traced run: children then record spans for it to merge
        self.tracer = None
        self.spans_path = work / "spans.npz"
        self.pending_spans = -1

    def setup(self, wr) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.fields = {"hexagon": FIXTURES / "hexagon.json",
                       "target": FIXTURES / "hexagon_target.json",
                       "gain": FIXTURES / "gain.json",
                       "run": FIXTURES / "hexagon_run.json",
                       "work": self.work}

    def round_ops(self, wr, rnd: int) -> list[Op]:
        seeds = rng_for(self.seed, rnd).choice(self.search_seeds, size=2, replace=False)
        fields = {**{k: str(v) for k, v in self.fields.items()},
                  **{f"search_seed_{k}": str(seed) for k, seed in enumerate(seeds)}}
        return [self._op(wr, name, [part.format(**fields) for part in template], code,
                         [self.work / f for f in files])
                for name, template, code, files in CLI_CALLS]

    def _op(self, wr, name, argv, code, files) -> Op:
        def run():
            for path in files:
                path.unlink(missing_ok=True)
            command = [sys.executable, "-c", CLI_CODE]
            if self.tracer is not None:
                self.pending_spans = self.tracer.current()
                command = [sys.executable, str(HERE / "cli_child.py"), str(self.spans_path)]
            proc = subprocess.run(command + argv, env=cli_env(),
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  timeout=120, check=False)
            return proc.returncode

        def check(returncode):
            self.calls += 1
            if self.tracer is not None:
                self.tracer.merge(self.spans_path, self.pending_spans)
            if returncode != code or not all(p.is_file() for p in files):
                return False
            self.bytes_written += sum(p.stat().st_size for p in files)
            if not all(file_rereads(wr, p) for p in files):
                return False
            if name == "jacobian_search":
                self.trials.append(CLI_SEARCH_TRIALS)
            elif name == "simulate":
                self.count_simulation(wr)
            return True

        return Op(name, run, check, "spawn", argv)

    def count_simulation(self, wr) -> None:
        summary = wr.fileio.load_json(self.work / "sim_summary.json")
        h = summary["config"].get("h", H)
        self.steps.append(int(round(summary["final_time"] / h)))
        self.samples.append(csv_rows(self.work / "sim_trace.csv", TRACE_COLUMNS))

    def context(self) -> dict:
        return {"calls": self.calls, "calls_per_round": len(CLI_CALLS),
                "bytes_written": self.bytes_written,
                "trials_per_search": _summary(self.trials),
                "steps_per_simulation": _summary(self.steps)}


def _summary(values: list[int]) -> dict:
    if not values:
        return {}
    arr = np.array(values)
    return {"min": int(arr.min()), "median": float(np.median(arr)),
            "max": int(arr.max()), "total": int(arr.sum())}


WORKLOADS = {
    "hexagon_ensemble": HexagonEnsemble,
    "triangle_ensemble": TriangleEnsemble,
    "static_analysis": StaticAnalysis,
    "cli_fixtures": CliFixtures,
}
