from pathlib import Path

import numpy as np
import pytest

from conftest import DESIGNED_GAIN_DIAGS, HEXAGON_EDGES, HEXAGON_POINTS
from helpers import reference_write_eigenvalue_csv, reference_write_trace_csv
from weakrig import (
    Configuration,
    ControllerSpec,
    FormationTarget,
    Graph,
    InputError,
    Law,
    SimulationConfig,
    full_triple_set,
    integrate,
    jacobian_at_target,
)
from weakrig import fileio


def hexagon_framework_dict():
    return {
        "n": 6,
        "edges": [list(e) for e in HEXAGON_EDGES],
        "d": 2,
        "points": [[float(x) for x in row] for row in HEXAGON_POINTS],
    }


def hexagon_target_dict():
    out = hexagon_framework_dict()
    out["triples"] = [list(t) for t in full_triple_set(Graph(6, HEXAGON_EDGES)).triples]
    return out


def gain_dict():
    return {"blocks": [[[a, 0.0], [0.0, b]] for a, b in DESIGNED_GAIN_DIAGS]}


def _through_file(tmp_path, obj):
    """``obj`` written as a JSON file and read back."""
    path = tmp_path / "round_trip.json"
    fileio.write_json(path, obj)
    return fileio.load_json(path)


class TestRoundTrips:
    def test_graph(self, tmp_path):
        obj = {"n": 6, "edges": [list(e) for e in HEXAGON_EDGES]}
        assert fileio.graph_from_dict(_through_file(tmp_path, obj)) == Graph(6, HEXAGON_EDGES)

    def test_framework(self, tmp_path):
        fw = fileio.framework_from_dict(_through_file(tmp_path, hexagon_framework_dict()))
        assert fw.graph == Graph(6, HEXAGON_EDGES)
        assert np.array_equal(fw.points, HEXAGON_POINTS)

    def test_target(self, tmp_path):
        tgt = fileio.target_from_dict(_through_file(tmp_path, hexagon_target_dict()))
        assert tgt.graph == Graph(6, HEXAGON_EDGES)
        assert tgt.triples == full_triple_set(tgt.graph)
        assert np.array_equal(tgt.witness.points, HEXAGON_POINTS)

    def test_triples(self):
        ts = full_triple_set(Graph(6, HEXAGON_EDGES))
        assert fileio.triples_from_dict(fileio.triples_to_dict(ts)) == ts

    def test_gain(self):
        k = fileio.gain_from_dict(gain_dict())
        again = fileio.gain_from_dict(fileio.gain_to_dict(k))
        assert all(np.array_equal(a, b) for a, b in zip(k.blocks, again.blocks))

    def test_json_files(self, tmp_path):
        path = tmp_path / "graph.json"
        fileio.write_json(path, {"n": 3, "edges": [[1, 2], [2, 3]]})
        assert fileio.graph_from_dict(fileio.load_json(path)).m == 2


class TestFieldErrors:
    def test_missing_n(self):
        with pytest.raises(InputError, match="'n'"):
            fileio.graph_from_dict({"edges": []})

    def test_bad_edges(self):
        with pytest.raises(InputError, match="'edges'"):
            fileio.graph_from_dict({"n": 3, "edges": [[1, 1]]})

    def test_points_count_mismatch(self):
        obj = hexagon_framework_dict()
        obj["points"] = obj["points"][:3]
        with pytest.raises(InputError, match="'points'"):
            fileio.framework_from_dict(obj)

    def test_points_dimension_mismatch(self):
        obj = hexagon_framework_dict()
        obj["d"] = 3
        with pytest.raises(InputError, match="'points'"):
            fileio.framework_from_dict(obj)

    def test_bad_triples(self):
        with pytest.raises(InputError, match="'triples'"):
            fileio.triples_from_dict({"triples": [[1, 3, 2]]})

    def test_bad_law(self):
        obj = {"target": hexagon_target_dict(), "law": "bang-bang",
               "initial": {"points": hexagon_framework_dict()["points"]}}
        with pytest.raises(InputError, match="'law'"):
            fileio.simulation_config_from_dict(obj)

    def test_missing_initial(self):
        obj = {"target": hexagon_target_dict(), "law": "gradient"}
        with pytest.raises(InputError, match="'initial'"):
            fileio.simulation_config_from_dict(obj)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="invalid JSON"):
            fileio.load_json(path)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(InputError, match="invalid JSON"):
            fileio.load_json(path)


class TestSimulationConfig:
    def test_explicit_initial(self):
        obj = {
            "target": hexagon_target_dict(),
            "law": "nongradient",
            "gain": gain_dict(),
            "initial": {"points": hexagon_framework_dict()["points"]},
            "h": 0.02,
            "t_max": 10.0,
            "record_every": 5,
            "stop_cost": 1e-9,
        }
        cfg = fileio.simulation_config_from_dict(obj)
        assert cfg.h == 0.02 and cfg.t_max == 10.0
        assert cfg.record_every == 5 and cfg.stop_cost == 1e-9
        assert cfg.controller.law is Law.NONGRADIENT

    def test_seeded_perturbation(self):
        obj = {
            "target": hexagon_target_dict(),
            "law": "gradient",
            "initial": {"perturb": 0.1, "seed": 7},
        }
        cfg1 = fileio.simulation_config_from_dict(obj)
        cfg2 = fileio.simulation_config_from_dict(obj)
        assert np.array_equal(cfg1.initial.points, cfg2.initial.points)
        shift = cfg1.initial.points - np.array(hexagon_framework_dict()["points"])
        assert np.max(np.abs(shift)) <= 0.1
        assert np.max(np.abs(shift)) > 0.0


class TestCsvWriters:
    def test_eigenvalue_csv(self, tmp_path):
        path = tmp_path / "eigs.csv"
        fileio.write_eigenvalue_csv(path, np.array([1.5 + 0.25j, -2.0]))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "re,im"
        assert lines[1] == "1.5,0.25"
        assert lines[2] == "-2,0"

    def test_trace_csv_header(self, tmp_path, hexagon_target, designed_gain):
        spec = ControllerSpec(Law.NONGRADIENT, hexagon_target, designed_gain)
        trace = integrate(SimulationConfig(hexagon_target.witness, spec, t_max=0.1,
                                           stop_cost=0.0))
        path = tmp_path / "trace.csv"
        fileio.write_trace_csv(path, trace)
        lines = path.read_text().strip().splitlines()
        cols = lines[0].split(",")
        assert cols[:3] == ["t", "p1x", "p1y"]
        assert cols[13:] == ["V", "delta_norm", "minDist", "centX", "centY", "rankP"]
        assert len(lines) == len(trace) + 1
        assert all(len(line.split(",")) == len(cols) for line in lines[1:])

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "eigs.csv"
        fileio.write_eigenvalue_csv(path, np.array([np.pi]))
        assert path.read_text().strip().splitlines()[1] == "3.14159265,0"

    @pytest.mark.parametrize("run", ["fixture", "d3", "d4"])
    def test_trace_csv_matches_per_row_writer(self, tmp_path, run):
        """Byte for byte: the 364-row fixture run, and short gradient runs in
        d = 3 and d = 4 (axis labels x, y, z, c4)."""
        if run == "fixture":
            path = Path(__file__).resolve().parents[1] / "fixtures" / "hexagon_run.json"
            cfg = fileio.simulation_config_from_dict(fileio.load_json(path))
        else:
            d = int(run[1])
            rng = np.random.default_rng(d)
            graph = Graph(d + 1, tuple((i, j) for i in range(1, d + 2)
                                       for j in range(i + 1, d + 2)))
            witness = Configuration(rng.uniform(-1.0, 1.0, (d + 1, d)))
            tgt = FormationTarget(graph, full_triple_set(graph), witness)
            start = Configuration(witness.points + rng.uniform(-0.05, 0.05, (d + 1, d)))
            cfg = SimulationConfig(start, ControllerSpec(Law.GRADIENT, tgt), t_max=0.2,
                                   record_every=1, stop_cost=0.0)
        trace = integrate(cfg)
        fileio.write_trace_csv(tmp_path / "new.csv", trace)
        reference_write_trace_csv(tmp_path / "old.csv", trace)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        if run == "fixture":
            assert len(trace) == 364
        if run == "d4":
            assert b",p1c4," in new and b",centC4," in new

    def test_eigenvalue_csv_matches_per_row_writer(self, tmp_path, hexagon_target,
                                                   designed_gain):
        """Byte for byte, with -0.0 imaginary parts written as -0."""
        ev = np.array([1.5 + 0.25j, complex(-2.0, -0.0), complex(0.0, -0.0),
                       complex(-0.0, 0.0), np.pi, 1e-300 - 1e300j])
        spectrum = np.linalg.eigvals(jacobian_at_target(hexagon_target, designed_gain))
        for i, evs in enumerate((ev, spectrum, spectrum.conj(), ev[:0])):
            fileio.write_eigenvalue_csv(tmp_path / f"new{i}.csv", evs)
            reference_write_eigenvalue_csv(tmp_path / f"old{i}.csv", evs)
            assert (tmp_path / f"new{i}.csv").read_bytes() \
                == (tmp_path / f"old{i}.csv").read_bytes()
        assert (tmp_path / "new0.csv").read_text().splitlines()[2:4] == ["-2,-0", "0,-0"]
