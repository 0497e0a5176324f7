import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import weakrig
from conftest import BORDERLINE_STAR_POINTS
from test_fileio import gain_dict, hexagon_framework_dict, hexagon_target_dict
from weakrig.cli import main
from weakrig.framework import _ConstraintOperator


@pytest.fixture
def hexagon_file(tmp_path):
    path = tmp_path / "hexagon.json"
    path.write_text(json.dumps(hexagon_framework_dict()))
    return str(path)


@pytest.fixture
def target_file(tmp_path):
    path = tmp_path / "target.json"
    path.write_text(json.dumps(hexagon_target_dict()))
    return str(path)


@pytest.fixture
def gain_file(tmp_path):
    path = tmp_path / "gain.json"
    path.write_text(json.dumps(gain_dict()))
    return str(path)


@pytest.fixture
def collinear_star_file(tmp_path):
    obj = {"n": 3, "edges": [[1, 2], [1, 3]], "d": 2,
           "points": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]}
    path = tmp_path / "collinear.json"
    path.write_text(json.dumps(obj))
    return str(path)


class TestCheck:
    def test_weak_mode_holds(self, hexagon_file, capsys):
        assert main(["check", hexagon_file, "--mode", "weak"]) == 0
        assert "IWR: yes (rank 9/9)" in capsys.readouterr().out

    def test_rigid_mode_fails(self, hexagon_file, capsys):
        assert main(["check", hexagon_file, "--mode", "rigid"]) == 1
        assert "infinitesimally rigid: no" in capsys.readouterr().out

    def test_graphical_mode_diagnoses_vertex(self, collinear_star_file, capsys):
        assert main(["check", collinear_star_file, "--mode", "graphical"]) == 1
        assert "fails at vertex 1: all incident edges collinear" in capsys.readouterr().out

    def test_graphical_mode_holds(self, hexagon_file, capsys):
        assert main(["check", hexagon_file, "--mode", "graphical"]) == 0
        assert "holds" in capsys.readouterr().out

    def test_tree_mode(self, hexagon_file, capsys):
        assert main(["check", hexagon_file, "--mode", "tree"]) == 0
        assert "rank 9/9" in capsys.readouterr().out

    @pytest.mark.parametrize("mode, code", [("weak", 0), ("rigid", 1), ("tree", 0)])
    def test_rank_is_computed_once(self, hexagon_file, monkeypatch, mode, code):
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        assert main(["check", hexagon_file, "--mode", mode]) == code
        assert len(calls) == 1

    def test_explicit_triples_file(self, hexagon_file, tmp_path, capsys):
        trips = {"triples": [[2, 1, 1], [3, 2, 2]]}
        tfile = tmp_path / "partial.json"
        tfile.write_text(json.dumps(trips))
        assert main(["check", hexagon_file, "--triples", str(tfile),
                     "--mode", "weak"]) == 1
        assert "IWR: no" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["rigid", "weak", "graphical", "tree"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_too_few_points_exit_two(self, tmp_path, capsys, mode, n):
        obj = {"n": n, "edges": [[1, 2]][:n - 1], "d": 2,
               "points": [[0.0, 0.0], [1.0, 0.0]][:n]}
        path = tmp_path / "few.json"
        path.write_text(json.dumps(obj))
        assert main(["check", str(path), "--mode", mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 6, "d": 2, "points": []}))
        assert main(["check", str(bad)]) == 2
        assert "edges" in capsys.readouterr().err

    def test_non_utf8_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main(["check", str(bad), "--mode", "rigid"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error: ")

    def test_missing_file_exits_two(self):
        assert main(["check", "/nonexistent/f.json"]) == 2

    @pytest.mark.parametrize("field, edges, triples", [
        ("edges", [[1, 2], ["a", 3]], None),
        ("triples", [[1, 2], [1, 3]], [[1, 2, 100000000000000000000000000000]]),
    ])
    def test_unconvertible_entry_exits_two(self, tmp_path, capsys, field, edges, triples):
        """A non-integer label or one beyond int64 is an input error, not a
        failed check with a traceback."""
        fw = tmp_path / "fw.json"
        fw.write_text(json.dumps({"n": 3, "edges": edges, "d": 2,
                                  "points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}))
        argv = ["check", str(fw), "--mode", "weak"]
        if triples is not None:
            tfile = tmp_path / "triples.json"
            tfile.write_text(json.dumps({"triples": triples}))
            argv += ["--triples", str(tfile)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: field '{field}': ")

    def test_non_integer_label_exits_two(self, tmp_path, capsys):
        """The edge [1, 2.7] is not read as [1, 2]: the file describes no graph
        to answer for."""
        fw = tmp_path / "fw.json"
        fw.write_text(json.dumps({"n": 3, "edges": [[1, 2.7], [2, 3], [1, 3]], "d": 2,
                                  "points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}))
        assert main(["check", str(fw), "--mode", "rigid"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("input error: field 'edges': "
                                "edge (1, 2.7) has a non-integer label\n")

    @pytest.mark.parametrize("mode, code", [("weak", 0), ("rigid", 1), ("tree", 0)])
    def test_rank_forms_no_dense_matrix(self, hexagon_file, monkeypatch, mode, code):
        def refuse(op, pts):
            raise AssertionError("dense constraint matrix formed")

        monkeypatch.setattr(_ConstraintOperator, "dense", refuse)
        assert main(["check", hexagon_file, "--mode", mode]) == code


class TestTstar:
    def test_hexagon(self, hexagon_file, tmp_path, capsys):
        out = tmp_path / "tdagger.json"
        assert main(["tstar", hexagon_file, str(out)]) == 0
        text = capsys.readouterr().out
        assert "spanning tree edges:" in text
        written = json.loads(out.read_text())
        assert len(written["triples"]) == 9

    def test_output_round_trips_into_check(self, hexagon_file, tmp_path, capsys):
        out = tmp_path / "tdagger.json"
        assert main(["tstar", hexagon_file, str(out)]) == 0
        assert main(["check", hexagon_file, "--triples", str(out),
                     "--mode", "weak"]) == 0
        assert "IWR: yes (rank 9/9)" in capsys.readouterr().out

    def test_borderline_star_holds_in_both_commands(self, tmp_path, capsys):
        obj = {"n": 3, "edges": [[1, 2], [1, 3]], "d": 2,
               "points": BORDERLINE_STAR_POINTS.tolist()}
        path, out = tmp_path / "star.json", tmp_path / "tdagger.json"
        path.write_text(json.dumps(obj))
        assert main(["check", str(path), "--mode", "graphical"]) == 0
        assert main(["tstar", str(path), str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "spanning tree edges: (1,2) (1,3)", f"wrote 3 triples to {out}"]
        assert json.loads(out.read_text())["triples"] == [[2, 1, 1], [3, 1, 1], [1, 2, 3]]

    def test_relabelled_borderline_star_holds_in_both_commands(self, tmp_path, capsys):
        """Swapping the labels of the two leaves keeps the verdict: the
        collinearity test does not depend on the order of the edges."""
        obj = {"n": 3, "edges": [[1, 2], [1, 3]], "d": 2,
               "points": BORDERLINE_STAR_POINTS[[0, 2, 1]].tolist()}
        path, out = tmp_path / "star.json", tmp_path / "tdagger.json"
        path.write_text(json.dumps(obj))
        assert main(["check", str(path), "--mode", "graphical"]) == 0
        assert main(["tstar", str(path), str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "graphical condition: holds", "spanning tree edges: (1,2) (1,3)",
            f"wrote 3 triples to {out}"]
        assert json.loads(out.read_text())["triples"] == [[2, 1, 1], [3, 1, 1], [1, 2, 3]]

    def test_condition_failure_names_vertex(self, collinear_star_file, capsys):
        out_code = main(["tstar", collinear_star_file, "/tmp/unused_tstar.json"])
        assert out_code == 1
        assert "vertex 1" in capsys.readouterr().out

    def test_spatial_input_exits_two(self, tmp_path, capsys):
        obj = {"n": 3, "edges": [[1, 2], [1, 3]], "d": 3,
               "points": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}
        path = tmp_path / "spatial.json"
        path.write_text(json.dumps(obj))
        assert main(["tstar", str(path), str(tmp_path / "out.json")]) == 2
        assert "planar-only" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["tstar", "check"])
    def test_two_vertices_exit_two(self, tmp_path, capsys, command):
        obj = {"n": 2, "edges": [[1, 2]], "d": 2, "points": [[0.0, 0.0], [1.0, 0.0]]}
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(obj))
        argv = ([command, str(path), str(tmp_path / "out.json")] if command == "tstar"
                else [command, str(path), "--mode", "graphical"])
        assert main(argv) == 2
        assert "at least 3 vertices" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_disconnected_graph_fails(self, tmp_path, capsys):
        obj = {"n": 4, "edges": [[1, 2], [3, 4]], "d": 2,
               "points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}
        path = tmp_path / "split.json"
        path.write_text(json.dumps(obj))
        assert main(["tstar", str(path), str(tmp_path / "out.json")]) == 1
        assert capsys.readouterr().out == "fails: graph is disconnected\n"


    def test_tree_stalls_where_graphical_test_holds(self, tmp_path, capsys):
        """Collinearity within tolerance is not transitive: edges 2-3 and 2-4
        each lie 0.9e-9 rad from the line of edge 2-1, so both are collinear
        with it, but 1.8e-9 rad from each other, so vertex 2 passes the
        graphical test while no tree edge at 2 is skew to edge 1-2."""
        a = 0.9e-9
        obj = {"n": 4, "edges": [[1, 2], [2, 3], [2, 4]], "d": 2,
               "points": [[-1.0, 0.0], [0.0, 0.0], [np.cos(a), np.sin(a)],
                          [np.cos(a), -np.sin(a)]]}
        path, out = tmp_path / "star.json", tmp_path / "tdagger.json"
        path.write_text(json.dumps(obj))
        assert main(["check", str(path), "--mode", "graphical"]) == 0
        assert capsys.readouterr().out == "graphical condition: holds\n"
        assert main(["tstar", str(path), str(out)]) == 1
        assert capsys.readouterr().out == (
            "fails: no admissible edge extends the tree on vertices [1, 2]\n")
        assert not out.exists()
        assert main(["check", str(path), "--mode", "weak"]) == 1
        assert capsys.readouterr().out == "IWR: no (rank 3/5)\n"


class TestJacobian:
    def test_identity_gain_unstable(self, target_file, tmp_path, capsys):
        out = tmp_path / "eigs.csv"
        code = main(["jacobian", target_file, "--identity", "--out", str(out)])
        assert code == 1
        assert "verdict: Unstable" in capsys.readouterr().out
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "re,im"
        assert float(lines[1].split(",")[0]) == pytest.approx(45.9712, abs=1e-3)

    def test_designed_gain_stable(self, target_file, gain_file, tmp_path, capsys):
        out = tmp_path / "eigs.csv"
        code = main(["jacobian", target_file, "--gain", gain_file, "--out", str(out)])
        assert code == 0
        assert "verdict: Stable" in capsys.readouterr().out
        first = out.read_text().strip().splitlines()[1]
        assert float(first.split(",")[0]) == pytest.approx(48.9899, abs=1e-3)

    @pytest.mark.parametrize("scale", [1e-3, 2.0**-10])
    def test_designed_gain_stable_at_small_scale(self, gain_file, tmp_path, capsys, scale):
        target = hexagon_target_dict()
        target["points"] = (scale * np.array(target["points"])).tolist()
        path = tmp_path / "small.json"
        path.write_text(json.dumps(target))
        code = main(["jacobian", str(path), "--gain", gain_file,
                     "--out", str(tmp_path / "eigs.csv")])
        assert code == 0
        assert "verdict: Stable" in capsys.readouterr().out

    def test_complex_pair_prints_at_small_scale(self, gain_file, tmp_path, capsys):
        """The slow pair 0.105 +- 0.176i, scaled by 4^-20, keeps its imaginary
        parts: the threshold is relative to the largest eigenvalue."""
        target = hexagon_target_dict()
        target["points"] = (2.0**-20 * np.array(target["points"])).tolist()
        path = tmp_path / "small.json"
        path.write_text(json.dumps(target))
        assert main(["jacobian", str(path), "--gain", gain_file,
                     "--out", str(tmp_path / "eigs.csv")]) == 0
        evs = capsys.readouterr().out.splitlines()[1].split(": ")[1].split(", ")
        assert evs[7:9] == ["9.58142691e-14+1.59824925e-13i", "9.58142691e-14-1.59824925e-13i"]

    def test_search_writes_gain(self, target_file, tmp_path, capsys):
        out = tmp_path / "eigs.csv"
        gain_out = tmp_path / "found.json"
        code = main(["jacobian", target_file, "--search", "1000", "--seed", "7",
                     "--out", str(out), "--gain-out", str(gain_out)])
        assert code == 0
        assert "verdict: Stable" in capsys.readouterr().out
        blocks = json.loads(gain_out.read_text())["blocks"]
        assert len(blocks) == 6

    def test_search_can_fail(self, target_file, tmp_path, capsys):
        code = main(["jacobian", target_file, "--search", "3", "--seed", "7",
                     "--out", str(tmp_path / "e.csv")])
        assert code == 1
        assert "none found" in capsys.readouterr().out

    def test_no_gain_choice_exits_two(self, target_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["jacobian", target_file])
        assert exc.value.code == 2
        assert "one of the arguments --gain --identity --search is required" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["--identity", "--search", "10"],
        ["--gain", "{gain}", "--identity"],
        ["--search", "10", "--gain", "{gain}"],
    ])
    def test_two_gain_choices_exit_two(self, target_file, gain_file, tmp_path, capsys, argv):
        out = tmp_path / "e.csv"
        with pytest.raises(SystemExit) as exc:
            main(["jacobian", target_file, *(a.format(gain=gain_file) for a in argv),
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("blocks", [
        [[[0.3, 0.0], [0.0, -0.04]]] * 5,  # one agent short
        [[[1.0]]] * 6,                     # 1 x 1 blocks on a d = 2 target
    ])
    def test_gain_of_the_wrong_size_exits_two(self, target_file, tmp_path, capsys, blocks):
        gain, out = tmp_path / "gain.json", tmp_path / "e.csv"
        gain.write_text(json.dumps({"blocks": blocks}))
        assert main(["jacobian", target_file, "--gain", str(gain), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "input error: gain blocks do not match the target size\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--search", "10", "--seed", "-5"], "input error: seed must be >= 0"),
        (["--search", "0"], "input error: trials must be >= 1"),
    ])
    def test_bad_search_exits_two(self, target_file, tmp_path, capsys, argv, message):
        out, gain_out = tmp_path / "e.csv", tmp_path / "g.json"
        code = main(["jacobian", target_file, *argv, "--out", str(out),
                     "--gain-out", str(gain_out)])
        assert code == 2
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists() and not gain_out.exists()


class TestSimulate:
    def test_reproduction_run_converges(self, tmp_path, capsys):
        cfg = {
            "target": hexagon_target_dict(),
            "law": "nongradient",
            "gain": gain_dict(),
            "initial": {"perturb": 0.1, "seed": 42},
            "stop_cost": 1e-6,
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        prefix = str(tmp_path / "out")
        assert main(["simulate", str(cfg_path), prefix]) == 0
        summary = json.loads((tmp_path / "out_summary.json").read_text())
        assert summary["converged"] is True
        assert summary["termination"] == "stop_cost"
        assert max(abs(l - 2.0) for l in summary["final_edge_lengths"]) < 1e-3
        assert summary["decay_slope"] < 0
        assert summary["config"] == cfg
        # counts only: the loop and post-processing times stay out of files
        assert summary["steps"] == round(summary["final_time"] / 0.01)
        assert summary["evaluations"] == 4 * summary["steps"] + 1
        assert not {"loop_s", "post_s"} & summary.keys()
        trace_lines = (tmp_path / "out_trace.csv").read_text().strip().splitlines()
        assert trace_lines[0].startswith("t,p1x,p1y")

    def test_start_at_target_exits_immediately(self, tmp_path):
        cfg = {
            "target": hexagon_target_dict(),
            "law": "gradient",
            "initial": {"points": hexagon_target_dict()["points"]},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["simulate", str(cfg_path), str(tmp_path / "eq")]) == 0
        summary = json.loads((tmp_path / "eq_summary.json").read_text())
        assert summary["final_time"] == 0.0
        assert (summary["steps"], summary["evaluations"]) == (0, 1)

    def test_identity_gain_fails_to_converge(self, tmp_path):
        identity_blocks = {"blocks": [[[1.0, 0.0], [0.0, 1.0]]] * 6}
        cfg = {
            "target": hexagon_target_dict(),
            "law": "nongradient",
            "gain": identity_blocks,
            "initial": {"perturb": 0.1, "seed": 0},
            "stop_cost": 1e-6,
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["simulate", str(cfg_path), str(tmp_path / "bad")]) == 1
        summary = json.loads((tmp_path / "bad_summary.json").read_text())
        assert summary["converged"] is False

    def test_divergent_run_keeps_partial_trace(self, tmp_path, capsys):
        cfg = {
            "target": hexagon_target_dict(),
            "law": "nongradient",
            "gain": {"blocks": [[[-5.0, 0.0], [0.0, -5.0]]] * 6},
            "initial": {"perturb": 0.1, "seed": 5},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["simulate", str(cfg_path), str(tmp_path / "div")]) == 1
        summary = json.loads((tmp_path / "div_summary.json").read_text())
        assert summary["termination"] == "diverged"
        assert (summary["steps"], summary["evaluations"]) == (4, 17)
        assert (tmp_path / "div_trace.csv").exists()

    @pytest.mark.parametrize("field, value", [
        ("h", float("inf")), ("t_max", float("inf")), ("stop_cost", float("nan")),
        ("perturb", float("inf")),
    ])
    def test_non_finite_setting_exits_two(self, tmp_path, capsys, field, value):
        cfg = {
            "target": hexagon_target_dict(),
            "law": "gradient",
            "initial": {"perturb": 0.1, "seed": 0},
        }
        (cfg["initial"] if field == "perturb" else cfg)[field] = value
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))  # writes Infinity / NaN, which json reads back
        assert main(["simulate", str(cfg_path), str(tmp_path / "x")]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("perturb", -0.1, "field 'initial.perturb' must be >= 0"),
        ("perturb", 1e308, "with 2 * perturb finite"),
        ("seed", -1, "field 'initial.seed' must be >= 0"),
    ])
    def test_bad_initial_draw_exits_two(self, tmp_path, capsys, field, value, message):
        cfg = {
            "target": hexagon_target_dict(),
            "law": "gradient",
            "initial": {"perturb": 0.1, "seed": 0, field: value},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["simulate", str(cfg_path), str(tmp_path / "x")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x_trace.csv").exists()

    def test_overlong_run_exits_two(self, tmp_path, capsys):
        cfg = {
            "target": hexagon_target_dict(),
            "law": "gradient",
            "initial": {"perturb": 0.1, "seed": 0},
            "h": 0.01, "t_max": 1e12, "stop_cost": 0.0,
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["simulate", str(cfg_path), str(tmp_path / "x")]) == 2
        assert "1e+14 RK4 steps" in capsys.readouterr().err
        assert not (tmp_path / "x_trace.csv").exists()

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"law": "gradient"}))
        assert main(["simulate", str(cfg_path), str(tmp_path / "x")]) == 2
        assert "target" in capsys.readouterr().err


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


class TestModuleEntryPoint:
    @pytest.mark.parametrize("module", ["weakrig", "weakrig.cli"])
    def test_failing_input_exits_nonzero(self, collinear_star_file, module):
        run = subprocess.run([sys.executable, "-m", module, "check", collinear_star_file,
                              "--mode", "graphical"], capture_output=True, text=True,
                             env=_src_env())
        assert run.returncode == 1
        assert run.stdout == "fails at vertex 1: all incident edges collinear\n"

    def test_numpy_is_the_only_runtime_dependency(self):
        """Importing the package and its CLI loads none of the test extras."""
        code = ("import sys, weakrig.cli, weakrig.shape, weakrig.simulate; print(' '.join("
                "sorted(m for m in ('scipy', 'sympy', 'networkx', 'hypothesis', 'pytest') "
                "if m in sys.modules)))")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=_src_env())
        assert run.returncode == 0, run.stderr
        assert run.stdout == "\n"


def _documented_names() -> frozenset:
    """The modules and names listed under the README's "Library surface"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library surface\n", 1)[1].split("\n\n- ", 1)[1]
    bullets = section.split("\n\n", 1)[0]
    return frozenset(re.findall(r"`(\w+)`", bullets))


# The package's public names: ``from weakrig import *`` gives exactly these.
PUBLIC_NAMES = _documented_names()
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
# Runs the CLI on argv and prints, as its last line, the weakrig submodules loaded.
LOADED_AFTER_MAIN = (
    "import sys\nfrom weakrig.cli import main\ncode = main(sys.argv[1:])\n"
    "print(' '.join(sorted(m[8:] for m in sys.modules if m.startswith('weakrig.'))))\n"
    "sys.exit(code)")


class TestLazyLoading:
    def test_bare_import_loads_no_submodule(self):
        code = ("import sys, weakrig; print(sorted(m for m in sys.modules if "
                "m.startswith('weakrig.'))); print(sorted(n for n in dir(weakrig) "
                "if not n.startswith('_')))")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=_src_env())
        assert run.returncode == 0, run.stderr
        loaded, listed = run.stdout.splitlines()
        assert loaded == "[]"
        assert listed == str(sorted(PUBLIC_NAMES))

    @pytest.mark.parametrize("argv, code, unused", [
        *((f"check hexagon.json --mode {mode}", code, "control simulate shape")
          for mode, code in (("weak", 0), ("rigid", 1), ("graphical", 0), ("tree", 0))),
        ("check hexagon.json --triples hexagon_target.json", 0, "control simulate shape"),
        ("tstar hexagon.json {tmp}/tdag.json", 0, "control simulate shape"),
        ("jacobian hexagon_target.json --gain gain.json --out {tmp}/ev.csv", 0,
         "simulate shape"),
        ("jacobian hexagon_target.json --search 20 --out {tmp}/ev.csv "
         "--gain-out {tmp}/gain.json", 1, "simulate shape"),
    ])
    def test_subcommand_loads_only_what_it_runs(self, tmp_path, argv, code, unused):
        """Run in the fixtures directory; outputs go to a temporary one."""
        argv = [a.format(tmp=tmp_path) for a in argv.split()]
        run = subprocess.run([sys.executable, "-c", LOADED_AFTER_MAIN, *argv],
                             capture_output=True, text=True, env=_src_env(), cwd=FIXTURES)
        assert run.returncode == code, run.stderr
        loaded = set(run.stdout.splitlines()[-1].split())
        assert {"cli", "fileio"} <= loaded
        assert not loaded & set(unused.split())

    def test_names_are_their_modules_objects(self):
        for name in PUBLIC_NAMES:
            obj = getattr(weakrig, name)
            if isinstance(obj, types.ModuleType):
                assert obj is sys.modules[f"weakrig.{name}"]
            else:
                assert obj is getattr(sys.modules[obj.__module__], name)
                assert obj.__module__.startswith("weakrig.")

    def test_star_import_lists_the_public_names(self):
        namespace = {}
        exec("from weakrig import *", namespace)
        assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            weakrig.no_such_name  # noqa: B018

    def test_monkeypatched_submodule_shows_through(self, monkeypatch):
        def patched(cfg):
            return cfg

        monkeypatch.setattr(weakrig.simulate, "integrate", patched)
        assert weakrig.integrate is patched
        monkeypatch.undo()
        assert weakrig.integrate is weakrig.simulate.integrate
        assert weakrig.integrate is not patched
