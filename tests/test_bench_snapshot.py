"""The snapshot script's summaries, on made-up runs: no benchmark runs here."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "bench" / "snapshot.py"
spec = importlib.util.spec_from_file_location("snapshot", PATH)
snapshot = importlib.util.module_from_spec(spec)
spec.loader.exec_module(snapshot)


def _run(wall, failed=0):
    return {"static_analysis": {"correct": not failed, "attempted": 44, "failed": failed,
                                "metrics": {"wall_s": {"value": wall, "unit": "s"}}}}


def test_quartiles_and_runs_per_workload():
    runs = {1: _run(0.7), 3: _run(0.5), 5: _run(0.9, failed=2), 7: _run(0.6), 11: _run(0.8)}
    out = snapshot.summarize(runs)["static_analysis"]
    wall = out["metrics"]["wall_s"]
    assert wall["unit"] == "s" and wall["values"] == [0.7, 0.5, 0.9, 0.6, 0.8]
    assert (wall["p25"], wall["median"], wall["p75"]) == pytest.approx((0.6, 0.7, 0.8))
    assert out["runs"][2] == {"seed": 5, "correct": False, "failed": 2}
    assert [r["seed"] for r in out["runs"]] == [1, 3, 5, 7, 11]


def test_tier1_counts():
    assert snapshot.tier1_counts("1 failed, 583 passed in 65.20s (0:01:05)") \
        == {"failed": 1, "passed": 583}


def test_src_lines_total():
    lines = snapshot.src_lines()
    assert lines["total"] == sum(v for k, v in lines.items() if k != "total")
    assert "framework.py" in lines
