"""The pairs script's order, summary and exit code, with a stub runner: no
benchmark runs here."""

import importlib.util
import sys
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "bench" / "pairs.py"
sys.path.insert(0, str(PATH.parent))  # pairs.py imports its runner from snapshot.py
spec = importlib.util.spec_from_file_location("pairs", PATH)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

PARENT = Path("/parent-checkout")


def _result(wall, rss=80.0, correct=True):
    return {"correct": correct, "attempted": 44, "failed": int(not correct),
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


class Stub:
    """Plays back one wall time per call and side, and records the order."""

    def __init__(self, parent, change, fail_at=None):
        self.values = {PARENT: list(parent), pairs.ROOT: list(change)}
        self.calls, self.fail_at = [], fail_at

    def __call__(self, seed, root, workload, seconds, extra):
        assert extra == ("--trace", "0")
        self.calls.append(("parent" if root == PARENT else "change", workload, seed, seconds))
        if len(self.calls) == self.fail_at:
            return None
        return _result(self.values[root].pop(0))


def test_sides_alternate_and_rows_summarize(capsys):
    stub = Stub(parent=[0.30, 0.32, 0.28, 0.31], change=[0.25, 0.33, 0.26, 0.27])
    code = pairs.main([str(PARENT), "--workload", "static_analysis", "--seed", "5",
                       "--pairs", "4", "--seconds", "3"], runner=stub)
    assert code == 0
    assert [side for side, *_ in stub.calls] == ["parent", "change", "change", "parent",
                                                 "parent", "change", "change", "parent"]
    assert {tuple(rest) for _, *rest in stub.calls} == {("static_analysis", 5, 3.0)}
    rows = {row["metric"]: row for row in pairs.summarize(
        {"parent": [_result(v) for v in (0.30, 0.32, 0.28, 0.31)],
         "change": [_result(v) for v in (0.25, 0.33, 0.26, 0.27)]})}
    assert list(rows) == ["wall_s", "peak_rss_mb"]  # BENCHMARK.json's order
    wall = rows["wall_s"]
    assert (wall["parent"], wall["change"]) == pytest.approx((0.305, 0.265))
    assert (wall["parent_p25"], wall["parent_p75"]) == pytest.approx((0.295, 0.3125))
    assert (wall["lower"], wall["pairs"]) == (3, 4)
    assert rows["peak_rss_mb"]["lower"] == 0
    out = capsys.readouterr().out
    assert "wall_s" in out and "3/4" in out


@pytest.mark.parametrize("fail_at", [1, 4])
def test_a_failed_run_exits_2(fail_at, capsys):
    stub = Stub(parent=[0.3] * 3, change=[0.3] * 3, fail_at=fail_at)
    assert pairs.main([str(PARENT), "--workload", "static_analysis", "--seed", "1",
                       "--pairs", "3"], runner=stub) == 2
    assert len(stub.calls) == fail_at
    assert capsys.readouterr().out == ""


def test_an_incorrect_run_exits_2():
    def runner(seed, root, workload, seconds, extra):
        return _result(0.3, correct=root != pairs.ROOT)

    assert pairs.main([str(PARENT), "--workload", "static_analysis", "--seed", "1",
                       "--pairs", "2"], runner=runner) == 2
