"""Fast checks of the benchmark itself: one operation of every workload
passes its check, traced self times fit inside the traced wall time, the
runner emits every metric BENCHMARK.json names, and it refuses to run
without the program's sources.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from time import perf_counter

import pytest

import run
import workloads as w
from tracing import LAYERS, Tracer, layer_metrics

BENCHMARK = json.loads((w.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def wr():
    return run.import_weakrig()


@pytest.fixture(scope="module")
def reference():
    return w.load_reference()


def make(name, reference, tmp_path):
    cls = w.WORKLOADS[name]
    if cls is w.CliFixtures:
        return cls(7, reference, tmp_path / "work")
    return cls(7, reference)


@pytest.mark.parametrize("name", sorted(w.WORKLOADS))
def test_first_op_of_every_workload_passes_its_check(name, wr, reference, tmp_path):
    workload = make(name, reference, tmp_path)
    workload.setup(wr)
    op = workload.round_ops(wr, 0)[0]
    assert op.check(op.run())


@pytest.mark.parametrize("name", sorted(w.WORKLOADS))
def test_traced_self_times_fit_in_the_traced_wall_time(name, wr, reference, tmp_path):
    workload = make(name, reference, tmp_path)
    workload.setup(wr)
    tracer = Tracer()
    if name == "cli_fixtures":
        workload.tracer = tracer
    op = workload.round_ops(wr, 0)[0]
    tracer.install()
    start = perf_counter()
    with tracer.span("bench.op"):
        out = op.run()
    wall = perf_counter() - start
    tracer.uninstall()
    assert op.check(out)
    metrics = layer_metrics(tracer, rounds=1)
    traced = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    assert 0.0 < traced <= wall


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_runner_emits_every_named_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "triangle_ensemble",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=w.ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in expected:
        assert f"\n{name} " in "\n" + proc.stdout


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(w.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(w.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", "cli_fixtures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
