"""Run one weakrig benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hexagon_ensemble --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root. The workload's fixed work is one round (see
workloads.py); the run repeats rounds, one operation at a time, until
``--seconds`` have been spent, checks every operation's output, and prints one
line per metric followed by a JSON object as the last line of stdout.
``--workload all`` runs every workload in its own process, one after another.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced rounds with traced rounds on the same inputs and reports the
per-layer metrics; its spans go to ``perfbench/out/spans-<workload>.npz``.
Each run also writes ``perfbench/out/<workload>-trace<0|1>.json`` with the
run context and the unscaled times.

Times are reported at a reference machine speed. Shared machines change
speed by tens of percent from one second to the next, which would drown the
changes the benchmark exists to show. So every timed piece of work (an
operation, a set-up) is bracketed by runs of a fixed probe that does not
touch weakrig, and its time is multiplied by the probe's reference time over
the median of those probe times. The unscaled times are printed and saved too.
"""

from __future__ import annotations

import os

# One BLAS thread, unless the caller chose a count: on a shared 2-core machine
# a second thread mostly waits for the other core, which adds noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import workloads as w  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

OUT = w.HERE / "out"
SETUP_REPEATS = 5
MIN_ROUNDS = 1
IMPORT_PROBE = ("import time; t = time.perf_counter(); import weakrig; "
                "print(time.perf_counter() - t)")
PROBES_PER_SIDE = 2
PROBE_MATRIX = np.random.default_rng(0).random((200, 40))
LINALG_MATRIX = np.random.default_rng(1).random((3000, 100))
TIME_UNITS = {"s", "ms", "us"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_weakrig():
    """Import weakrig from this checkout's src/, and nothing else."""
    if not (w.SRC / "weakrig" / "__init__.py").is_file():
        fail(f"no weakrig sources under {w.SRC}")
    if not w.FIXTURES.is_dir():
        fail(f"no fixtures directory at {w.FIXTURES}")
    sys.path.insert(0, str(w.SRC))
    import weakrig
    import weakrig.cli
    import weakrig.fileio  # noqa: F401

    if Path(weakrig.__file__).resolve().parent != (w.SRC / "weakrig").resolve():
        fail(f"imported weakrig from {weakrig.__file__}, not from {w.SRC}")
    return weakrig


def interpreter_probe() -> float:
    """Time a fixed piece of CPU work that does not touch weakrig: an
    interpreter loop, small-array numpy calls and a small SVD."""
    start = perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    x = np.ones(12)
    for _ in range(200):
        x = x * 0.999 + x.sum() * 1e-9
    np.linalg.svd(PROBE_MATRIX, compute_uv=False)
    return perf_counter() - start


def linalg_probe() -> float:
    """Time the singular values of a 3000x100 matrix, larger than the caches."""
    start = perf_counter()
    np.linalg.svd(LINALG_MATRIX, compute_uv=False)
    return perf_counter() - start


def spawn_probe() -> float:
    """Time starting and ending an interpreter that runs nothing."""
    start = perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True, timeout=60)
    return perf_counter() - start


# name: (probe, its typical time on an unloaded 2-core machine). Each op names
# the probe closest to its own work (see workloads.Op); set-ups, which are
# mostly interpreter start and imports, use the spawn probe.
PROBES = {"interpreter": (interpreter_probe, 0.0025), "linalg": (linalg_probe, 0.011),
          "spawn": (spawn_probe, 0.011)}


def timed(fn, probe: str):
    """Run ``fn`` once: (result, seconds, scale to the reference speed)."""
    run_probe, reference = PROBES[probe]
    probes = [run_probe() for _ in range(PROBES_PER_SIDE)]
    start = perf_counter()
    out = fn()
    elapsed = perf_counter() - start
    probes += [run_probe() for _ in range(PROBES_PER_SIDE)]
    return out, elapsed, reference / statistics.median(probes)


def child_import_s() -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=w.cli_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=60, check=True, text=True)
    return float(proc.stdout.strip())


def measure_setup(workload, wr) -> list[tuple[float, float]]:
    """(seconds, scale) per set-up: import weakrig in a fresh interpreter,
    then build the workload's objects here. Repeated for a median."""
    def setup():
        imported = child_import_s()
        start = perf_counter()
        workload.setup(wr)
        return imported + perf_counter() - start

    samples = []
    for _ in range(SETUP_REPEATS):
        seconds, _, scale = timed(setup, "spawn")
        samples.append((seconds, scale))
    return samples


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or "unknown"."""
    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8")
    except OSError:
        return "unknown"
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "blas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return "unknown"


def run_round(workload, wr, rnd: int, tracer: Tracer | None, inprocess: list | None):
    """Run one round's operations one at a time; returns a (label, seconds,
    scale) row per operation and the failures. Checks run between operations.

    ``inprocess`` collects, per CLI call, the subprocess latency minus the time
    ``weakrig.cli.main`` takes in this process for the same argv."""
    rows, failures = [], 0
    for op in workload.round_ops(wr, rnd):
        if tracer is None:
            out, seconds, scale = timed(op.run, op.probe)
        else:
            tracer.install()
            with tracer.span("bench.op"):
                out, seconds, scale = timed(op.run, op.probe)
            tracer.uninstall()
        rows.append((op.label, seconds, scale))
        failures += not op.check(out)
        if inprocess is not None:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                _, here, _ = timed(lambda: wr.cli.main(op.argv), "interpreter")
            inprocess.append((seconds - here, scale))
    return rows, failures


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_fixtures" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*w.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    wr = import_weakrig()
    reference = w.load_reference()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    cls = w.WORKLOADS[args.workload]
    workload = (cls(args.seed, reference, work) if cls is w.CliFixtures
                else cls(args.seed, reference))
    try:
        result = measure(workload, wr, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, so each gets its own peak RSS."""
    results = {}
    for name in w.WORKLOADS:
        print(f"## {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name} failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def seconds_of(rows, scaled: bool) -> list[float]:
    return [s * k if scaled else s for _, s, k in rows]


def round_totals(rows, per_round: int, scaled: bool) -> list[float]:
    values = seconds_of(rows, scaled)
    return [sum(values[i:i + per_round]) for i in range(0, len(values), per_round)]


def end_to_end_metrics(workload, setup, plain, per_round: int, scaled: bool) -> dict:
    latencies = seconds_of(plain, scaled)
    return {
        "setup_s": (statistics.median(s * k if scaled else s for s, k in setup), "s"),
        "wall_s": (statistics.median(round_totals(plain, per_round, scaled)), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (float(np.percentile(latencies, workload.tail_pct)) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }


def trace_metrics(workload, tracer, plain, traced, startup, per_round: int,
                  run_rounds: int, scaled: bool) -> dict:
    # span times take the median scale of the traced operations
    scale = statistics.median(k for _, _, k in traced) if scaled else 1.0
    metrics = {name: (value * scale if unit in TIME_UNITS else value, unit)
               for name, (value, unit)
               in layer_metrics(tracer, len(traced) // per_round).items()}
    # counts read from the outputs cover every round, traced or not
    share = 1.0 / run_rounds
    metrics["simulate.steps"] = (sum(workload.steps) * share, "count")
    metrics["simulate.samples"] = (sum(workload.samples) * share, "count")
    trials = metrics["control.gain_search.trials"][0]
    found = workload.searches_found * share
    metrics["control.gain_search.useful_ratio"] = (found / trials if trials else 0.0, "ratio")
    metrics["fileio.bytes_written"] = (workload.bytes_written * share, "B")
    metrics["cli.startup_s"] = (
        statistics.median(s * k if scaled else s for s, k in startup) if startup else 0.0, "s")
    # means, like the per-round self times they bound
    traced_wall = statistics.fmean(round_totals(traced, per_round, scaled))
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_frac"] = (
        traced_wall / statistics.fmean(round_totals(plain, per_round, scaled)) - 1.0, "frac")
    return metrics


def measure(workload, wr, args) -> dict:
    setup = measure_setup(workload, wr)
    tracer = Tracer() if args.trace else None
    plain, traced, startup = [], [], []
    failures = rounds = per_round = 0
    began = perf_counter()
    while True:
        elapsed = perf_counter() - began
        if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds > args.seconds:
            break
        rows, bad = run_round(workload, wr, rounds, None,
                              startup if args.trace and workload.name == "cli_fixtures"
                              else None)
        plain += rows
        per_round = len(rows)
        failures += bad
        if tracer is not None:
            if workload.name == "cli_fixtures":
                workload.tracer = tracer
            with tracer.span("bench.round"):
                rows, bad = run_round(workload, wr, rounds, tracer, None)
            workload.tracer = None
            traced += rows
            failures += bad
        rounds += 1

    attempted = len(plain) + len(traced)
    run_rounds = rounds * (2 if args.trace else 1)
    context = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "python": sys.version.split()[0],
        "rounds": run_rounds,
        "ops": attempted,
        "speed_scale": statistics.median(k for _, _, k in plain),
        "inputs": workload.context(),
        "op_median_ms": {label: statistics.median(s * 1e3 for lab, s, _ in plain
                                                  if lab == label)
                         for label in dict.fromkeys(lab for lab, _, _ in plain)},
    }
    report = {}
    for scaled in (False, True):
        if args.trace:
            report[scaled] = trace_metrics(workload, tracer, plain, traced, startup,
                                           per_round, run_rounds, scaled)
        else:
            report[scaled] = end_to_end_metrics(workload, setup, plain, per_round, scaled)
    if args.trace:
        tracer.save(OUT / f"spans-{workload.name}.npz")
    else:
        tail = report[True]["op_tail_ms"][0] / 1e3
        context["op_tail"] = {"percentile": workload.tail_pct, "samples": len(plain),
                              "beyond": sum(v > tail for v in seconds_of(plain, True))}
    failed_frac = failures / attempted

    print(f"# {json.dumps(context)}")
    for name, (value, unit) in sorted(report[True].items()):
        note = f"  (unscaled {report[False][name][0]:.6g})" if unit in TIME_UNITS else ""
        if name == "op_tail_ms":
            tail = context["op_tail"]
            note += f"  p{tail['percentile']:g} of {tail['samples']} ops, {tail['beyond']} beyond"
        elif name == "wall_s":
            note += f"  median of {rounds} rounds"
        print(f"{name} {value:.6g} {unit}{note}")
    print(f"failed_frac {failed_frac:.6g} frac  ({failures} of {attempted} ops)")
    if workload.name == "hexagon_ensemble":
        inputs = context["inputs"]
        print(f"reached stop_cost by t=50: {inputs['reached_stop_cost']}/{inputs['members']} "
              f"members; criterion 3's own seeds 0-19: {inputs['criterion3_reached']}/20 "
              f"(it asks for all; known red)")

    def as_json(metrics):
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    with open(OUT / f"{workload.name}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"context": context, "failed_frac": failed_frac,
                   "metrics": as_json(report[True]), "unscaled": as_json(report[False])},
                  fh, indent=1)
    return {"correct": failures == 0, "attempted": attempted, "failed": failures,
            "metrics": as_json(report[True])}


if __name__ == "__main__":
    sys.exit(main())
