"""Write a benchmark snapshot of the checkout this script sits in.

    python3 bench/snapshot.py BENCH_<n>.json

It runs ``perfbench/run.py --workload all --seconds 6`` once per seed in
SEEDS, one run after another, and reads the JSON object that each run prints
as its last line. For every workload it writes the median and quartiles of
each end-to-end metric over the seeds, and each run's ``correct`` and
``failed``. It also records what the numbers depend on: nproc, the Python and
numpy versions, the BLAS thread variables (perfbench sets each unset one to
1), ``wc -l src/weakrig/*.py``, and the tier-1 test counts and time. Five
seeds and the tier-1 run take about three minutes on 2 cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 3, 5, 7, 11)
SECONDS = 6
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")


def bench_run(seed: int) -> dict:
    """The last stdout line of one ``--workload all`` run, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
            "--seconds", str(SECONDS)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: perfbench exited with code {proc.returncode}")
    return json.loads(lines[-1])


def summarize(runs: dict[int, dict]) -> dict:
    """Per workload: each metric's unit, per-seed values, quartiles and
    median, and each run's ``correct`` and ``failed``."""
    out = {}
    for name in next(iter(runs.values())):
        per_seed = {seed: run[name] for seed, run in runs.items()}
        metrics = {}
        for metric, first in next(iter(per_seed.values()))["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in per_seed.values()]
            p25, p50, p75 = np.percentile(values, [25, 50, 75]).tolist()
            metrics[metric] = {"unit": first["unit"], "median": p50, "p25": p25, "p75": p75,
                               "values": values}
        out[name] = {"metrics": metrics,
                     "runs": [{"seed": seed, "correct": r["correct"], "failed": r["failed"]}
                              for seed, r in per_seed.items()]}
    return out


def src_lines() -> dict[str, int]:
    """``wc -l src/weakrig/*.py``: newlines per file, and their total."""
    counts = {p.name: p.read_bytes().count(b"\n")
              for p in sorted((ROOT / "src" / "weakrig").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def tier1_counts(summary: str) -> dict[str, int]:
    """Outcome counts of pytest's last line, such as ``1 failed, 583 passed in 52.85s``."""
    return {word: int(count) for count, word in re.findall(r"(\d+) ([a-z]+)", summary)}


def tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, check=False)
    seconds = time.perf_counter() - start
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"command": "PYTHONPATH=src python " + " ".join(TIER1), "summary": last,
            "counts": tier1_counts(last), "seconds": seconds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="the JSON file to write")
    args = parser.parse_args(argv)
    runs = {seed: bench_run(seed) for seed in SEEDS}
    snapshot = {
        "command": f"perfbench/run.py --workload all --seconds {SECONDS}",
        "seeds": list(SEEDS),
        "workloads": summarize(runs),
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                    "numpy": np.__version__,
                    "blas_env": {var: os.environ.get(var) for var in BLAS_VARS}},
        "src_lines": src_lines(),
        "tier1": tier1(),
    }
    Path(args.out).write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
