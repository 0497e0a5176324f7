"""Compare this checkout's end-to-end benchmark metrics with a parent checkout's.

    python3 bench/pairs.py PARENT_DIR --workload W --seed S --pairs N [--seconds T]

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in PARENT_DIR and once in this checkout, each in its own directory, one
after the other. The side that runs first alternates from pair to pair, so a
drift in machine speed falls on both. For each end-to-end metric that
BENCHMARK.json lists, it prints both medians, the parent's quartiles and the
number of pairs in which this checkout's value was lower. It exits 2 if any
run fails: a nonzero exit code, no JSON result line, or an operation whose
check failed. T defaults to BENCHMARK.json's ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from snapshot import ROOT, bench_run

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_pairs(parent: Path, workload: str, seed: int, pairs: int, seconds: float,
              runner=bench_run) -> dict[str, list[dict]] | None:
    """{"parent": [...], "change": [...]} results in pair order, or None as
    soon as a run fails. Even pairs run the parent first, odd pairs this
    checkout."""
    sides = {"parent": parent, "change": ROOT}
    out = {"parent": [], "change": []}
    for k in range(pairs):
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            result = runner(seed, sides[side], workload, seconds, ("--trace", "0"))
            if result is None or not result.get("correct", False):
                print(f"pair {k + 1}: the {side} run failed", file=sys.stderr)
                return None
            out[side].append(result)
    return out


def summarize(runs: dict[str, list[dict]]) -> list[dict]:
    """One row per end-to-end metric of BENCHMARK.json that the runs report."""
    rows = []
    for spec in BENCHMARK["end_to_end"]:
        name = spec["name"]
        if name not in runs["parent"][0]["metrics"]:
            continue
        parent, change = (np.array([r["metrics"][name]["value"] for r in runs[side]])
                          for side in ("parent", "change"))
        p25, p75 = np.percentile(parent, [25, 75]).tolist()
        rows.append({"metric": name, "unit": spec["unit"], "parent": float(np.median(parent)),
                     "change": float(np.median(change)), "parent_p25": p25, "parent_p75": p75,
                     "lower": int((change < parent).sum()), "pairs": len(parent)})
    return rows


def main(argv=None, runner=bench_run) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    args = parser.parse_args(argv)
    runs = run_pairs(args.parent, args.workload, args.seed, args.pairs, args.seconds, runner)
    if runs is None:
        return 2
    print(f"# {args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g}-s runs")
    print(f"{'metric':<12} {'unit':<4} {'parent':>10} {'change':>10} "
          f"{'parent p25-p75':>22} {'lower':>7}")
    for row in summarize(runs):
        quartiles = f"{row['parent_p25']:.4g}-{row['parent_p75']:.4g}"
        print(f"{row['metric']:<12} {row['unit']:<4} {row['parent']:>10.4g} "
              f"{row['change']:>10.4g} {quartiles:>22} {row['lower']:>4}/{row['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
