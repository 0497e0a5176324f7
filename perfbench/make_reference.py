"""Record the program's outcomes on the benchmark's pools in reference.json.

    python3 perfbench/make_reference.py

The ensemble checks compare every member against these records, so rerun
this only when a change to weakrig is meant to change the trajectories, and
say so with the change. It takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import workloads as w

sys.path.insert(0, str(w.SRC))
import weakrig as wr  # noqa: E402


def ensemble_pool(spec, starts, run_kwargs) -> list[dict]:
    pool = []
    for member, start in starts:
        trace = w.run_member(wr, spec, start, run_kwargs)
        pool.append({"id": member, **w.member_outcome(trace)})
    return pool


def gain_pool(target) -> list[dict]:
    pool = []
    for index in range(w.GAIN_POOL):
        seed = w.gain_search_seed(index)
        gain = wr.gain_search(target, trials=w.GAIN_STRIDE, seed=seed)
        entries = np.array([np.diag(b) for b in gain.blocks])
        trials = next(t + 1 for t in range(w.GAIN_STRIDE)
                      if np.array_equal(w.gain_at_trial(seed, t, target.n, target.d), entries))
        pool.append({"id": index, "seed": seed, "trials": trials})
    return pool


def main() -> None:
    hexagon = w.hexagon_target(wr)
    hex_spec = wr.ControllerSpec(wr.Law.NONGRADIENT, hexagon, w.designed_gain(wr))
    tri_spec = wr.ControllerSpec(wr.Law.GRADIENT, w.triangle_target(wr))
    reference = {
        "numpy": np.__version__,
        "hexagon": ensemble_pool(
            hex_spec,
            ((m, w.hexagon_start(m, hexagon.witness.points)) for m in range(w.HEXAGON_POOL)),
            w.HEXAGON_RUN),
        "triangle": ensemble_pool(
            tri_spec, ((m, w.triangle_start(m)) for m in range(w.TRIANGLE_POOL)),
            w.TRIANGLE_RUN),
        "gain_search": gain_pool(hexagon),
    }
    with open(w.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    reached = sum(r["termination"] == "stop_cost" for r in reference["hexagon"][:20])
    print(f"wrote {w.REFERENCE}; criterion-3 members 0..19 reaching stop_cost: {reached}/20")


if __name__ == "__main__":
    main()
