"""Command-line front end.

Exit codes are a stable contract: 0 when the checked property holds or the
run converged, 1 on a negative result, 2 on input errors.
"""

from __future__ import annotations

import argparse
import sys

from . import fileio
from .control import (
    GainMatrix,
    Verdict,
    classify_stability,
    gain_search,
    jacobian_at_target,
)
from .errors import (
    ConstructionError,
    DivergenceError,
    DomainError,
    FitError,
    InputError,
    NoValidExtensionError,
)
from .framework import (
    _edge_weak_rigidity_operator,
    _require_enough_points,
    _rigidity_operator,
    _weak_rigidity_operator,
    required_rank,
)
from .graphs import spanning_tree
from .simulate import convergence_rate, integrate, monitor_invariants
from .triples import (
    _graphical_defects,
    full_triple_set,
    min_iwr_spanning_tree,
    minimal_triple_set,
)

DEFAULT_SEED = 42


def _planar_failures(fw) -> list[str]:
    """Planar graphical test: no lines when it holds, else why it fails.
    Raises DomainError (exit code 2) for d != 2 or n < 3."""
    defects = _graphical_defects(fw)
    if defects is None:
        return ["fails: graph is disconnected"]
    return [f"fails at vertex {v}: all incident edges collinear" for v in defects]


def _cmd_check(args) -> int:
    fw = fileio.framework_from_dict(fileio.load_json(args.framework))

    if args.mode == "graphical":
        failures = _planar_failures(fw)
        print("\n".join(failures) if failures else "graphical condition: holds")
        return 1 if failures else 0

    if args.mode != "rigid":
        triples = (fileio.triples_from_dict(fileio.load_json(args.triples))
                   if args.triples else full_triple_set(fw.graph))
    # each mode takes the rank of its operator once and compares it to
    # required_rank, as is_infinitesimally_rigid,
    # is_infinitesimally_weakly_rigid and check_iwr_via_spanning_tree do
    _require_enough_points(fw.n, fw.d)
    if args.mode == "rigid":
        label, op = "infinitesimally rigid", _rigidity_operator(fw)
    elif args.mode == "weak":
        label, op = "IWR", _weak_rigidity_operator(fw, triples)
    else:  # sufficient test on the BFS spanning tree
        label = "IWR via spanning tree"
        op = _edge_weak_rigidity_operator(fw, spanning_tree(fw.graph), triples)
    req = required_rank(fw.n, fw.d)
    rank = op.rank(fw.points)
    ok = rank == req
    note = "; inconclusive for d >= 3" if args.mode == "tree" and not ok else ""
    print(f"{label}: {'yes' if ok else 'no'} (rank {rank}/{req}{note})")
    return 0 if ok else 1


def _cmd_tstar(args) -> int:
    fw = fileio.framework_from_dict(fileio.load_json(args.framework))
    failures = _planar_failures(fw)
    if failures:
        print(failures[0])
        return 1
    try:
        tree = min_iwr_spanning_tree(fw)
        tdag = minimal_triple_set(tree, fw.config)
    except (NoValidExtensionError, ConstructionError) as exc:
        print(f"fails: {exc}")
        return 1
    print("spanning tree edges:", " ".join(f"({i},{j})" for i, j in tree.edges))
    fileio.write_json(args.out, fileio.triples_to_dict(tdag))
    print(f"wrote {tdag.s} triples to {args.out}")
    return 0


def _cmd_jacobian(args) -> int:
    tgt = fileio.target_from_dict(fileio.load_json(args.target))

    if args.search is not None:
        gain = gain_search(tgt, args.search, args.seed)
        if gain is None:
            print("none found")
            return 1
        fileio.write_json(args.gain_out, fileio.gain_to_dict(gain))
    elif args.identity:
        gain = GainMatrix.identity(tgt.n, tgt.d)
    elif args.gain:
        gain = fileio.gain_from_dict(fileio.load_json(args.gain))
    else:
        print("provide a gain file, --identity, or --search", file=sys.stderr)
        return 2
    report = classify_stability(jacobian_at_target(tgt, gain), tgt.d)
    fileio.write_eigenvalue_csv(args.out, report.eigenvalues)
    print(f"verdict: {report.verdict.value}")
    if args.search is not None:
        print(f"wrote stabilizing gain to {args.gain_out}")
        return 0
    evs = ", ".join(f"{e.real:.9g}{e.imag:+.9g}i" if abs(e.imag) > 1e-9
                    else f"{e.real:.9g}" for e in report.eigenvalues)
    print(f"eigenvalues: {evs}")
    return 0 if report.verdict is Verdict.STABLE else 1


def _cmd_simulate(args) -> int:
    cfg_dict = fileio.load_json(args.config)
    cfg = fileio.simulation_config_from_dict(cfg_dict)
    trace_path = f"{args.out_prefix}_trace.csv"
    summary_path = f"{args.out_prefix}_summary.json"
    try:
        trace = integrate(cfg)
        diverged = False
    except DivergenceError as exc:
        trace = exc.trace
        diverged = True
        print(f"diverged: {exc}", file=sys.stderr)
    fileio.write_trace_csv(trace_path, trace)

    try:
        slope = convergence_rate(trace, min(len(trace), max(2, len(trace) // 2)))
    except FitError:
        slope = None
    inv = monitor_invariants(trace, cfg.controller.law)
    converged = (not diverged) and trace.termination == "stop_cost"
    summary = {
        "config": cfg_dict,
        "termination": trace.termination,
        "converged": converged,
        "final_time": float(trace.times[-1]),
        "final_cost": float(trace.cost[-1]),
        "final_edge_lengths": [float(x) for x in trace.edge_lengths[-1]],
        "decay_slope": slope,
        "invariants": {
            "max_centroid_drift": inv.max_centroid_drift,
            "rank_constant": inv.rank_constant,
            "min_inter_agent_distance": inv.min_inter_agent_distance,
            "collision_events": inv.collision_events,
        },
    }
    fileio.write_json(summary_path, summary)
    print(f"termination: {trace.termination}  final V: {trace.cost[-1]:.9g}")
    print(f"wrote {trace_path} and {summary_path}")
    return 0 if converged else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakrig",
        description="Weak-rigidity checks, minimal constraint sets, Jacobian "
                    "stability reports, and closed-loop formation simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="rigidity checks on a framework JSON file")
    p.add_argument("framework", help="framework JSON: n, edges, d, points")
    p.add_argument("--triples", help="triple-set JSON (default: all triples)")
    p.add_argument("--mode", choices=("rigid", "weak", "graphical", "tree"),
                   default="weak")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("tstar", help="construct a minimal triple set (planar only)")
    p.add_argument("framework")
    p.add_argument("out", help="output JSON path for the triple set")
    p.set_defaults(func=_cmd_tstar)

    p = sub.add_parser("jacobian", help="target-point stability analysis")
    p.add_argument("target", help="target JSON: framework plus triples")
    p.add_argument("--gain", help="gain JSON with per-agent blocks")
    p.add_argument("--identity", action="store_true", help="use the identity gain")
    p.add_argument("--out", default="eigenvalues.csv", help="eigenvalue CSV path")
    p.add_argument("--search", type=int, metavar="TRIALS",
                   help="sample diagonal gains and keep the first stabilizing one")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--gain-out", default="gain_found.json",
                   help="where --search writes a found gain")
    p.set_defaults(func=_cmd_jacobian)

    p = sub.add_parser("simulate", help="integrate a closed-loop run")
    p.add_argument("config", help="simulation config JSON")
    p.add_argument("out_prefix", help="prefix for the trace CSV and summary JSON")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
