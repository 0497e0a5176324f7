"""Property tests: the blocked gain search against the per-trial search it
replaced (``helpers.reference_gain_search``), bit for bit, on generated
targets in d = 2, 3 with trial counts on both sides of the block sizes, in
the three cases a search can end in: a gain at the first trial, a gain at
the last trial, and no gain. Also: each stacked Jacobian and its eigenvalues
equal ``jacobian_at_target`` and ``np.linalg.eigvals`` of the trial's gain."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import (  # noqa: E402
    random_connected_graph,
    reference_gain_search,
    same_gain_bits,
)
from weakrig import (  # noqa: E402
    Configuration,
    FormationTarget,
    GainMatrix,
    TripleSet,
    distance_triple,
    full_triple_set,
    gain_search,
    jacobian_at_target,
)
from weakrig.control import _apply_gain, _stable  # noqa: E402

TRIALS = (1, 3, 5, 64, 65, 200)
# trial seeds scanned for a case's seed; a few stable ones fall in this
# window on most small targets
WINDOW = 1200


def _entries(tgt, trial_seed):
    return np.random.default_rng(trial_seed).uniform(-1.5, 1.5, size=(tgt.n, tgt.d))


def _diagonal(entries):
    return GainMatrix(tuple(np.diag(row) for row in entries))


def _diagonal_jacobians(tgt, k):
    """The search's Jacobians for the (B, n, d) stack of diagonal entries."""
    return _apply_gain(k[..., None] * np.eye(tgt.d), tgt._rbar_t_rw)


@st.composite
def targets(draw):
    """Small targets in d = 2, 3 with the full, a random or the distance-only
    triple set; small enough that some sampled gains stabilize them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(d + 1, d + 2))
    graph = random_connected_graph(rng, n, draw(st.sampled_from((0.3, 0.6, 1.0))))
    full = full_triple_set(graph)
    kind = draw(st.sampled_from(("full", "subset", "distance")))
    if kind == "subset":
        keep = rng.random(full.s) < 0.7
        triples = TripleSet(full._arr[keep] if keep.any() else full._arr[:1])
    elif kind == "distance":
        triples = TripleSet(tuple(distance_triple(i, j) for i, j in graph.edges))
    else:
        triples = full
    return FormationTarget(graph, triples, Configuration(rng.uniform(-1.0, 1.0, (n, d))))


def _stable_trial_seeds(tgt, window):
    """Which trial seeds 0..window-1 give a stabilizing gain."""
    k = np.stack([_entries(tgt, s) for s in range(window)])
    return _stable(np.linalg.eigvals(_diagonal_jacobians(tgt, k)), tgt.d)[0]


def _seed_for(stable, trials, case):
    """A search seed whose ``trials`` trials end in ``case``, or None."""
    runs = np.convolve(stable, np.ones(trials, dtype=int), "valid")  # stable trials per window
    if case == "first":
        hits = np.flatnonzero(stable[:runs.size])
    elif case == "last":
        hits = np.flatnonzero(stable[trials - 1:] & (runs == 1))
    else:
        hits = np.flatnonzero(runs == 0)
    return int(hits[0]) if hits.size else None


def _check_case(tgt, trials, seed, case):
    expected = reference_gain_search(tgt, trials, seed)
    assert same_gain_bits(gain_search(tgt, trials, seed), expected)
    if case == "none":
        assert expected is None
    else:
        at = seed if case == "first" else seed + trials - 1
        assert same_gain_bits(expected, _diagonal(_entries(tgt, at)))


@settings(max_examples=40)
@given(targets(), st.sampled_from(TRIALS), st.sampled_from(("first", "last", "none")))
def test_blocked_search_matches_reference(tgt, trials, case):
    seed = _seed_for(_stable_trial_seeds(tgt, WINDOW), trials, case)
    assume(seed is not None)
    _check_case(tgt, trials, seed, case)


@pytest.mark.parametrize("trials", TRIALS)
def test_every_case_on_the_hexagon(hexagon_target, trials):
    """The hexagon's first stabilizing trial seed is 893, so every trial
    count meets all three cases; the seeds are chosen with the reference."""
    tgt = hexagon_target
    first = next(s for s in range(WINDOW) if reference_gain_search(tgt, 1, s) is not None)
    assert first == 893
    for case, seed in (("first", first), ("last", first - trials + 1), ("none", 0)):
        _check_case(tgt, trials, seed, case)


@given(targets(), st.integers(0, 2**20), st.integers(1, 70))
def test_stacked_jacobians_and_eigenvalues_are_bitwise(tgt, seed, size):
    k = np.stack([_entries(tgt, seed + b) for b in range(size)])
    jac = _diagonal_jacobians(tgt, k)
    ev = np.linalg.eigvals(jac).astype(complex)
    for b in range(size):
        single = jacobian_at_target(tgt, _diagonal(k[b]))
        assert jac[b].tobytes() == single.tobytes()
        assert ev[b].tobytes() == np.linalg.eigvals(single).astype(complex).tobytes()
