"""Shared generators and finite-difference oracles for the test suite."""

import math
import operator
from collections import deque

import numpy as np

from weakrig import (
    Configuration,
    ConstructionError,
    DomainError,
    Framework,
    GainMatrix,
    Graph,
    InputError,
    Law,
    NoValidExtensionError,
    NotRealizableError,
    TripleSet,
    UnsupportedDimensionError,
    are_collinear,
    distance_triple,
    edge_vector_matrix,
    full_triple_set,
    jacobian_at_target,
    numerical_rank,
    weak_rigidity_function,
)
from weakrig.graphs import _bfs
from weakrig.linalg import _rank_of
from weakrig.shape import _STRIP, PSD_CLAMP_RTOL, _proved_factor


def random_connected_graph(rng, n, extra_prob=0.3):
    """Random spanning tree plus independent extra edges."""
    edges = set()
    for v in range(2, n + 1):
        u = int(rng.integers(1, v))
        edges.add((u, v))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in edges and rng.random() < extra_prob:
                edges.add((i, j))
    return Graph(n, tuple(edges))


def random_framework(rng, n, d, graph=None):
    g = graph if graph is not None else random_connected_graph(rng, n)
    return Framework(g, Configuration(rng.uniform(-1.0, 1.0, size=(n, d))))


def random_triple_subset(rng, graph, keep=0.7):
    full = full_triple_set(graph)
    kept = tuple(t for t in full.triples if rng.random() < keep)
    return TripleSet(kept if kept else full.triples[:1])


def random_rotation(rng, d):
    """Haar-ish orthogonal matrix with determinant +1."""
    a = rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rigid_transform(rng, config, reflect=False):
    """Apply a random rotation (optionally composed with a reflection) and shift."""
    d = config.d
    rot = random_rotation(rng, d)
    if reflect:
        flip = np.eye(d)
        flip[0, 0] = -1.0
        rot = rot @ flip
    shift = rng.uniform(-2.0, 2.0, size=d)
    return Configuration(config.points @ rot.T + shift)


def fd_gradient(func, x, h=1e-6):
    """Central-difference gradient of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        out[i] = (func(x + step) - func(x - step)) / (2.0 * h)
    return out


def fd_jacobian(func, x, h=1e-6):
    """Central-difference Jacobian of a vector function of a flat vector."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        cols.append((func(x + step) - func(x - step)) / (2.0 * h))
    return np.array(cols).T


def stacked(c):
    """Coordinates as one vector (p_1^T, ..., p_n^T)^T of length n*d."""
    return c.points.reshape(-1).copy()


def from_stacked(vec, d):
    """The configuration whose stacked coordinate vector is ``vec``."""
    return Configuration(np.asarray(vec, dtype=float).reshape(-1, d))


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    diff = float(np.max(np.abs(a - b))) if a.size else 0.0
    return diff / scale


# Reference builders: the library's first per-builder implementations, kept
# verbatim in behaviour so the shared constraint operator can be checked
# against them bit for bit.

def _triple_index_arrays(t):
    arr = np.array(t.triples, dtype=int).reshape(-1, 3) - 1
    return arr[:, 0].copy(), arr[:, 1].copy(), arr[:, 2].copy()


def reference_rigidity_matrix(f):
    """Per-edge loop: 2 e_ij at i, -2 e_ij at j."""
    n, d = f.n, f.d
    p = f.points
    r = np.zeros((f.graph.m, n * d))
    for row, (i, j) in enumerate(f.graph.edges):
        e = p[i - 1] - p[j - 1]
        r[row, (i - 1) * d:i * d] = 2.0 * e
        r[row, (j - 1) * d:j * d] = -2.0 * e
    return r


def reference_weak_rigidity_matrix(f, t):
    """``np.add.at`` scatter of the apex and both leg blocks."""
    ap, l1, l2 = _triple_index_arrays(t)
    p = f.points
    e1 = p[ap] - p[l1]
    e2 = p[ap] - p[l2]
    rows = np.arange(t.s)
    m = np.zeros((t.s, f.n, f.d))
    np.add.at(m, (rows, ap), e1 + e2)
    np.add.at(m, (rows, l1), -e2)
    np.add.at(m, (rows, l2), -e1)
    return m.reshape(t.s, f.n * f.d)


def reference_edge_weak_rigidity_matrix(f, tree, t):
    """Per-triple loop over the tree-restricted triples, edge columns."""
    kept = TripleSet(reference_restrict_triples_to_tree(tree, t.triples))
    col_of = {e: idx for idx, e in enumerate(tree.edges)}
    d = f.d
    p = f.points
    r = np.zeros((kept.s, tree.m * d))

    def accumulate(row, a, b, vec):
        col = col_of[(min(a, b), max(a, b))]
        sign = 1.0 if a > b else -1.0
        r[row, col * d:(col + 1) * d] += sign * vec

    for row, (i, j, k) in enumerate(kept.triples):
        eij = p[i - 1] - p[j - 1]
        eik = p[i - 1] - p[k - 1]
        accumulate(row, i, j, eik)
        accumulate(row, i, k, eij)
    return r


def spans_full_dimension(c):
    """The points lie in no hyperplane of R^d: the centered points P - mean(P)
    have numerical rank d. Scaling the points scales that matrix, so the
    verdict is scale-free."""
    return numerical_rank(c.points - c.points.mean(axis=0)) == c.d


def csr_neighbors(g, i):
    """The 1-based neighbours of vertex i, as the graph's CSR table lists them."""
    start, _, nbr = g._csr
    return (nbr[start[i - 1]:start[i]] + 1).tolist()


def reference_rank(op, pts):
    """The dense rank test that the apex-blocked reduction replaced: the rank
    of the whole (s, ncols*d) matrix of a constraint operator."""
    return numerical_rank(op.dense(pts))


def reference_barred_weak_rigidity_matrix(p, tgt):
    """``np.add.at`` scatter; leg blocks only on distance rows."""
    ap, l1, l2 = _triple_index_arrays(tgt.triples)
    pts = p.points
    s = tgt.triples.s
    e1 = pts[ap] - pts[l1]
    e2 = pts[ap] - pts[l2]
    rows = np.arange(s)
    dist = l1 == l2
    m = np.zeros((s, tgt.n, p.d))
    np.add.at(m, (rows, ap), e1 + e2)
    np.add.at(m, (rows[dist], l1[dist]), -e2[dist])
    np.add.at(m, (rows[dist], l2[dist]), -e1[dist])
    return m.reshape(s, tgt.n * p.d)


def reference_velocity_and_residuals(spec, pts):
    """Closed-loop velocity and residuals through one ``bincount`` per axis."""
    tgt = spec.target
    n = tgt.n
    ap, l1, l2 = _triple_index_arrays(tgt.triples)
    rstar = tgt.values
    gain = spec.gain.blocks if spec.law is Law.NONGRADIENT else None
    s = rstar.size
    leg_rows = np.nonzero(l1 == l2)[0] if gain is not None else np.arange(s)
    heads = np.concatenate([ap, ap])
    tails = np.concatenate([l1, l2])
    leg_sel = np.concatenate([s + leg_rows, leg_rows])
    scatter_idx = np.concatenate([heads, l1[leg_rows], l2[leg_rows]])

    edges = pts[heads] - pts[tails]
    delta = np.vecdot(edges[:s], edges[s:]) - rstar
    scaled = edges * np.concatenate([delta, delta])[:, None]
    weights = np.concatenate([scaled, -scaled[leg_sel]])
    grad = np.empty_like(pts)
    for axis in range(pts.shape[1]):
        grad[:, axis] = np.bincount(scatter_idx, weights[:, axis], minlength=n)
    if gain is None:
        return -grad, delta
    return -np.matvec(gain, grad), delta


def reference_gain_search(tgt, trials, seed):
    """The per-trial search that the blocked one replaced: a GainMatrix, its
    Jacobian and one ``eigvals`` per trial, judged by the stability rule
    written out here."""
    d = tgt.d
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        entries = rng.uniform(-1.5, 1.5, size=(tgt.n, d))
        gain = GainMatrix(tuple(np.diag(row) for row in entries))
        ev = np.linalg.eigvals(jacobian_at_target(tgt, gain))
        tol = 1e-6 * float(np.max(np.abs(ev)))
        near_zero = np.abs(ev) <= tol
        if int(near_zero.sum()) == d * (d + 1) // 2 and np.all(ev.real[~near_zero] > tol):
            return gain
    return None


def same_gain_bits(a, b):
    """Both searches found nothing, or found gains with identical bytes."""
    if a is None or b is None:
        return a is None and b is None
    return a.blocks.tobytes() == b.blocks.tobytes()


def residuals(p, tgt):
    """The paper's delta(p): constraint values at p minus the target values."""
    return weak_rigidity_function(Framework(tgt.graph, p), tgt.triples) - tgt.values


def total_cost(p, tgt):
    """The paper's V(p) = 0.5 |delta(p)|^2, zero exactly on the target shapes."""
    delta = residuals(p, tgt)
    return 0.5 * float(delta @ delta)


def local_cost(i, p, tgt):
    """Agent i's local cost V_i, as a per-triple loop: half the squared
    residual of each angle triple with apex i and of each distance triple on
    an edge at i (so every edge is counted by both of its ends)."""
    delta = residuals(p, tgt)
    total = 0.0
    for t, (a, j, k) in enumerate(tgt.triples.triples):
        if j == k:
            if i == a or i == j:
                total += 0.5 * float(delta[t] ** 2)
        elif i == a:
            total += 0.5 * float(delta[t] ** 2)
    return total


def reference_integrate(cfg):
    """Classical RK4 over ``reference_velocity_and_residuals``, recording like
    ``integrate``: every record_every-th step, the last step, and the stop.

    Returns (times, positions, residuals, costs, termination) as arrays.
    """
    spec = cfg.controller
    h = cfg.h
    n_steps = max(1, int(math.ceil(cfg.t_max / h - 1e-9)))
    times, positions, residuals, costs = [], [], [], []

    def record(t, pts, delta, cost):
        times.append(t)
        positions.append(pts.copy())
        residuals.append(delta.copy())
        costs.append(cost)

    def finish(termination):
        return (np.array(times), np.array(positions), np.array(residuals),
                np.array(costs), termination)

    pts = cfg.initial.points.copy()
    vel, delta = reference_velocity_and_residuals(spec, pts)
    cost = 0.5 * float(delta @ delta)
    record(0.0, pts, delta, cost)
    if cost < cfg.stop_cost:
        return finish("stop_cost")
    for step in range(1, n_steps + 1):
        k1 = vel
        k2 = reference_velocity_and_residuals(spec, pts + 0.5 * h * k1)[0]
        k3 = reference_velocity_and_residuals(spec, pts + 0.5 * h * k2)[0]
        k4 = reference_velocity_and_residuals(spec, pts + h * k3)[0]
        pts = pts + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        vel, delta = reference_velocity_and_residuals(spec, pts)
        cost = 0.5 * float(delta @ delta)
        if cost < cfg.stop_cost:
            record(step * h, pts, delta, cost)
            return finish("stop_cost")
        if step % cfg.record_every == 0 or step == n_steps:
            record(step * h, pts, delta, cost)
    return finish("t_max")


# A closed triple set, where each angle triple's legs are distance triples of
# the set too, is a set of distance constraints on its derived graph: by the
# law of cosines e_ij·e_ik = ½(|p_i−p_j|² + |p_i−p_k|² − |p_j−p_k|²).

def derived_graph(t):
    """The edges of the derived graph Ĝ of triple set ``t``, canonical and
    sorted as ``Graph`` sorts them: the edge of each distance triple (i, j, j)
    and the chord jk of each angle triple (i, j, k)."""
    return tuple(sorted({(min(i, j), max(i, j)) if j == k else (j, k) for i, j, k in t.triples}))


def derived_matrix(t):
    """The s × |Ĝ| matrix A with R_w(t) = A·R(Ĝ) on a closed set ``t``,
    columns in ``derived_graph`` order: a distance row is 1 on its edge, and
    an angle row (i, j, k) is ½ on the legs ij and ik and −½ on the chord jk.
    A leg missing from Ĝ, so a set that is not closed, raises KeyError."""
    col = {e: c for c, e in enumerate(derived_graph(t))}
    a = np.zeros((t.s, len(col)))
    for r, (i, j, k) in enumerate(t.triples):
        if j == k:
            a[r, col[min(i, j), max(i, j)]] = 1.0
        else:
            a[r, col[min(i, j), max(i, j)]] = a[r, col[min(i, k), max(i, k)]] = 0.5
            a[r, col[j, k]] = -0.5
    return a


# Reference triple-set operations: the library's first per-triple loops,
# kept so the array versions can be checked against them exactly.

def _edge_set(graph):
    return frozenset(graph.edges)


def _has_edge(edges, i, j):
    return (min(i, j), max(i, j)) in edges


def reference_full_triple_set(g):
    """Nested loop over each vertex's sorted neighbors; sorted tuples."""
    trips = [distance_triple(i, j) for i, j in g.edges]
    adj = reference_adjacency(g.n, g.edges)
    for i in range(1, g.n + 1):
        nb = adj[i]
        for a in range(len(nb)):
            for b in range(a + 1, len(nb)):
                trips.append((i, nb[a], nb[b]))
    return tuple(sorted(trips))


def reference_int_row(t, width, noun, shape):
    """One entry's labels, each read with ``operator.index``, or the InputError
    for an entry that is not a sequence, a non-integer label or the wrong
    width."""
    try:
        labels = tuple(t)
    except TypeError:
        raise InputError(f"{noun} {t!r} is not {shape}") from None
    try:
        row = tuple(operator.index(v) for v in labels)
    except TypeError:
        raise InputError(f"{noun} {labels!r} has a non-integer label") from None
    if len(row) != width:
        raise InputError(f"{noun} {row!r} is not {shape}")
    return row


def reference_validate_triples(triples):
    """Per-triple checks in input order; canonical int tuples or InputError."""
    canon = []
    seen = set()
    for t in triples:
        trip = reference_int_row(t, 3, "triple", "an (i, j, k) triple")
        i, j, k = trip
        if not all(-2**63 <= v < 2**63 for v in trip):
            raise InputError(f"triple ({i},{j},{k}) has a label outside the int64 range")
        if j > k:
            raise InputError(f"triple ({i},{j},{k}) must have legs ordered j <= k")
        if i == j or i == k:
            raise InputError(f"triple ({i},{j},{k}) apex equals a leg")
        key = ("d", min(i, j), max(i, j)) if j == k else ("a", i, j, k)
        if key in seen:
            raise InputError(f"duplicate constraint ({i},{j},{k})")
        seen.add(key)
        canon.append(trip)
    return tuple(canon)


def reference_require_valid_for(graph, triples):
    edges = _edge_set(graph)
    for i, j, k in triples:
        if not _has_edge(edges, i, j) or not _has_edge(edges, i, k):
            raise InputError(f"triple ({i},{j},{k}) references a non-edge")


def reference_restrict_triples_to_tree(tree, triples):
    edges = _edge_set(tree)
    return tuple(t for t in triples
                 if _has_edge(edges, t[0], t[1]) and _has_edge(edges, t[0], t[2]))


def reference_build_formation_triples(gf, gs):
    if gf.n != gs.n:
        raise InputError("formation and sensing graphs must share the vertex set")
    sensing = _edge_set(gs)
    for e in gf.edges:
        if not _has_edge(sensing, *e):
            raise InputError(f"formation edge {e} missing from the sensing graph")
    return tuple((i, j, k) for i, j, k in reference_full_triple_set(gf)
                 if j == k or _has_edge(sensing, j, k))


def reference_recorder_build(edges, positions):
    """Edge lengths, minimum pairwise distance and centered-point rank of the
    recorded positions: one norm per edge, and the full (T, n, n, d)
    difference array for the distances."""
    pos = np.array(positions)
    nsamp = pos.shape[0]
    elens = np.zeros((nsamp, len(edges)))
    for col, (i, j) in enumerate(edges):
        elens[:, col] = np.linalg.norm(pos[:, i - 1] - pos[:, j - 1], axis=1)
    diff = pos[:, :, None, :] - pos[:, None, :, :]
    dists = np.sqrt(np.einsum("tijk,tijk->tij", diff, diff))
    iu = np.triu_indices(pos.shape[1], k=1)
    min_dist = (dists[:, iu[0], iu[1]].min(axis=1)
                if iu[0].size else np.full(nsamp, np.inf))
    return elens, min_dist, numerical_rank(pos - pos.mean(axis=1, keepdims=True))


# Reference graph construction and collinearity test: the per-edge validation
# loop, the tuple adjacency and the per-pair collinearity loop the library used
# before its CSR adjacency and stacked collinearity test.

def reference_graph_edges(n, edges):
    """Canonical sorted edges, or the error of the first bad edge in input
    order; duplicates are reported only once every edge is valid."""
    canon = []
    for e in edges:
        i, j = reference_int_row(e, 2, "edge", "a pair")
        if i == j:
            raise InputError(f"self-loop at vertex {i}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise InputError(f"edge ({i},{j}) has an endpoint outside 1..{n}")
        canon.append((min(i, j), max(i, j)))
    if len(set(canon)) != len(canon):
        raise InputError("duplicate edges")
    return tuple(sorted(canon))


def reference_adjacency(n, edges):
    """Sorted neighbour tuple of each vertex 1..n (index 0 unused)."""
    adj = [[] for _ in range(n + 1)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    return tuple(tuple(sorted(a)) for a in adj)


def reference_bfs(g):
    """Visit order and parents of a queue BFS from vertex 1, 0-based, with an
    unreached vertex's parent -1 and vertex 1 its own parent."""
    adj = reference_adjacency(g.n, g.edges)
    parent = [-1] * g.n
    parent[0] = 0
    order = [0]
    queue = deque([1])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if parent[v - 1] < 0:
                parent[v - 1] = u - 1
                order.append(v - 1)
                queue.append(v)
    return order, parent


def reference_are_collinear(u, v):
    """|u ^ v| <= 1e-9 |u| |v|, over the 2x2 minors u_a v_b - u_b v_a, a < b."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    minors = [u[a] * v[b] - u[b] * v[a] for a in range(u.size) for b in range(a + 1, u.size)]
    return math.hypot(*minors) <= 1e-9 * (np.linalg.norm(u) * np.linalg.norm(v))


def projection_are_collinear(u, v):
    """The rejection of u from v against 1e-9 |u|: the same criterion as
    ``reference_are_collinear`` up to rounding, but at the threshold its
    verdict depends on the order of the arguments."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return True
    w = u - v * ((u @ v) / (nv * nv))
    return float(np.linalg.norm(w)) <= 1e-9 * nu


# The scan ``min_iwr_spanning_tree`` used before it decided skew pairs in
# stacked tests: every edge rescanned per added vertex, one scalar
# collinearity test per pair.

def reference_min_iwr_spanning_tree(f):
    """Grow a spanning tree whose subframework is minimally infinitesimally
    weakly rigid.

    Seeded with the lexicographically smallest edge; each added edge (i, j),
    i inside the tree, must be non-collinear with some tree edge at i.
    Candidates are scanned in lexicographic order, so the result is
    deterministic.
    """
    if f.d != 2:
        raise UnsupportedDimensionError(
            f"tree construction is planar-only (d = 2); got d = {f.d}"
        )
    if f.graph.m == 0:
        raise NoValidExtensionError("graph has no edges to seed the tree")
    p = f.points
    a, b = f.graph.edges[0]
    in_tree = {a, b}
    tree_edges = [(a, b)]
    tree_adj = {a: [b], b: [a]}
    while len(in_tree) < f.n:
        extension = None
        for u, v in f.graph.edges:
            for i, j in ((u, v), (v, u)):
                if i in in_tree and j not in in_tree:
                    if any(not are_collinear(p[i - 1] - p[j - 1], p[i - 1] - p[k - 1])
                           for k in tree_adj[i]):
                        extension = (i, j)
                        break
            if extension:
                break
        if extension is None:
            raise NoValidExtensionError(
                f"no admissible edge extends the tree on vertices {sorted(in_tree)}"
            )
        i, j = extension
        in_tree.add(j)
        tree_edges.append((min(i, j), max(i, j)))
        tree_adj.setdefault(j, []).append(i)
        tree_adj[i].append(j)
    return Graph(f.n, tuple(tree_edges))


# The per-vertex loop ``minimal_triple_set`` used before it built its rows
# with array operations.

def reference_minimal_triple_set(tree, c):
    """Constraint set of exactly 2n-3 triples on a minimally infinitesimally
    weakly rigid spanning tree.

    All n-1 distance constraints, plus per internal vertex i: split the
    neighbors into those collinear with the edge to the smallest neighbor j_i
    and the rest, then take (i, j_i, k) across the split and, if the collinear
    side has more than one member, (i, j, k_i) for the extra members against
    the smallest k_i of the other side.
    """
    if c.d != 2:
        raise UnsupportedDimensionError(
            f"triple-set construction is planar-only (d = 2); got d = {c.d}"
        )
    if tree.n != c.n:
        raise InputError("tree and configuration disagree on the vertex count")
    if len(tree.edges) != tree.n - 1 or not reference_spanning_tree(tree)[0]:
        raise DomainError("not a spanning tree: need n-1 edges forming one component")
    start, src, nbr = tree._csr
    vecs = c.points.take(src, axis=0) - c.points.take(nbr, axis=0)
    # whether each half-edge is collinear with the first one leaving its vertex
    collinear = are_collinear(vecs[start[src]], vecs).tolist()
    start, nbr = start.tolist(), (nbr + 1).tolist()
    trips = [distance_triple(i, j) for i, j in tree.edges]
    for i in range(tree.n):
        lo, hi = start[i], start[i + 1]
        if hi - lo < 2:
            continue
        nb = nbr[lo:hi]
        j_i = nb[0]
        hat = [j_i] + [k for k, col in zip(nb[1:], collinear[lo + 1:hi]) if col]
        rest = [k for k in nb if k not in hat]
        if not rest:
            raise ConstructionError(
                f"vertex {i + 1}: all incident tree edges collinear, tree is not "
                "minimally infinitesimally weakly rigid"
            )
        for k in rest:
            trips.append((i + 1, j_i, k))
        if len(hat) > 1:
            k_i = rest[0]
            for j in hat[1:]:
                trips.append((i + 1, min(j, k_i), max(j, k_i)))
    return TripleSet(tuple(trips))


def reference_collinearity_defects(f):
    adj = reference_adjacency(f.n, f.graph.edges)
    p = f.points
    bad = []
    for i in range(1, f.n + 1):
        nb = adj[i]
        if len(nb) < 2:
            continue
        vecs = [p[i - 1] - p[j - 1] for j in nb]
        if all(reference_are_collinear(u, v) for a, u in enumerate(vecs) for v in vecs[a + 1:]):
            bad.append(i)
    return bad


def reference_trivial_motion_basis(c):
    """Rigid-motion columns built one loop iteration per column, then QR."""
    n, d = c.n, c.d
    p = c.points
    cols = []
    for a in range(d):
        col = np.zeros((n, d))
        col[:, a] = 1.0
        cols.append(col.reshape(-1))
    for a in range(d):
        for b in range(a + 1, d):
            gen = np.zeros((d, d))
            gen[a, b] = -1.0
            gen[b, a] = 1.0
            cols.append((p @ gen.T).reshape(-1))
    return np.linalg.qr(np.column_stack(cols))[0]


# Reference graph and shape routines: the per-edge loops, the deque BFS and the
# eigh-based recovery the library used before, kept so the gathers, scatters
# and the tree-block recovery can be checked against them.

def reference_incidence(g):
    h = np.zeros((g.m, g.n))
    for row, (i, j) in enumerate(g.edges):
        h[row, i - 1] = -1.0
        h[row, j - 1] = 1.0
    return h


def reference_edge_vector_matrix(f):
    p = f.points
    cols = [p[i - 1] - p[j - 1] for i, j in f.graph.edges]
    return np.array(cols).T.reshape(f.d, f.graph.m)


def reference_spanning_tree(g):
    """BFS from vertex 1 over a deque, neighbours ascending. Returns whether it
    reached every vertex, and the sorted tree edges."""
    adj = reference_adjacency(g.n, g.edges)
    seen = {1}
    queue = deque([1])
    tree_edges = []
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                tree_edges.append((min(u, v), max(u, v)))
                queue.append(v)
    return len(seen) == g.n, tuple(sorted(tree_edges))


def reference_recover_shape(g, graph, d):
    """Top-d eigenpairs of the whole m x m Gram matrix, edge vectors integrated
    along the BFS tree by a depth-first walk. For realizable input only: it
    checks neither PSD, rank nor the cycle law."""
    connected, tree_edges = reference_spanning_tree(graph)
    assert connected
    g = np.asarray(g, dtype=float)
    m = graph.m
    pts = np.zeros((graph.n, d))
    if m == 0:
        return Configuration(pts)
    w, v = np.linalg.eigh(g)
    w = np.clip(w, 0.0, None)
    top_w = w[-d:] if d <= m else np.concatenate([np.zeros(d - m), w])
    top_v = v[:, -d:] if d <= m else np.hstack([np.zeros((m, d - m)), v])
    e = np.sqrt(top_w)[:, None] * top_v.T
    col_of = {edge: c for c, edge in enumerate(graph.edges)}
    adj = {i: [] for i in range(1, graph.n + 1)}
    for a, b in tree_edges:
        adj[a].append(b)
        adj[b].append(a)
    known = {1}
    stack = [1]
    while stack:
        u = stack.pop()
        for vtx in adj[u]:
            if vtx in known:
                continue
            col = e[:, col_of[(min(u, vtx), max(u, vtx))]]
            pts[vtx - 1] = pts[u - 1] - col if u < vtx else pts[u - 1] + col
            known.add(vtx)
            stack.append(vtx)
    return Configuration(pts)


# ``recover_shape`` as it was when it placed the points one child at a time,
# kept so the level-by-level placement can be checked against it bit for bit.

def reference_recover_shape_by_child(g, graph, d, proved_factor=True):
    """Reconstruct coordinates whose edge Gram matrix equals ``g``.

    Checks the (n-1)x(n-1) block of ``g`` on the BFS spanning-tree edges for
    symmetry, PSD (eigenvalues within -1e-10 of the largest are clamped) and
    rank <= d, factors it and places the points along the tree from p_1 =
    origin. It places the factor that ``recover_shape`` chooses: the pivoted
    one of ``_proved_factor`` when that proves the eigh checks and realizes
    ``g``, else the top-d eigenpairs. With ``proved_factor=False`` it always
    takes the eigenpairs, as ``recover_shape`` did before it had that
    factor. The tree edges fix every other edge by the cycle law, so all of
    ``g`` is then certified against the rebuilt framework's Gram matrix: an
    entry off by more than ``PSD_CLAMP_RTOL * max|g|`` raises
    NotRealizableError. The result is congruent to any realization.
    """
    order, parent = _bfs(graph)
    if order.size < graph.n:
        raise DomainError("shape recovery requires a connected graph")
    g = np.asarray(g, dtype=float)
    m = graph.m
    if g.shape != (m, m):
        raise InputError(f"Gram matrix must be {m}x{m} for this graph, got {g.shape}")
    if d < 1:
        raise InputError("dimension must be >= 1")
    if m == 0:
        return Configuration(np.zeros((graph.n, d)))

    child = order[1:]
    up = parent[child]
    tree = graph._edge_ids(up, child)
    gmin, gmax = float(g.min()), float(g.max())
    if not -np.inf < gmin <= gmax < np.inf:
        raise InputError("Gram matrix must be finite")
    scale = max(gmax, -gmin)
    block = g[np.ix_(tree, tree)]
    asym = float(np.max(np.abs(block - block.T)))
    if asym > 1e-12 * scale:
        raise InputError("Gram matrix is not symmetric")
    k = min(d, graph.n - 1)

    def place(factor):
        # p_child - p_parent along each tree edge, whose column holds p_min - p_max
        pts = np.zeros((graph.n, d))
        pts[child, :k] = factor
        pts[child[up < child]] *= -1.0
        for u, c in zip(up, child):  # BFS order places every parent before its children
            pts[c] += pts[u]
        rebuilt = Framework(graph, Configuration(pts))
        e = edge_vector_matrix(rebuilt).T
        tol = PSD_CLAMP_RTOL * scale
        rows = max(1, _STRIP // m)
        for lo in range(0, m, rows):
            gap = float(np.max(np.abs(g[lo:lo + rows] - e[lo:lo + rows] @ e.T)))
            if gap > tol:
                raise NotRealizableError(f"Gram matrix breaks the cycle law by {gap:.3e} "
                                         f"(tolerance {tol:.3e})")
        return rebuilt.config

    x = _proved_factor(block, k, asym) if proved_factor else None
    if x is not None:
        try:
            return place(x)
        except NotRealizableError:
            pass
    w, v = np.linalg.eigh(block)
    if float(w[0]) < -PSD_CLAMP_RTOL * float(w[-1]):
        raise NotRealizableError(
            f"Gram matrix has eigenvalue {w[0]:.3e} below the PSD tolerance"
        )
    w = np.clip(w, 0.0, None)
    rank = int(_rank_of(w[::-1], block.shape))
    if rank > d:
        raise NotRealizableError(
            f"Gram matrix has numerical rank {rank}, not realizable in dimension {d}"
        )
    return place(v[:, -k:] * np.sqrt(w[-k:]))


def reference_recover_shape_eigh(g, graph, d):
    """``recover_shape`` as it was before the pivoted factor: every factor
    from the top-d eigenpairs of the tree block."""
    return reference_recover_shape_by_child(g, graph, d, proved_factor=False)


def eigh_checks_pass(block, d):
    """Whether ``recover_shape``'s eigh rules accept the tree block: no
    eigenvalue below -PSD_CLAMP_RTOL times the largest, and numerical rank
    <= d."""
    w = np.linalg.eigh(block)[0]
    return bool(w[0] >= -PSD_CLAMP_RTOL * w[-1]
                and _rank_of(np.clip(w, 0.0, None)[::-1], block.shape) <= d)


def sparse_planar_framework(rng, n, degree=6, d=2):
    """Generic points on a random connected graph with about degree * n / 2
    edges: each vertex after the first joins a uniformly drawn earlier one,
    and the rest are uniform pairs, duplicates and loops dropped. Vectorized,
    so n = 10^4 costs milliseconds."""
    a = np.concatenate([np.arange(1, n), rng.integers(0, n, max(0, degree * n // 2 - n + 1))])
    b = np.concatenate([(rng.random(n - 1) * np.arange(1, n)).astype(int),
                        rng.integers(0, n, a.size - n + 1)])
    pairs = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)
    edges = np.unique(pairs[pairs[:, 0] < pairs[:, 1]], axis=0) + 1
    return Framework(Graph(n, edges), Configuration(rng.uniform(-1.0, 1.0, (n, d))))


def _reference_fmt(x):
    return f"{float(x):.9g}"


def reference_write_eigenvalue_csv(path, eigenvalues):
    """The per-row eigenvalue writer that ``np.savetxt`` replaced."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("re,im\n")
        for ev in np.asarray(eigenvalues, dtype=complex):
            fh.write(f"{_reference_fmt(ev.real)},{_reference_fmt(ev.imag)}\n")


def reference_write_trace_csv(path, trace):
    """The per-row trace writer that ``np.savetxt`` replaced."""
    nsamp, n, d = trace.positions.shape

    def axis(a):
        return "xyz"[a] if a < 3 else f"c{a + 1}"

    header = ["t"]
    for i in range(1, n + 1):
        header += [f"p{i}{axis(a)}" for a in range(d)]
    header += ["V", "delta_norm", "minDist"]
    header += [f"cent{axis(a).upper()}" for a in range(d)]
    header += ["rankP"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in range(nsamp):
            vals = [trace.times[row]]
            vals += list(trace.positions[row].reshape(-1))
            vals += [trace.cost[row], trace.residual_norm[row], trace.min_distance[row]]
            vals += list(trace.centroid[row])
            out = ",".join(_reference_fmt(v) for v in vals)
            fh.write(f"{out},{int(trace.rank_p[row])}\n")
