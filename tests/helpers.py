"""Shared generators and finite-difference oracles for the test suite."""

import math

import numpy as np

from weakrig import (
    Configuration,
    Framework,
    Graph,
    Law,
    TripleSet,
    full_triple_set,
    restrict_triples_to_tree,
)


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
    kept = restrict_triples_to_tree(tree, t)
    col_of = tree.edge_index()
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
    gain = spec.gain.stacked() if spec.law is Law.NONGRADIENT else None
    s = rstar.size
    leg_rows = np.nonzero(l1 == l2)[0] if gain is not None else np.arange(s)
    heads = np.concatenate([ap, ap])
    tails = np.concatenate([l1, l2])
    leg_sel = np.concatenate([s + leg_rows, leg_rows])
    scatter_idx = np.concatenate([heads, l1[leg_rows], l2[leg_rows]])

    edges = pts[heads] - pts[tails]
    delta = np.einsum("ij,ij->i", edges[:s], edges[s:]) - rstar
    scaled = edges * np.concatenate([delta, delta])[:, None]
    weights = np.concatenate([scaled, -scaled[leg_sel]])
    grad = np.empty_like(pts)
    for axis in range(pts.shape[1]):
        grad[:, axis] = np.bincount(scatter_idx, weights[:, axis], minlength=n)
    if gain is None:
        return -grad, delta
    return -np.einsum("nij,nj->ni", gain, grad), delta


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
