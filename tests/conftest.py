import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    settings = None

from weakrig import (
    Configuration,
    FormationTarget,
    Framework,
    GainMatrix,
    Graph,
    TripleSet,
    full_triple_set,
)

if settings is not None:
    # the same examples on every run, so tier-1 results are reproducible
    settings.register_profile("weakrig", derandomize=True, deadline=None, database=None)
    settings.load_profile("weakrig")

SQRT3 = np.sqrt(3.0)

# Regular hexagon with side 2; the constraint graph is the 5-edge path+spur.
HEXAGON_POINTS = np.array([
    [2.0, 0.0],
    [4.0, 0.0],
    [5.0, SQRT3],
    [4.0, 2.0 * SQRT3],
    [2.0, 2.0 * SQRT3],
    [1.0, SQRT3],
])
HEXAGON_EDGES = ((1, 2), (2, 3), (3, 4), (4, 5), (1, 6))

# Published block-diagonal gain and the two eigenvalue lists it certifies.
DESIGNED_GAIN_DIAGS = (
    (0.3, -0.04), (0.15, 1.34), (0.23, 1.09),
    (1.32, 0.34), (1.32, 0.21), (-0.45, 0.42),
)
EIGS_IDENTITY_GAIN = np.array([
    45.9712, 40.4991, 32.7903, 24.0000, 15.8549, 10.0916,
    5.6563, 1.4093, -0.2727, 0.0, 0.0, 0.0,
], dtype=complex)
EIGS_DESIGNED_GAIN = np.array([
    48.9899, 36.7915, 12.6938, 8.1539, 3.7883, 2.7087, 1.7132,
    0.1053 + 0.1757j, 0.1053 - 0.1757j, 0.0, 0.0, 0.0,
])

# 3D counter-example pair: a 4-cycle that is minimally weakly rigid in R^3
# with the listed 6 triples, and a 3-edge path that is not weakly rigid.
FOURCYCLE_3D_EDGES = ((1, 3), (1, 4), (2, 3), (2, 4))
FOURCYCLE_3D_TRIPLES = ((1, 3, 3), (1, 4, 4), (2, 3, 3), (2, 4, 4), (1, 3, 4), (3, 1, 2))
PATH_3D_EDGES = ((1, 4), (2, 3), (2, 4))
PATH_3D_TRIPLES = ((4, 1, 1), (4, 2, 2), (3, 2, 2), (4, 1, 2), (2, 3, 4))

# Star on 6 vertices whose center sees three collinear neighbors (2, 5, 6)
# and two generic ones (3, 4).
STAR_POINTS = np.array([
    [0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [-0.5, 1.3], [-1.0, 0.0], [-2.0, 0.0],
])
STAR_EDGES = ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6))

# Two-leaf star with edges (1, 2) and (1, 3) whose angle sits at the
# collinearity threshold: |e12 ^ e13| exceeds 1e-9 * |e12| * |e13| by a
# relative 1.3e-8, so the two edges are skew.
BORDERLINE_STAR_POINTS = np.array([
    [0.0, 0.0], [-0.2873877078086663, 1.5744082788445868],
    [-23.966538584310683, 131.29690492505637],
])


@pytest.fixture
def hexagon_graph():
    return Graph(6, HEXAGON_EDGES)


@pytest.fixture
def hexagon_config():
    return Configuration(HEXAGON_POINTS)


@pytest.fixture
def hexagon_framework(hexagon_graph, hexagon_config):
    return Framework(hexagon_graph, hexagon_config)


@pytest.fixture
def hexagon_triples(hexagon_graph):
    return full_triple_set(hexagon_graph)


@pytest.fixture
def hexagon_target(hexagon_graph, hexagon_triples, hexagon_config):
    return FormationTarget(hexagon_graph, hexagon_triples, hexagon_config)


@pytest.fixture
def designed_gain():
    return GainMatrix(tuple(np.diag(v) for v in DESIGNED_GAIN_DIAGS))


@pytest.fixture
def collinear_star():
    g = Graph(3, ((1, 2), (1, 3)))
    return Framework(g, Configuration(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])))


@pytest.fixture
def fourcycle_3d():
    graph = Graph(4, FOURCYCLE_3D_EDGES)
    return graph, TripleSet(FOURCYCLE_3D_TRIPLES)


@pytest.fixture
def path_3d():
    graph = Graph(4, PATH_3D_EDGES)
    return graph, TripleSet(PATH_3D_TRIPLES)
