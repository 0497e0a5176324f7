"""Weak rigidity for frameworks in R^d: rank tests, minimal constraint sets,
shape recovery from edge Gram matrices, and formation-control simulation."""

from .control import (
    ControlEvaluator,
    ControllerSpec,
    FormationTarget,
    GainMatrix,
    Law,
    StabilityReport,
    Verdict,
    barred_weak_rigidity_matrix,
    build_formation_triples,
    classify_stability,
    gain_search,
    gradient_control,
    jacobian_at_target,
    local_cost,
    nongradient_control,
    residuals,
    sort_eigenvalues,
    total_cost,
)
from .errors import (
    ConstructionError,
    DegenerateConfigurationError,
    DivergenceError,
    DomainError,
    FitError,
    InputError,
    NoValidExtensionError,
    NotRealizableError,
    UnsupportedDimensionError,
    UnsupportedRegimeError,
)
from .framework import (
    Configuration,
    Framework,
    TripleSet,
    check_iwr_via_spanning_tree,
    distance_triple,
    edge_weak_rigidity_matrix,
    is_infinitesimally_rigid,
    is_infinitesimally_weakly_rigid,
    points_span_full_dimension,
    required_rank,
    restrict_triples_to_tree,
    rigidity_function,
    rigidity_matrix,
    trivial_motion_basis,
    weak_rigidity_function,
    weak_rigidity_matrix,
)
from .graphs import Graph, incidence, is_connected, neighbors, spanning_tree
from .linalg import are_collinear, numerical_rank
from .shape import (
    Alignment,
    align,
    congruent,
    edge_vector_matrix,
    edm,
    gram,
    recover_shape,
    shape_distance,
    weakly_congruent,
)
from .simulate import (
    InvariantReport,
    SimulationConfig,
    SimulationTrace,
    convergence_rate,
    integrate,
    monitor_invariants,
)
from .triples import (
    check_planar_graphical_condition,
    collinearity_defects,
    full_triple_set,
    min_iwr_spanning_tree,
    minimal_triple_set,
)

__version__ = "0.1.0"
