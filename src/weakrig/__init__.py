"""Weak rigidity for frameworks in R^d: rank tests, minimal constraint sets,
shape recovery from edge Gram matrices, and formation-control simulation.

``import weakrig`` loads no submodule. The first use of a public name, such as
``weakrig.integrate`` or ``weakrig.control``, imports the module that defines
it (PEP 562). Names are looked up in their module on every access and not
copied here, so ``weakrig.X`` is always ``weakrig.<module>.X``."""

from importlib import import_module as _import_module

_NAMES = {  # module: the public names it defines
    "control": (
        "ControlEvaluator", "ControllerSpec", "FormationTarget", "GainMatrix", "Law",
        "StabilityReport", "Verdict", "barred_weak_rigidity_matrix", "build_formation_triples",
        "classify_stability", "gain_search", "jacobian_at_target", "sort_eigenvalues",
    ),
    "errors": (
        "ConstructionError", "DivergenceError", "DomainError", "FitError", "InputError",
        "NoValidExtensionError", "NotRealizableError", "UnsupportedDimensionError",
        "UnsupportedRegimeError",
    ),
    "framework": (
        "Configuration", "Framework", "TripleSet", "check_iwr_via_spanning_tree",
        "distance_triple", "edge_weak_rigidity_matrix", "is_infinitesimally_rigid",
        "is_infinitesimally_weakly_rigid", "required_rank", "restrict_triples_to_tree",
        "rigidity_matrix", "weak_rigidity_function", "weak_rigidity_matrix",
    ),
    "graphs": ("Graph", "is_connected", "spanning_tree"),
    "linalg": ("are_collinear", "numerical_rank"),
    "shape": (
        "congruent", "edge_vector_matrix", "edm", "gram", "recover_shape", "shape_distance",
        "weakly_congruent",
    ),
    "simulate": (
        "InvariantReport", "SimulationConfig", "SimulationTrace", "convergence_rate",
        "integrate", "monitor_invariants",
    ),
    "triples": (
        "check_planar_graphical_condition", "collinearity_defects", "full_triple_set",
        "min_iwr_spanning_tree", "minimal_triple_set",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted([*_NAMES, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _NAMES:
        return _import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
