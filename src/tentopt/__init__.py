"""Tent families, homomorphism checks, Lagrangian and entropic densities,
and the product-maximization region that ties them together.

The package imports its exact core, ``region`` and ``certificates``, which
need neither numpy nor scipy, and looks every other public name up in its
submodule on first access (PEP 562).  So the exact region code, the
certificates and the CLI commands built on them run without numpy, and a
numpy module loads only when one of its names is used.  The core loads up
front so that the set of loaded tentopt modules does not change when a
tool that patches every loaded module (the benchmark's tracer) imports
``certificates`` itself.  ``tentopt.entropy`` and ``tentopt.lagrangian``
name their modules; the functions of the same names stay in them.
"""

import importlib

from . import certificates  # noqa: F401  (and region, which it imports)

_SUBMODULES = ("certificates", "entropy", "homs", "hypergraphs", "isomorphism",
               "lagrangian", "region")

_EXPORTS = {
    "hypergraphs": (
        "Family", "Hypergraph", "PartialHypergraph", "TentSpec", "blowup", "extend",
        "make_general_tent", "make_partial_tent", "make_tent", "make_turan_graph",
        "tent_family",
    ),
    "homs": (
        "BudgetExceededError", "DEFAULT_BUDGET", "SearchBudget", "brute_force_ex",
        "find_homomorphism", "find_partial_homomorphism", "is_hom_free",
        "verify_extension_equivalence",
    ),
    "lagrangian": (
        "LagrangianResult", "SimplexPoint", "blowup_density", "density_lower_bound",
        "edge_polynomial",
    ),
    "region": (
        "FeasiblePoint", "OptimizationReport", "RegionConstraints", "SegmentDecomposition",
        "bend_point", "check_feasible", "counterexample_point", "fprime_zero",
        "kkt_certificate", "maximize_product", "perturb", "quartic_inequality",
        "segments",
    ),
    "certificates": ("ANCHOR_INDEX", "Certificate", "verify_certificate"),
    "isomorphism": ("find_isomorphism", "is_isomorphic"),
    "entropy": (
        "DiscreteRV", "EdgeDistribution", "JointRV", "RatioSequence",
        "conditional_entropy", "entropic_density", "forest_sequence", "mixture",
        "mixture_bound_witness", "ratio_sequence", "suffix_entropy_matrix",
        "tree_sampler_entropy", "verify_ratio_constraints",
    ),
}
# public name -> the submodule that defines it
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_ORIGIN, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name):
    # nothing is stored here: a loaded submodule is bound by the import
    # system itself, and every other name is read from its submodule
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _ORIGIN:
        return getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
