"""Tent families, homomorphism checks, Lagrangian and entropic densities,
and the product-maximization region that ties them together."""

from .hypergraphs import (
    Family,
    Hypergraph,
    PartialHypergraph,
    TentSpec,
    blowup,
    extend,
    make_general_tent,
    make_partial_tent,
    make_tent,
    make_turan_graph,
    tent_family,
)
from .homs import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    SearchBudget,
    brute_force_ex,
    find_homomorphism,
    find_partial_homomorphism,
    is_hom_free,
    verify_extension_equivalence,
)
from .lagrangian import (
    LagrangianResult,
    SimplexPoint,
    blowup_density,
    density_lower_bound,
    edge_polynomial,
    lagrangian,
)
from .region import (
    FeasiblePoint,
    OptimizationReport,
    RegionConstraints,
    SegmentDecomposition,
    bend_point,
    check_feasible,
    counterexample_point,
    fprime_zero,
    kkt_certificate,
    maximize_product,
    perturb,
    probe_floor_case,
    quartic_inequality,
    region_bracket,
    segments,
    upper_bound_gap,
)
from .certificates import ANCHOR_INDEX, Certificate, verify_certificate
from .isomorphism import find_isomorphism, is_isomorphic
# the entropy() function itself stays in the submodule so that
# `tentopt.entropy` keeps naming the module
from .entropy import (
    DiscreteRV,
    EdgeDistribution,
    JointRV,
    RatioSequence,
    conditional_entropy,
    entropic_density,
    forest_sequence,
    mixture,
    mixture_bound_witness,
    ratio_sequence,
    tree_sampler_entropy,
    verify_ratio_constraints,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
