"""The package's public names, each looked up in its submodule on first use."""

import importlib
import subprocess
import sys

import pytest

import tentopt

# tentopt.__all__ as the package listed it when it imported every submodule
ALL = [
    "ANCHOR_INDEX", "BudgetExceededError", "Certificate", "DEFAULT_BUDGET", "DiscreteRV",
    "EdgeDistribution", "Family", "FeasiblePoint", "Hypergraph", "JointRV",
    "LagrangianResult", "OptimizationReport", "PartialHypergraph", "RatioSequence",
    "RegionConstraints", "SearchBudget", "SegmentDecomposition", "SimplexPoint", "TentSpec",
    "bend_point", "blowup", "blowup_density", "brute_force_ex", "certificates",
    "check_feasible", "conditional_entropy", "counterexample_point", "density_lower_bound",
    "edge_polynomial", "entropic_density", "entropy", "extend", "find_homomorphism",
    "find_isomorphism", "find_partial_homomorphism", "forest_sequence", "fprime_zero",
    "homs", "hypergraphs", "is_hom_free", "is_isomorphic", "isomorphism", "kkt_certificate",
    "lagrangian", "make_general_tent", "make_partial_tent", "make_tent", "make_turan_graph",
    "maximize_product", "mixture", "mixture_bound_witness", "perturb", "quartic_inequality",
    "ratio_sequence", "region", "segments", "suffix_entropy_matrix",
    "tent_family", "tree_sampler_entropy", "verify_certificate",
    "verify_extension_equivalence", "verify_ratio_constraints",
]
SUBMODULES = ["certificates", "entropy", "homs", "hypergraphs", "isomorphism", "lagrangian",
              "region"]


def test_all_is_unchanged():
    assert tentopt.__all__ == ALL
    assert set(ALL) <= set(dir(tentopt))


def test_every_name_is_its_submodule_object():
    for name in SUBMODULES:
        assert getattr(tentopt, name) is importlib.import_module(f"tentopt.{name}"), name
    for name in set(ALL) - set(SUBMODULES):
        module = importlib.import_module(f"tentopt.{tentopt._ORIGIN[name]}")
        assert getattr(tentopt, name) is vars(module)[name], name
    # the modules keep their names; their same-named functions stay in them
    assert callable(tentopt.lagrangian.lagrangian) and callable(tentopt.entropy.entropy)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from tentopt import *", namespace)
    assert all(namespace[name] is getattr(tentopt, name) for name in ALL)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        tentopt.no_such_name
    assert not hasattr(tentopt, "_no_such_module")


def test_import_loads_only_what_is_used():
    # a fresh interpreter: the package loads its exact core and no numpy;
    # exact names load nothing more, and a numpy module loads only on use
    code = ("import sys\n"
            "import tentopt\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.split('.')[0] in ('tentopt', 'numpy', 'scipy'))\n"
            "print(loaded())\n"
            "tentopt.maximize_product(9, 4)\n"
            "tentopt.verify_certificate\n"
            "print(loaded())\n"
            "tentopt.lagrangian\n"
            "print('numpy' in sys.modules, 'tentopt.entropy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    core = "['tentopt', 'tentopt.certificates', 'tentopt.region']"
    assert proc.stdout.splitlines() == [core, core, "True False"]
