"""Exact desk-scale toolkit for query-to-communication lifting.

Gadget discrepancy analysis, density/structure machinery, dangerous-value
classification, and deterministic/randomized protocol-to-decision-tree
simulations, all in exact rational arithmetic with brute-force oracles.

The public names below resolve on first use (PEP 562), each by importing its
home module only, so ``from liftsim import discrepancy`` loads neither the
simulation nor the structure layer.
"""

from fractions import Fraction
from importlib import import_module

# each public name -> its home module
_HOMES = {name: module for module, names in {
    "dist": "DistributionTable bias fourier_coefficient fourier_inversion "
            "min_entropy_at_least project statistical_distance vazirani_minentropy_check "
            "vazirani_uniformity_check xor_bias",
    "dtrees": "ParallelDecisionTree RandomizedTree SearchProblem brute_force_Ddt "
              "randomized_error run_tree solves",
    "errors": "BudgetError DomainError FormatError InvariantError LiftsimError NullEventError",
    "exact": "cmp_pow2 cmp_pow2_ratio cmp_products frac_decimal frac_str log2_bounds",
    "gadgets": "Gadget Rectangle builtin_gadget check_xor_lemma discrepancy extractor_check "
               "random_gadget rectangle_discrepancy sampling_check xor_power",
    "protocols": "ProtocolTree RandomizedProtocol canonical_protocol complexity "
                 "kraft_heavy_message message_distribution run_protocol",
    "simulate": "LiftingParams SimResult certify_transcript compose_eval "
                "enumerate_output_distribution extract_parallel_tree ledger_assertions "
                "lift_deterministic lift_randomized reference_distribution",
    "structure": "DangerScan Restriction dangerous_probability density_restoring_fix "
                 "density_restoring_partition is_biasing is_dangerous is_dense is_leaking "
                 "is_skewing is_sparsifying is_structured max_density",
}.items() for name in names.split()}

__all__ = sorted(_HOMES)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module 'liftsim' has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOMES))
