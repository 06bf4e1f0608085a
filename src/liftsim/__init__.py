"""Exact desk-scale toolkit for query-to-communication lifting.

Gadget discrepancy analysis, density/structure machinery, dangerous-value
classification, and deterministic/randomized protocol-to-decision-tree
simulations, all in exact rational arithmetic with brute-force oracles.
"""

from fractions import Fraction

from .dist import (
    DistributionTable,
    bias,
    fourier_coefficient,
    fourier_inversion,
    min_entropy_at_least,
    project,
    statistical_distance,
    vazirani_minentropy_check,
    vazirani_uniformity_check,
    xor_bias,
)
from .dtrees import (
    ParallelDecisionTree,
    RandomizedTree,
    SearchProblem,
    brute_force_Ddt,
    randomized_error,
    run_tree,
    solves,
)
from .errors import (
    BudgetError,
    DomainError,
    FormatError,
    InvariantError,
    LiftsimError,
    NullEventError,
)
from .exact import cmp_pow2, cmp_pow2_ratio, cmp_products, frac_decimal, frac_str, log2_bounds
from .gadgets import (
    Gadget,
    Rectangle,
    builtin_gadget,
    check_xor_lemma,
    discrepancy,
    extractor_check,
    random_gadget,
    rectangle_discrepancy,
    sampling_check,
    xor_power,
)
from .protocols import (
    ProtocolTree,
    RandomizedProtocol,
    canonical_protocol,
    complexity,
    kraft_heavy_message,
    message_distribution,
    run_protocol,
)
from .simulate import (
    LiftingParams,
    SimResult,
    certify_transcript,
    compose_eval,
    enumerate_output_distribution,
    extract_parallel_tree,
    ledger_assertions,
    lift_deterministic,
    lift_randomized,
    reference_distribution,
)
from .structure import (
    DangerScan,
    Restriction,
    dangerous_probability,
    density_restoring_fix,
    density_restoring_partition,
    is_biasing,
    is_dangerous,
    is_dense,
    is_leaking,
    is_skewing,
    is_sparsifying,
    is_structured,
    max_density,
)

__version__ = "0.1.0"
