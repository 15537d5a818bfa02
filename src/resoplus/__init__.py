"""Desk-scale toolkit for resolution over parities.

Builds lifted Tseitin contradictions, computes F2 closure and amortized
closure, analyzes gadget spectra exactly, samples the hard distribution over
edge assignments, plays the coin game against decision trees, verifies the
fooling and equidistribution bounds by exact counting, and checks
Res(oplus) refutations as affine DAGs.
"""

from .blocks import (
    BlockLayout,
    ClosureAssignment,
    amortized_closure,
    closure,
    is_safe,
    restrict,
    substitute,
)
from .cnf import Cnf
from .dtfooling import RootedSample, exact_root_distribution, root_of, root_space
from .f2 import (
    EMPTY,
    AffineSpace,
    FVec,
    enumerate_points,
    full_space,
    rank_of_rows,
    space_from_pairs,
)
from .gadget import (
    Gadget,
    LiftedDistribution,
    Spectrum,
    ip_gadget,
    lift_cnf,
    lift_eval,
    max_fourier,
    preimages,
    sample_lifted,
    walsh_spectrum,
)
from .lemmalab import (
    ErrorBudget,
    check_conditional_fooling,
    check_exponential_sum,
    check_uniform_coset,
    closure_law_suite,
    counterexample_demo,
)
from .pdt import (
    GameTranscript,
    Pdt,
    block_complete,
    coin_game,
    hardness_experiment,
    run_unlifted_game,
    wilson_interval,
)
from .resproof import ProofDag, check, metrics, parse_text, pdt_refute
from .tseitin import (
    EdgePartialAssignment,
    Graph,
    TseitinCnf,
    analyze_partial,
    brute_unsat,
    complete_graph,
    cycle_graph,
    expander_metrics,
    random_regular_graph,
    tseitin_cnf,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSpace",
    "BlockLayout",
    "ClosureAssignment",
    "Cnf",
    "EMPTY",
    "EdgePartialAssignment",
    "ErrorBudget",
    "FVec",
    "Gadget",
    "GameTranscript",
    "Graph",
    "LiftedDistribution",
    "Pdt",
    "ProofDag",
    "RootedSample",
    "Spectrum",
    "TseitinCnf",
    "amortized_closure",
    "analyze_partial",
    "block_complete",
    "brute_unsat",
    "check",
    "check_conditional_fooling",
    "check_exponential_sum",
    "check_uniform_coset",
    "closure",
    "closure_law_suite",
    "coin_game",
    "complete_graph",
    "counterexample_demo",
    "cycle_graph",
    "enumerate_points",
    "exact_root_distribution",
    "expander_metrics",
    "full_space",
    "hardness_experiment",
    "ip_gadget",
    "is_safe",
    "lift_cnf",
    "lift_eval",
    "max_fourier",
    "metrics",
    "parse_text",
    "pdt_refute",
    "preimages",
    "random_regular_graph",
    "rank_of_rows",
    "restrict",
    "root_of",
    "root_space",
    "run_unlifted_game",
    "sample_lifted",
    "space_from_pairs",
    "substitute",
    "tseitin_cnf",
    "walsh_spectrum",
    "wilson_interval",
]
