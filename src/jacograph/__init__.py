"""Linear Jaco graphs and exact irregularity metrics.

The package derives the degrees of the sequential Jaco construction from a
closed form for its out-degrees (Hofstadter's G-sequence), computes total
irregularity, Fibonacci irregularity, and the signed-weight variant with
exact integer arithmetic, and verifies the recursive and union identities
these metrics satisfy against independent brute-force recomputation.
"""

from .fibonacci import FibCache, fib, signed_weight_of_degree, weight_of_degree
from .graphs import (
    SimpleGraph,
    complete_bipartite,
    cycle,
    degree_sequence,
    disjoint_union,
    edge_joint,
    from_edge_list,
    path,
    star,
    to_dot,
    to_edge_list,
)
from .irregularity import (
    METHOD_CLOSED,
    METHOD_NAIVE,
    METHOD_SORTED,
    IrrValue,
    add_histograms,
    biclique_firr_closed,
    cross_pair_sum,
    degree_histogram,
    firr_pm,
    firr_t,
    irr_t,
    is_f_regular,
    pair_sum_histogram,
    pair_sum_naive,
    star_firr_closed,
)
from .jaco import (
    JacoProfile,
    build_profile,
    out_degree,
    prime_jaconian_index,
    underlying_degree_counts,
    underlying_degrees,
    underlying_graph,
)
from .theorems import (
    THEOREM_IDS,
    CheckRecord,
    VerifyReport,
    cor31_check,
    lemma31_check,
    thm21_rhs,
    thm31_rhs,
    thm32_check,
    thm33_check,
    thm33_exact,
    thm33_literal,
    verify_sweep,
)

__version__ = "1.0.0"

__all__ = [
    "FibCache",
    "fib",
    "weight_of_degree",
    "signed_weight_of_degree",
    "SimpleGraph",
    "path",
    "cycle",
    "star",
    "complete_bipartite",
    "degree_sequence",
    "disjoint_union",
    "edge_joint",
    "to_dot",
    "to_edge_list",
    "from_edge_list",
    "IrrValue",
    "METHOD_NAIVE",
    "METHOD_SORTED",
    "METHOD_CLOSED",
    "irr_t",
    "firr_t",
    "firr_pm",
    "pair_sum_naive",
    "degree_histogram",
    "pair_sum_histogram",
    "add_histograms",
    "cross_pair_sum",
    "star_firr_closed",
    "biclique_firr_closed",
    "is_f_regular",
    "JacoProfile",
    "build_profile",
    "out_degree",
    "underlying_degrees",
    "underlying_degree_counts",
    "underlying_graph",
    "prime_jaconian_index",
    "THEOREM_IDS",
    "CheckRecord",
    "VerifyReport",
    "thm21_rhs",
    "thm31_rhs",
    "thm32_check",
    "cor31_check",
    "lemma31_check",
    "thm33_exact",
    "thm33_literal",
    "thm33_check",
    "verify_sweep",
    "__version__",
]
