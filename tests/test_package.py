"""The package surface: every module's public names, each listed once."""

import jacograph
from jacograph import fibonacci, graphs, irregularity, jaco, theorems

# The names the package listed by hand before it read the modules' lists.
EARLIER_NAMES = """
    fib signed_weight_of_degree SimpleGraph path cycle star complete_bipartite
    degree_sequence disjoint_union edge_joint to_dot to_edge_list from_edge_list
    IrrValue METHOD_NAIVE METHOD_SORTED METHOD_CLOSED irr_t firr_t firr_pm
    pair_sum_naive degree_histogram pair_sum_histogram add_histograms
    cross_pair_sum star_firr_closed biclique_firr_closed is_f_regular
    JacoProfile build_profile out_degree underlying_degrees
    underlying_degree_counts underlying_graph prime_jaconian_index THEOREM_IDS
    CheckRecord VerifyReport thm21_rhs thm31_rhs thm21_check thm31_check
    thm32_check cor31_check lemma31_check thm33_exact thm33_literal thm33_check
    verify_sweep __version__
""".split()


def test_package_all_is_the_modules_all_lists():
    modules = (fibonacci, graphs, irregularity, jaco, theorems)
    expected = [name for module in modules for name in module.__all__] + ["__version__"]
    assert jacograph.__all__ == expected
    assert len(set(jacograph.__all__)) == len(jacograph.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(jacograph, name) is getattr(module, name)
    assert isinstance(jacograph.__version__, str)


def test_package_keeps_every_earlier_name():
    assert len(EARLIER_NAMES) == 50
    assert set(EARLIER_NAMES) <= set(jacograph.__all__)
    for name in ("fib_pair", "pair_sum_unit_head", "underlying_metric", "iter_checks"):
        assert name in jacograph.__all__
