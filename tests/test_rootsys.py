from fractions import Fraction

import pytest

from anosovkit import rootsys
from oracles import reflection_closure_oracle


def test_counts():
    assert rootsys.build_root_system("A", 2).root_count() == 6
    assert rootsys.build_root_system("A", 1).root_count() == 2
    assert rootsys.build_root_system("BC", 2).root_count() == 12
    assert rootsys.build_root_system("B", 3).root_count() == 18
    assert rootsys.build_root_system("C", 2).root_count() == 8
    assert rootsys.build_root_system("D", 4).root_count() == 24


def test_negation_closure():
    for tl, r in [("A", 3), ("B", 2), ("C", 3), ("D", 3), ("BC", 2)]:
        system = rootsys.build_root_system(tl, r)
        roots = set(system.roots)
        assert all(tuple(-x for x in root) in roots for root in roots)


def test_invalid_type():
    with pytest.raises(rootsys.InvalidType):
        rootsys.build_root_system("E", 8)
    with pytest.raises(rootsys.InvalidType):
        rootsys.build_root_system("D", 2)


@pytest.mark.parametrize("tl,rmin", [("A", 1), ("B", 2), ("C", 2), ("D", 3),
                                     ("BC", 1)])
def test_reflection_closure_oracle(tl, rmin):
    for rank in range(rmin, 5):
        built = set(rootsys.build_root_system(tl, rank).roots)
        oracle = set(reflection_closure_oracle(tl, rank))
        assert built == oracle


def test_bc_proportional_pairs_exactly_doubles():
    system = rootsys.build_root_system("BC", 2)
    roots = list(system.roots)
    from anosovkit.chambers import proportionality_coefficient

    ratios = set()
    for i in range(len(roots)):
        for j in range(len(roots)):
            if i == j:
                continue
            c = proportionality_coefficient(list(roots[i]), list(roots[j]))
            if c is not None and c > 0 and c != 1:
                ratios.add(c)
    assert ratios == {Fraction(2), Fraction(1, 2)}


def test_weyl_flow_data():
    rep, spaces = rootsys.weyl_flow_lyapunov_data(rootsys.build_root_system("A", 2))
    assert rep["coarse_spaces"] == 6
    assert rep["coefficient_sets"] == [["1"]]
    rep_bc, _ = rootsys.weyl_flow_lyapunov_data(rootsys.build_root_system("BC", 2))
    assert ["1", "2"] in rep_bc["coefficient_sets"]
    rep_c, _ = rootsys.weyl_flow_lyapunov_data(rootsys.build_root_system("C", 2))
    assert rep_c["coefficient_sets"] == [["1"]]


def test_coefficients_subset_12():
    for tl, rmin in [("A", 2), ("B", 2), ("C", 2), ("D", 3), ("BC", 2)]:
        for rank in range(rmin, 5):
            _, spaces = rootsys.weyl_flow_lyapunov_data(
                rootsys.build_root_system(tl, rank))
            for s in spaces:
                assert set(s.coefficients) <= {Fraction(1), Fraction(2)}


def test_smoothness_classes():
    assert rootsys.smoothness_class_report(
        rootsys.build_root_system("A", 2))["class"] == "C4"
    assert rootsys.smoothness_class_report(
        rootsys.build_root_system("BC", 2))["class"] == "C6"
    assert rootsys.smoothness_class_report(
        rootsys.build_root_system("D", 3))["class"] == "C4"
    for n in range(2, 5):
        assert rootsys.smoothness_class_report(
            rootsys.build_root_system("A", n))["class"] == "C4"
        assert rootsys.smoothness_class_report(
            rootsys.build_root_system("BC", n))["class"] == "C6"


def test_rank_one_warning():
    rep = rootsys.smoothness_class_report(rootsys.build_root_system("A", 1))
    assert rep["rank_warning"]


def test_multiplicities():
    system = rootsys.build_root_system("BC", 2, {"e": 3, "2e": 1, "e+e": 2})
    _, spaces = rootsys.weyl_flow_lyapunov_data(system)
    short_spaces = [s for s in spaces if len(s.coefficients) == 2]
    assert all(s.dimension == 4 for s in short_spaces)  # 3 (short) + 1 (double)
