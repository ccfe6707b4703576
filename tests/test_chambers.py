import random
from fractions import Fraction

import pytest
from hypothesis import given

from anosovkit import chambers, spectra
from anosovkit.algnum import LogValue
from conftest import Func
from oracles import maximal_intersections_by_exact_signs, zaslavsky_region_count
from strategies import cat_power_blocks, cat_power_sums, unit_sums


def a2_functionals():
    vecs = [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)]
    return [Func([Fraction(a), Fraction(b)]) for a, b in vecs]


def arrange(funcs):
    return chambers.weyl_chambers(chambers.group_functionals(funcs))


# ---------------------------------------------------------------------------
# coarse decomposition
# ---------------------------------------------------------------------------


def test_cat_coarse(cat_action):
    funcs = spectra.analyze(cat_action).functionals()
    spaces = chambers.group_functionals(funcs).coarse_spaces
    assert len(spaces) == 2
    assert all(s.dimension == 1 for s in spaces)
    assert all(s.coefficients == (Fraction(1),) for s in spaces)


def test_proportional_family_groups():
    fam = [Func([Fraction(1), Fraction(2)]), Func([Fraction(2), Fraction(4)]),
           Func([Fraction(-1), Fraction(-2)])]
    spaces = chambers.group_functionals(fam).coarse_spaces
    by_members = {s.halfspace.member_functionals: s for s in spaces}
    assert set(by_members) == {(0, 1), (2,)}
    assert by_members[(0, 1)].coefficients == (Fraction(1), Fraction(2))


def test_a2_coarse():
    spaces = chambers.group_functionals(a2_functionals()).coarse_spaces
    assert len(spaces) == 6
    assert all(s.coefficients == (Fraction(1),) for s in spaces)


def test_zero_functional_rejected():
    # a zero functional joins no coarse space or wall: it is neutral
    grouping = chambers.group_functionals([Func([Fraction(0), Fraction(0)], 2)])
    assert grouping.coarse_spaces == () and grouping.walls == ()
    assert grouping.neutral == 2
    with pytest.raises(ValueError):
        chambers.weyl_chambers(grouping)


def test_partition_property(cat_action, t3_action, identity_action, phi3_action):
    corpus = [cat_action, t3_action, identity_action, phi3_action,
              spectra.validate_action([[[1, 1], [0, 1]]])]
    for action in corpus:
        funcs = spectra.analyze(action).functionals()
        grouping = chambers.group_functionals(funcs)
        spaces, neutral = grouping.coarse_spaces, grouping.neutral
        assert sum(s.dimension for s in spaces) + neutral == action.dim


def test_k1_irrational_coefficient():
    # two stable rates on T^4: one halfspace, irrational ratio coefficient
    m4 = [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 3, 2], [0, 0, 1, 1]]
    action = spectra.validate_action([m4])
    funcs = spectra.analyze(action).functionals()
    negatives = [f for f in funcs if f.coeffs[0].sign() < 0]
    spaces = chambers.group_functionals(negatives).coarse_spaces
    assert len(spaces) == 1
    coeffs = spaces[0].coefficients
    assert coeffs[0] == Fraction(1)
    assert len(coeffs) == 2 and float(coeffs[1]) > 1


def test_negated_functional_gets_opposite_normal(cat_action):
    cat_pair = spectra.validate_action([[[2, 1], [1, 1]], [[5, 3], [3, 2]]])
    rational = [Func([Fraction(1), Fraction(-3)]), Func([Fraction(-1), Fraction(3)])]
    for funcs in (spectra.analyze(cat_action).functionals(),
                  spectra.analyze(cat_pair).functionals(), rational):
        spaces = chambers.group_functionals(funcs).coarse_spaces
        assert len(spaces) == 2
        a, b = (s.halfspace.normal for s in spaces)
        assert a == tuple(-x for x in b) and a != b


# ---------------------------------------------------------------------------
# weyl chambers
# ---------------------------------------------------------------------------


def test_single_functional_two_chambers():
    arr = arrange([Func([Fraction(3)])])
    assert len(arr.chambers) == 2


def test_a2_six_chambers():
    arr = arrange(a2_functionals())
    assert len(arr.walls) == 3
    assert len(arr.chambers) == 6


def test_shared_wall_two_chambers():
    arr = arrange([Func([Fraction(1), Fraction(2)]),
                   Func([Fraction(2), Fraction(4)])])
    assert len(arr.walls) == 1
    assert len(arr.chambers) == 2


def test_t3_chambers(t3_action):
    funcs = spectra.analyze(t3_action).functionals()
    arr = arrange(funcs)
    assert len(arr.walls) == 3
    assert len(arr.chambers) == 6


def exact_rank(rows) -> int:
    import sympy

    return sympy.Matrix([list(r) for r in rows]).rank()


@pytest.mark.parametrize("seed", range(6))
def test_chamber_count_against_whitney_oracle(seed):
    rng = random.Random(seed)
    k = rng.choice([2, 3])
    m = rng.randint(1, 6)
    normals = []
    while len(normals) < m:
        v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(k))
        if not any(v):
            continue
        # distinct rays only (walls collapse proportional functionals anyway)
        if any(chambers.proportionality_coefficient(list(w), list(v)) is not None
               for w in normals):
            continue
        normals.append(v)
    arr = arrange([Func(list(v)) for v in normals])
    expected = zaslavsky_region_count(normals, rank=exact_rank)
    assert len(arr.chambers) == expected


def test_find_regular_element_exact_signs():
    arr = arrange(a2_functionals())
    for ch in arr.chambers:
        a = chambers.find_regular_element(arr, ch)
        for wall, s in zip(arr.walls, ch.signs):
            assert chambers.exact_sign_at(wall.normal, a) == s


def test_find_regular_element_is_anosov(t3_action):
    funcs = spectra.analyze(t3_action).functionals()
    arr = arrange(funcs)
    a = chambers.find_regular_element(arr, arr.chambers[0])
    assert spectra.is_anosov_element(t3_action, a)


# ---------------------------------------------------------------------------
# maximal-intersection certificates
# ---------------------------------------------------------------------------


def test_maximal_intersections_a2_passes():
    rep = chambers.check_maximal_intersections(arrange(a2_functionals()))
    assert rep["pass"]
    assert len(rep["spaces"]) == 6
    assert all(s["intersection_equals_members"] for s in rep["spaces"])
    assert "NOT verified" in rep["ergodicity_clause"]


def test_maximal_intersections_rank_one_fails(cat_action):
    funcs = spectra.analyze(cat_action).functionals()
    with pytest.raises(chambers.RankTooLow):
        chambers.check_maximal_intersections(arrange(funcs))


def test_maximal_intersections_t3(t3_action):
    funcs = spectra.analyze(t3_action).functionals()
    rep = chambers.check_maximal_intersections(arrange(funcs))
    assert rep["pass"]
    for entry in rep["spaces"]:
        assert entry["stable_intersection_elements"]


def assert_maximal_intersections_match_exact_signs(gens):
    an = spectra.analyze(spectra.validate_action(gens))
    try:
        arr = an.chamber_arrangement
    except (chambers.UndecidedSign, chambers.UndecidedProportionality):
        return
    if arr is not None:
        assert (chambers.check_maximal_intersections(arr)
                == maximal_intersections_by_exact_signs(arr))


def test_maximal_intersections_match_exact_signs_t3(t3_action):
    gens = [t3_action.generator(i) for i in range(t3_action.k)]
    assert_maximal_intersections_match_exact_signs(gens)


@given(cat_power_sums())
def test_maximal_intersections_match_exact_signs_cat_power_sums(exponents):
    assert_maximal_intersections_match_exact_signs(cat_power_blocks(exponents))


@given(unit_sums())
def test_maximal_intersections_match_exact_signs_unit_sums(gens):
    assert_maximal_intersections_match_exact_signs(gens)


def test_proportionality_certified_negative():
    u = [Fraction(1), Fraction(2)]
    v = [Fraction(1), Fraction(3)]
    assert chambers.proportionality_coefficient(u, v) is None


def test_proportionality_log_values(t3_action):
    funcs = spectra.analyze(t3_action).functionals()
    # distinct functionals of the rank-2 action are non-proportional
    for i in range(len(funcs)):
        for j in range(i + 1, len(funcs)):
            c = chambers.proportionality_coefficient(
                list(funcs[i].coeffs), list(funcs[j].coeffs))
            assert c is None
    # each functional is proportional to its own double (exact verification)
    doubled = [lv for lv in funcs[0].coeffs]
    c = chambers.proportionality_coefficient(
        list(funcs[0].coeffs), [lv for lv in funcs[0].coeffs])
    assert c == Fraction(1)


@pytest.fixture(scope="module")
def cat_square_functional():
    """The contracting functional (a, 2a), a = log((3 - sqrt 5)/2), of the
    action (CAT, CAT^2)."""
    action = spectra.validate_action([[[2, 1], [1, 1]], [[5, 3], [3, 2]]])
    chi = spectra.analyze(action).functionals()[0].coeffs
    assert chi[0].sign() == -1
    return chi


def test_exact_sign_falls_back_to_the_exact_combination(cat_square_functional, monkeypatch):
    chi = cat_square_functional
    assert chambers.exact_sign_at(chi, (3, -1)) == -1      # a < 0, decided by intervals
    calls = []
    combine = LogValue.combine
    monkeypatch.setattr(LogValue, "combine",
                        staticmethod(lambda *args: calls.append(args) or combine(*args)))
    assert chambers.exact_sign_at(chi, (2, -1)) == 0       # 2a - 2a: no interval decides
    assert calls == [(chi, [2, -1])]


def test_verify_ratio_decides_exactly(cat_square_functional, cat_action):
    a, two_a = cat_square_functional
    assert two_a.verify_ratio(a, 2) and a.verify_ratio(two_a, Fraction(1, 2))
    assert not two_a.verify_ratio(a, 3) and not a.verify_ratio(two_a, 2)
    # past the cap |p| + q <= 200 even a true ratio is rejected
    assert a.scaled(199).verify_ratio(a, 199)
    assert not a.scaled(200).verify_ratio(a, 200)
    for c in (Fraction(199, 2), Fraction(-151, 50), Fraction(1, 200)):
        assert not two_a.verify_ratio(a, c)
    lo, hi = spectra.analyze(cat_action).functionals()
    assert lo.coeffs[0].verify_ratio(hi.coeffs[0], -1)
    assert hi.coeffs[0].verify_ratio(lo.coeffs[0], -1)
