import itertools
import json
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings

from anosovkit import intpoly, spectra
from oracles import sigma_matrix
from strategies import unit_sums


# ---------------------------------------------------------------------------
# validate_action
# ---------------------------------------------------------------------------


def test_validate_rejects_non_commuting():
    with pytest.raises(spectra.ActionValidationError) as exc:
        spectra.validate_action([[[2, 1], [1, 1]], [[1, 1], [1, 2]]])
    assert ("NonCommuting", 0, 1) in exc.value.violations


def test_validate_accepts_single_matrix(cat_action):
    assert cat_action.k == 1
    assert cat_action.dim == 2


def test_validate_accepts_identity(identity_action):
    assert identity_action.dim == 2


def test_validate_rejects_not_unimodular():
    with pytest.raises(spectra.ActionValidationError) as exc:
        spectra.validate_action([[[2, 0], [0, 1]]])
    assert ("NotUnimodular", 0) in exc.value.violations


def test_validate_collects_all_violations():
    with pytest.raises(spectra.ActionValidationError) as exc:
        spectra.validate_action([[[2, 0], [0, 1]], [[3, 0], [0, 1]]])
    kinds = {v[0] for v in exc.value.violations}
    assert kinds == {"NotUnimodular"}
    assert len(exc.value.violations) == 2


def test_json_roundtrip(t3_action):
    again = spectra.ActionSpec.from_json(t3_action.to_json())
    assert again == t3_action


# ---------------------------------------------------------------------------
# joint spectrum (classes) / Lyapunov functionals
# ---------------------------------------------------------------------------


def test_cat_spectrum(cat_action):
    classes = spectra.analyze(cat_action).classes()
    assert len(classes) == 2
    mids = sorted(c.moduli_log[0].mid() for c in classes)
    assert mids[0] == pytest.approx(-0.9624236501192069, abs=1e-12)
    assert mids[1] == pytest.approx(0.9624236501192069, abs=1e-12)
    assert all(c.dimension == 1 for c in classes)
    assert all(c.minimal_polynomial == (1, -3, 1) for c in classes)


def test_enclosures_tight(cat_action):
    classes = spectra.analyze(cat_action).classes()
    for c in classes:
        for iv in c.enclosures(1e-12):
            assert iv.width <= 1e-12


def test_identity_spectrum(identity_action):
    classes = spectra.analyze(identity_action).classes()
    assert len(classes) == 1
    assert classes[0].dimension == 2
    assert classes[0].moduli_log[0].is_zero()


def test_phi3_spectrum(phi3_action):
    classes = spectra.analyze(phi3_action).classes()
    assert len(classes) == 2
    assert all(c.moduli_log[0].is_zero() for c in classes)
    assert all(c.minimal_polynomial == (1, 1, 1) for c in classes)
    funcs = spectra.analyze(phi3_action).functionals()
    assert len(funcs) == 1 and funcs[0].multiplicity == 2


def test_functional_merge_across_blocks():
    # diag(A, A^{-1}) has each eigenvalue with a 2-dim joint eigenspace
    m4 = [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 2]]
    action = spectra.validate_action([m4])
    funcs = spectra.analyze(action).functionals()
    assert sorted(f.multiplicity for f in funcs) == [2, 2]


def test_duplicated_generator_symmetry(cat_action):
    action = spectra.validate_action([[[2, 1], [1, 1]], [[2, 1], [1, 1]]])
    for f in spectra.analyze(action).functionals():
        assert f.coeffs[0].equals(f.coeffs[1])


def test_functionals_sorted_lexicographically(t3_action):
    funcs = spectra.analyze(t3_action).functionals()
    mids = [[lv.mid() for lv in f.coeffs] for f in funcs]
    assert mids == sorted(mids)


def _direct_sum(a, b):
    n, m = len(a), len(b)
    return ([row + [0] * m for row in a]
            + [[0] * n + row for row in b])


def _unseparated_actions(t3_action):
    """Two actions whose first generator does not separate the joint
    eigenvalues: (M+M, N+M) after a unimodular base change, and cat plus a
    rotation (k = 1, two blocks)."""
    m, n = (t3_action.generator(i) for i in range(2))
    p = np.eye(6, dtype=int)
    p[0, 3], p[4, 1] = 1, -1
    p_inv = np.round(np.linalg.inv(p)).astype(int)
    blockdiag = spectra.validate_action(
        [(p @ np.array(g) @ p_inv).tolist()
         for g in (_direct_sum(m, m), _direct_sum(n, m))])
    cat_rotation = spectra.validate_action([_direct_sum([[2, 1], [1, 1]],
                                                        [[0, -1], [1, 0]])])
    return [blockdiag, cat_rotation]


def _float_sigma(action, n):
    return np.array(sigma_matrix(action, n).tolist(), dtype=float)


def test_eigensolver_cross_check(cat_action, t3_action):
    # multiset of chi(n) values matches log-moduli of sigma(n) eigenvalues
    for action in [cat_action, t3_action] + _unseparated_actions(t3_action):
        funcs = spectra.analyze(action).functionals()
        box = itertools.product(range(-2, 3), repeat=action.k)
        for n in box:
            if not any(n):
                continue
            sigma = _float_sigma(action, n)
            eig = sorted(np.log(np.abs(np.linalg.eigvals(sigma))))
            chis = []
            for f in funcs:
                chi = sum(ni * lv.mid() for ni, lv in zip(n, f.coeffs))
                chis.extend([chi] * f.multiplicity)
            assert np.allclose(sorted(chis), eig, atol=1e-8)


# ---------------------------------------------------------------------------
# is_semisimple
# ---------------------------------------------------------------------------


def test_semisimple_examples(cat_action, identity_action):
    assert spectra.is_semisimple(cat_action)["overall"]
    assert spectra.is_semisimple(identity_action)["overall"]
    shear = spectra.validate_action([[[1, 1], [0, 1]]])
    assert not spectra.is_semisimple(shear)["overall"]


def test_undecided_sign_is_one_class():
    from anosovkit import algnum, chambers

    assert spectra.UndecidedSign is chambers.UndecidedSign is algnum.UndecidedSign


def unimodular_draws(rng, n, count):
    """``count`` random n x n integer matrices with entries in [-2, 2] and
    determinant +-1."""
    out = []
    while len(out) < count:
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if intpoly.charpoly(m)[-1] in (1, -1):
            out.append(m)
    return out


def sympy_semisimple(m):
    """Whether sympy's squarefree part of charpoly(M), evaluated at M by
    sympy's matrix arithmetic, is zero: the minimal polynomial is then
    squarefree."""
    x, a = sympy.Symbol("x"), sympy.Matrix(m)
    acc = sympy.zeros(len(m))
    for c in sympy.Poly(a.charpoly(x).as_expr(), x).sqf_part().all_coeffs():
        acc = acc * a + c * sympy.eye(len(m))
    return acc.is_zero_matrix


def test_semisimple_against_sympy_oracle():
    # sympy's is_diagonalizable, the fully independent check, on the first
    # five draws (about a second each), one of them not diagonalizable
    rng = random.Random(11)
    verdicts = []
    for m in unimodular_draws(rng, 3, 5):
        mine = spectra.is_semisimple(spectra.validate_action([m]))["overall"]
        assert mine == sympy.Matrix(m).is_diagonalizable(), m
        verdicts.append(mine)
    assert set(verdicts) == {True, False}
    # many more draws, 4 x 4 included, against sympy's annihilating
    # squarefree part
    for n, count in ((3, 300), (4, 200)):
        verdicts = []
        for m in unimodular_draws(rng, n, count):
            mine = spectra.is_semisimple(spectra.validate_action([m]))["overall"]
            assert mine == sympy_semisimple(m), m
            verdicts.append(mine)
        assert set(verdicts) == {True, False}, n


# ---------------------------------------------------------------------------
# is_anosov_element
# ---------------------------------------------------------------------------


def test_anosov_examples(cat_action, phi3_action):
    assert spectra.is_anosov_element(cat_action, [1])
    assert not spectra.is_anosov_element(cat_action, [0])
    assert not spectra.is_anosov_element(phi3_action, [1])


def test_anosov_agrees_with_unit_modulus_oracle(t3_action):
    for n in itertools.product(range(-3, 4), repeat=2):
        if not any(n):
            continue
        sigma = _float_sigma(t3_action, n)
        moduli = np.abs(np.linalg.eigvals(sigma))
        oracle = bool(np.all(np.abs(moduli - 1.0) > 1e-9))
        assert spectra.is_anosov_element(t3_action, n) == oracle, n


def assert_block_arithmetic(action):
    # for every n of the radius-2 box, negative entries included, the block
    # polynomials to the class dimensions multiply out to charpoly(sigma(n)),
    # and is_anosov agrees with the moduli of sigma(n)'s eigenvalues
    an = spectra.analyze(action)
    x = sympy.Symbol("x")
    for n in itertools.product(range(-2, 3), repeat=action.k):
        sigma = sigma_matrix(action, n)
        product = sympy.Integer(1)
        for block, values in zip(an.blocks, an.element_values(n)):
            product *= sympy.Poly(values, x).as_expr() ** block.class_dim
        assert sympy.Poly(product, x) == sigma.charpoly(x), n
        moduli = np.abs(np.linalg.eigvals(np.array(sigma.tolist(), dtype=float)))
        assert an.is_anosov(n) == bool(np.all(np.abs(moduli - 1.0) > 1e-6)), n


def test_block_arithmetic_against_matrix_oracle(t3_action):
    inverse_pair = spectra.validate_action([[[2, 1], [1, 1]], [[1, -1], [-1, 2]]])
    for action in [t3_action, inverse_pair] + _unseparated_actions(t3_action):
        assert_block_arithmetic(action)


@settings(max_examples=8)
@given(unit_sums())
def test_block_arithmetic_on_unit_sums(gens):
    assert_block_arithmetic(spectra.validate_action(gens))


@settings(max_examples=10)
@given(unit_sums())
def test_minimal_polynomials_on_unit_sums(gens):
    # each class's minimal polynomial is irreducible (sympy), and one of its
    # roots (mpmath) has the class's first log-modulus
    x = sympy.Symbol("x")
    for cls in spectra.analyze(spectra.validate_action(gens)).classes():
        poly = cls.minimal_polynomial
        assert sympy.Poly(poly, x).is_irreducible, poly
        with mpmath.workdps(30):
            logs = [mpmath.log(abs(z)) for z in mpmath.polyroots(poly, maxsteps=200,
                                                                  extraprec=100)]
        assert min(abs(v - cls.moduli_log[0].mid()) for v in logs) < 1e-9, poly


def test_analyze_factors_and_isolates_nothing_above_dim(tmp_path, monkeypatch):
    # log-moduli are decided without factoring, or finding the roots of, a
    # polynomial of the |q(tau)|^2 (their pair products have degree up to
    # dim^2): in a full analyze of the companion pair C, C - I of
    # x^10 - x - 1, every such argument is a factor of a charpoly(T)
    from anosovkit import algnum
    from anosovkit.cli import main

    degrees = []

    def spy(fn):
        def wrapped(p, *rest):
            degrees.append(len(p) - 1)
            return fn(p, *rest)
        return wrapped

    for module, name in ((intpoly, "factor"), (algnum, "roots"), (spectra, "roots"),
                         (algnum, "_isolate")):
        monkeypatch.setattr(module, name, spy(getattr(module, name)))
    n = 10
    c = [[int(i == j + 1) for j in range(n)] for i in range(n)]
    c[0][n - 1], c[1][n - 1] = 1, 1
    gens = [c, [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(c)]]
    (tmp_path / "in.json").write_text(json.dumps(
        {"dim": n, "generators": [[x for row in g for x in row] for g in gens]}))
    rc = main(["analyze", "--input", str(tmp_path / "in.json"),
               "--output", str(tmp_path / "out.json")])
    assert rc == 0 and degrees
    assert max(degrees) <= n


# ---------------------------------------------------------------------------
# is_weak_mixing
# ---------------------------------------------------------------------------


def test_weak_mixing_examples(cat_action):
    assert spectra.is_weak_mixing([[2, 1], [1, 1]])
    assert not spectra.is_weak_mixing([[0, -1], [1, 0]])   # Phi_4
    assert not spectra.is_weak_mixing([[1, 0], [0, 1]])


def test_weak_mixing_requires_unimodular():
    with pytest.raises(ValueError):
        spectra.is_weak_mixing([[2, 0], [0, 1]])


def test_weak_mixing_report_structure():
    # the factored view of the Parry test
    p = intpoly.charpoly([[2, 1], [1, 1]])
    assert not intpoly.has_root_of_unity(p)
    (key, _), = intpoly.factor(p)
    assert list(key) == [1, -3, 1]
    assert intpoly.cyclotomic_divisors(key) == []


def _det_power_oracle(m):
    m = np.array(m, dtype=np.int64)
    dim = m.shape[0]
    bound = max(intpoly.cyclotomic_indices_for_degree(dim))
    acc = np.eye(dim, dtype=np.int64)
    for _q in range(1, bound + 1):
        acc = acc @ m
        d = round(np.linalg.det((acc - np.eye(dim, dtype=np.int64)).astype(float)))
        if d == 0:
            return False
    return True


def test_weak_mixing_against_det_oracle_sample():
    rng = random.Random(5)
    checked = 0
    while checked < 200:
        m = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        p = intpoly.charpoly(m)
        if (-1) ** 2 * p[-1] not in (1, -1):
            continue
        checked += 1
        assert spectra.is_weak_mixing(m) == _det_power_oracle(m), m


# ---------------------------------------------------------------------------
# rigidity hypotheses
# ---------------------------------------------------------------------------


def test_rigidity_t3_passes(t3_action):
    rep = spectra.check_rigidity_hypotheses(spectra.analyze(t3_action))
    assert rep["verdict"] == "pass"
    assert rep["anosov_element"]["found"]
    assert all(e["kernel_rank"] == 0
               for e in rep["roots_of_unity"]["per_functional"])
    # one cubic block: its 2 x 3 log-modulus matrix has a nonzero 2-minor,
    # so its torsion lattice is certified to be {0}
    (block,) = rep["roots_of_unity"]["per_block"]
    assert block["classes"] == [0, 1, 2] and block["torsion_rank"] == 0
    assert block["rank_certificate"]["size"] == 2


def test_rigidity_inverse_pair_fails(cat_action):
    pair = spectra.validate_action([[[2, 1], [1, 1]], [[1, -1], [-1, 2]]])
    rep = spectra.check_rigidity_hypotheses(spectra.analyze(pair))
    assert rep["verdict"] == "fail"
    viols = rep["roots_of_unity"]["violations"]
    assert any(abs(v["element"][0]) == 1 and v["element"][0] == v["element"][1]
               for v in viols)
    assert any(1 in v["cyclotomic_indices"] for v in viols)


def test_rigidity_missed_relation_is_inconclusive(monkeypatch):
    # with the relation n = (1, 1) withheld, the kernel lattices are {0} but
    # the 2 x 2 log-modulus matrix of the block has rank 1 < k, so no minor
    # certifies that its torsion lattice is {0}: inconclusive, never pass
    pair = spectra.validate_action([[[2, 1], [1, 1]], [[1, -1], [-1, 2]]])
    monkeypatch.setattr(spectra, "functional_kernel_lattice",
                        lambda an, func: ([], {"method": "none"}))
    rep = spectra.check_rigidity_hypotheses(spectra.analyze(pair))
    assert rep["verdict"] == "inconclusive"
    (block,) = rep["roots_of_unity"]["per_block"]
    assert block["torsion_rank"] == 0 and block["rank_certificate"] is None


def test_rigidity_identity_pair_fails():
    ii = spectra.validate_action([[[1, 0], [0, 1]], [[1, 0], [0, 1]]])
    rep = spectra.check_rigidity_hypotheses(spectra.analyze(ii))
    assert rep["verdict"] == "fail"
    assert not rep["anosov_element"]["found"]


def test_rigidity_anosov_search_bound(t3_action, monkeypatch):
    # the first Anosov element in sorted shell order
    rep = spectra.check_rigidity_hypotheses(spectra.analyze(t3_action))
    assert rep["anosov_element"] == {"found": True, "vector": [-1, -1],
                                     "method": "box"}
    # three nonzero functionals cannot cover the box of radius
    # ceil(3/2) = 2, so when every candidate is refused the search has tried
    # all of that box, nothing past it, and reports an internal error
    tried = []

    def refuse(analysis, v):
        tried.append(tuple(v))
        return False

    monkeypatch.setattr(spectra._Analysis, "is_anosov", refuse)
    with pytest.raises(RuntimeError, match="radius 2"):
        spectra.check_rigidity_hypotheses(spectra.analyze(t3_action))
    box = sorted(v for v in itertools.product(range(-2, 3), repeat=2) if any(v))
    assert sorted(tried) == box
    assert [max(map(abs, v)) for v in tried] == sorted(max(map(abs, v)) for v in tried)


def test_rigidity_requires_rank_two(cat_action):
    with pytest.raises(ValueError):
        spectra.check_rigidity_hypotheses(spectra.analyze(cat_action))


def test_kernel_lattice_of_inverse_pair():
    pair = spectra.validate_action([[[2, 1], [1, 1]], [[1, -1], [-1, 2]]])
    an = spectra.analyze(pair)
    basis, meta = spectra.functional_kernel_lattice(an, an.functionals()[0])
    assert len(basis) == 1
    assert [abs(x) for x in basis[0]] == [1, 1]
    assert not meta["unverified"]


@pytest.mark.parametrize("gens, rank", [
    ([[[0, 0, -1], [1, 0, 2], [0, 1, 1]], [[-2, -1, -1], [0, 0, 1], [1, 1, 1]]], 0),
    ([[[2, 1], [1, 1]], [[1, -1], [-1, 2]]], 1),
], ids=["t3-pair", "inverse-pair"])
def test_kernel_lattice_makes_one_pslq_call_per_step(gens, rank, monkeypatch):
    # two live logs make one deflation step: PSLQ either finds no relation
    # (the T^3 pair), which ends the search with no retry at a higher
    # precision, or finds (1, 1), which leaves one coordinate and no step
    calls = []
    pslq = mpmath.pslq

    def counted(vals, **kwargs):
        calls.append(mpmath.mp.dps)
        return pslq(vals, **kwargs)

    monkeypatch.setattr(mpmath, "pslq", counted)
    an = spectra.analyze(spectra.validate_action(gens))
    basis, meta = spectra.functional_kernel_lattice(an, an.functionals()[0])
    assert len(basis) == rank
    assert calls == [spectra._pslq_dps(2)]
    assert meta["dps"] == spectra._pslq_dps(2) == 50
    assert [spectra._pslq_dps(m) for m in (3, 4, 5)] == [50, 58, 66]
