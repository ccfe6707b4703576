import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from anosovkit import intpoly, spectra


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
# joint_spectrum / lyapunov_functionals
# ---------------------------------------------------------------------------


def test_cat_spectrum(cat_action):
    classes = spectra.joint_spectrum(cat_action)
    assert len(classes) == 2
    mids = sorted(c.moduli_log[0].mid() for c in classes)
    assert mids[0] == pytest.approx(-0.9624236501192069, abs=1e-12)
    assert mids[1] == pytest.approx(0.9624236501192069, abs=1e-12)
    assert all(c.dimension == 1 for c in classes)
    assert all(c.minimal_polynomial == (1, -3, 1) for c in classes)


def test_enclosures_tight(cat_action):
    classes = spectra.joint_spectrum(cat_action)
    for c in classes:
        for lo, hi in c.enclosures(1e-12):
            assert hi - lo <= 1e-12


def test_identity_spectrum(identity_action):
    classes = spectra.joint_spectrum(identity_action)
    assert len(classes) == 1
    assert classes[0].dimension == 2
    assert classes[0].moduli_log[0].is_zero()


def test_phi3_spectrum(phi3_action):
    classes = spectra.joint_spectrum(phi3_action)
    assert len(classes) == 2
    assert all(c.moduli_log[0].is_zero() for c in classes)
    assert all(c.minimal_polynomial == (1, 1, 1) for c in classes)
    funcs = spectra.lyapunov_functionals(phi3_action)
    assert len(funcs) == 1 and funcs[0].multiplicity == 2


def test_functional_merge_across_blocks():
    # diag(A, A^{-1}) has each eigenvalue with a 2-dim joint eigenspace
    m4 = [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 2]]
    action = spectra.validate_action([m4])
    funcs = spectra.lyapunov_functionals(action)
    assert sorted(f.multiplicity for f in funcs) == [2, 2]


def test_duplicated_generator_symmetry(cat_action):
    action = spectra.validate_action([[[2, 1], [1, 1]], [[2, 1], [1, 1]]])
    for f in spectra.lyapunov_functionals(action):
        assert f.coeffs[0].equals(f.coeffs[1])


def test_functionals_sorted_lexicographically(t3_action):
    funcs = spectra.lyapunov_functionals(t3_action)
    mids = [[lv.mid() for lv in f.coeffs] for f in funcs]
    assert mids == sorted(mids)


def _direct_sum(a, b):
    n, m = len(a), len(b)
    return ([row + [0] * m for row in a]
            + [[0] * n + row for row in b])


def test_eigensolver_cross_check(cat_action, t3_action):
    # multiset of chi(n) values matches log-moduli of sigma(n) eigenvalues;
    # in the last two the first generator does not separate the joint
    # eigenvalues: (M+M, N+M) after a unimodular base change, and cat plus a
    # rotation (k = 1, two blocks)
    m, n = (t3_action.generator(i) for i in range(2))
    p = np.eye(6, dtype=int)
    p[0, 3], p[4, 1] = 1, -1
    p_inv = np.round(np.linalg.inv(p)).astype(int)
    blockdiag = spectra.validate_action(
        [(p @ np.array(g) @ p_inv).tolist()
         for g in (_direct_sum(m, m), _direct_sum(n, m))])
    cat_rotation = spectra.validate_action([_direct_sum([[2, 1], [1, 1]],
                                                        [[0, -1], [1, 0]])])
    for action in (cat_action, t3_action, blockdiag, cat_rotation):
        funcs = spectra.lyapunov_functionals(action)
        box = itertools.product(range(-2, 3), repeat=action.k)
        for n in box:
            if not any(n):
                continue
            sigma = np.array(spectra.sigma_of(action, n), dtype=float)
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


def test_semisimple_against_sympy_oracle():
    rng = random.Random(11)
    count = 0
    while count < 25:
        m = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        p = intpoly.charpoly(m)
        det = (-1) ** 3 * p[-1]
        if det not in (1, -1):
            continue
        count += 1
        action = spectra.validate_action([m])
        mine = spectra.is_semisimple(action)["overall"]
        oracle = sympy.Matrix(m).is_diagonalizable()
        assert mine == oracle, m


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
        sigma = np.array(spectra.sigma_of(t3_action, n), dtype=float)
        moduli = np.abs(np.linalg.eigvals(sigma))
        oracle = bool(np.all(np.abs(moduli - 1.0) > 1e-9))
        assert spectra.is_anosov_element(t3_action, n) == oracle, n


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
    rep = spectra.check_rigidity_hypotheses(t3_action)
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
    rep = spectra.check_rigidity_hypotheses(pair)
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
                        lambda action, func: ([], {"method": "none"}))
    rep = spectra.check_rigidity_hypotheses(pair)
    assert rep["verdict"] == "inconclusive"
    (block,) = rep["roots_of_unity"]["per_block"]
    assert block["torsion_rank"] == 0 and block["rank_certificate"] is None


def test_rigidity_identity_pair_fails():
    ii = spectra.validate_action([[[1, 0], [0, 1]], [[1, 0], [0, 1]]])
    rep = spectra.check_rigidity_hypotheses(ii)
    assert rep["verdict"] == "fail"
    assert not rep["anosov_element"]["found"]


def test_rigidity_anosov_search_bound(t3_action, monkeypatch):
    # the first Anosov element in sorted shell order
    rep = spectra.check_rigidity_hypotheses(t3_action)
    assert rep["anosov_element"] == {"found": True, "vector": [-1, -1],
                                     "method": "box"}
    # three nonzero functionals cannot cover the box of radius
    # ceil(3/2) = 2, so when every candidate is refused the search has tried
    # all of that box, nothing past it, and reports an internal error
    tried = []

    def refuse(action, v):
        tried.append(tuple(v))
        return False

    monkeypatch.setattr(spectra, "is_anosov_element", refuse)
    with pytest.raises(RuntimeError, match="radius 2"):
        spectra.check_rigidity_hypotheses(t3_action)
    box = sorted(v for v in itertools.product(range(-2, 3), repeat=2) if any(v))
    assert sorted(tried) == box
    assert [max(map(abs, v)) for v in tried] == sorted(max(map(abs, v)) for v in tried)


def test_rigidity_requires_rank_two(cat_action):
    with pytest.raises(ValueError):
        spectra.check_rigidity_hypotheses(cat_action)


def test_kernel_lattice_of_inverse_pair():
    pair = spectra.validate_action([[[2, 1], [1, 1]], [[1, -1], [-1, 2]]])
    funcs = spectra.lyapunov_functionals(pair)
    basis, meta = spectra.functional_kernel_lattice(pair, funcs[0])
    assert len(basis) == 1
    assert [abs(x) for x in basis[0]] == [1, 1]
    assert not meta["unverified"]
