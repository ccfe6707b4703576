"""Acceptance suite: the ten exit criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
pinned here; runtime-limited criteria assert wall-clock bounds.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np
import pytest

from anosovkit import chambers, intpoly, normalform as nf, resonance as rz
from anosovkit import rootsys, spectra
from anosovkit.conjugacy import (
    ToralPerturbation,
    TrigPolynomial,
    psi_conjugation,
    regularity_probe,
    solve_conjugacy,
    verify_intertwining,
)
from oracles import brute_force_relations

BPM = nf.BlockedPolynomialMap


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {desc}")


def _random_narrow_bands(rng, max_blocks=4, max_bound=6):
    l = rng.randint(1, max_blocks)
    points = sorted({F(rng.randint(-80, -4), 40) for _ in range(2 * l)})
    if len(points) < 2 * l:
        return None
    intervals = [(points[2 * i], points[2 * i + 1]) for i in range(l)]
    try:
        bands = rz.SpectrumBands.make(intervals,
                                      [rng.randint(1, 3) for _ in range(l)])
    except ValueError:
        return None
    if not rz.is_narrow_band(bands) or rz.degree_bound(bands) > max_bound:
        return None
    return bands


def test_criterion_1_subresonance_oracle():
    with criterion(1, "sub-resonance enumeration equals brute force with "
                      "degree margin on 200 random narrow-band spectra"):
        rng = random.Random(20260810)
        t0 = time.monotonic()
        found = 0
        while found < 200:
            bands = _random_narrow_bands(rng)
            if bands is None:
                continue
            found += 1
            fast = rz.enumerate_subresonance(bands)
            slow = brute_force_relations(bands, extra_degree=2)
            assert fast == slow, bands
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def bands_21():
    return rz.SpectrumBands.make(
        [["-1386294/1000000", "-1386294/1000000"],
         ["-693147/1000000", "-693147/1000000"]], [1, 1])


def test_criterion_2_two_one_reproduction():
    with criterion(2, "2:1 bands give exactly the quadratic-form descriptor"):
        bands = bands_21()
        assert bands.intervals[0][0] == 2 * bands.intervals[1][1]  # exact 2:1
        desc = rz.sr_group_descriptor(bands)
        nontrivial = desc.nontrivial_relations()
        assert len(nontrivial) == 1
        assert (nontrivial[0].target_block, nontrivial[0].exponents) == (1, (0, 2))
        support = {(r.target_block, r.exponents) for r in desc.relations}
        # support of P(t1,t2) = (L1 t1 + Q(t2,t2), L2 t2), plus the admissible
        # triangular linear term (1,(0,1)) licensed by lambda_1 <= mu_2
        displayed = {(1, (1, 0)), (1, (0, 2)), (2, (0, 1))}
        assert displayed <= support
        assert support == displayed | {(1, (0, 1))}
        assert desc.monomial_count == 4
        assert desc.degree_bound == 2


def _random_contraction(rng):
    regime = rng.choice(["21", "21", "narrow"])
    degree = rng.randint(2, 5)
    if regime == "21":
        b = F(*rng.choice([(1, 2), (1, 3), (2, 5), (3, 7)]))
        a = b * b
        lam2 = F(round(math.log(float(b)) * 10**6), 10**6)
        lam1 = 2 * lam2
        m1 = rng.choice([1, 1, 2])
        bands = rz.SpectrumBands.make([(lam1, lam1), (lam2, lam2)], [m1, 1])
        rates = [a] * m1 + [b]
    else:
        r_max = F(rng.randint(60, 80), 100)
        lo = float(r_max) ** 2 + 0.02
        r_min = F(rng.randint(int(lo * 100) + 1, int(float(r_max) * 100) - 2), 100)
        lam1 = F(round(math.log(float(r_min)) * 10**6), 10**6)
        lam2 = F(round(math.log(float(r_max)) * 10**6), 10**6)
        m1 = rng.choice([1, 2])
        bands = rz.SpectrumBands.make(
            [(lam1 - F(1, 10**5), lam1 + F(1, 10**5)),
             (lam2 - F(1, 10**5), lam2 + F(1, 10**5))], [m1, 1])
        rates = [r_min] * m1 + [r_max]
    n = bands.total_dim
    entries = {}
    for c, rate in enumerate(rates):
        entries[(c, tuple(int(v == c) for v in range(n)))] = rate
    for _ in range(rng.randint(1, 4)):
        expo = [0] * n
        for _ in range(rng.randint(2, degree)):
            expo[rng.randrange(n)] += 1
        if 2 <= sum(expo) <= degree:
            entries[(rng.randrange(n), tuple(expo))] = F(rng.randint(-9, 9),
                                                         rng.randint(1, 9))
    return BPM.make(bands, degree, entries)


def test_criterion_3_normal_form_identity():
    with criterion(3, "h∘F - N∘h is exactly zero on 100 random rational "
                      "contractions; worked cubic returns c = 8"):
        t0 = time.monotonic()
        rng = random.Random(4096)
        done = 0
        while done < 100:
            f = _random_contraction(rng)
            try:
                res = nf.normalize_contraction(f)
            except ValueError:
                continue  # rate slipped outside the band gate; resample
            done += 1
            assert res.residual == 0
            assert isinstance(res.residual, F) or res.residual == 0
            ok, viol = nf.is_subresonance_type(res.normal)
            assert ok, viol
            lhs = nf.compose(res.change, f)
            rhs = nf.compose(res.normal, res.change)
            assert lhs.coeffs == rhs.coeffs
        cubic = BPM.make(bands_21(), 3,
                         {(0, (1, 0)): F(1, 4), (0, (0, 3)): F(1),
                          (1, (0, 1)): F(1, 2)})
        res = nf.normalize_contraction(cubic)
        assert res.change.coeff_dict()[(0, (0, 3))] == F(8)
        assert res.residual == 0
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_4_centralizer():
    with criterion(4, "randomized commuting pairs verify; 20 non-commuting "
                      "controls raise NotCommuting"):
        rng = random.Random(77)
        bands = bands_21()
        for _ in range(50):
            n_map = BPM.make(bands, 3, {(0, (1, 0)): F(1, 4),
                                        (1, (0, 1)): F(1, 2)})
            g_map = BPM.make(bands, 3, {
                (0, (1, 0)): F(rng.randint(1, 9), rng.randint(1, 9)),
                (0, (0, 2)): F(rng.randint(-9, 9)),
                (1, (0, 1)): F(rng.randint(1, 9), rng.randint(1, 9))})
            out = nf.verify_centralizer(g_map, n_map)
            assert out["verdict"] and out["commutation_residual"] == 0
        controls = 0
        while controls < 20:
            breaker = rng.choice([(0, (0, 3)), (1, (1, 0)), (0, (2, 0))])
            g_bad = BPM.make(bands, 3, {
                (0, (1, 0)): F(1, rng.randint(1, 5)),
                (1, (0, 1)): F(1, rng.randint(2, 5)),
                breaker: F(rng.randint(1, 5))})
            n_map = BPM.make(bands, 3, {(0, (1, 0)): F(1, 4),
                                        (1, (0, 1)): F(1, 2)})
            controls += 1
            with pytest.raises(nf.NotCommuting):
                nf.verify_centralizer(g_bad, n_map)


def _det_oracle_batch(mats: np.ndarray, qmax: int) -> np.ndarray:
    """True where no det(M^q - I) vanishes for q = 1..qmax (vectorized)."""
    dim = mats.shape[1]
    eye = np.eye(dim, dtype=np.int64)
    acc = np.broadcast_to(eye, mats.shape).copy()
    ok = np.ones(mats.shape[0], dtype=bool)
    for _ in range(qmax):
        acc = np.einsum("nij,njk->nik", acc, mats)
        diff = acc - eye
        if dim == 2:
            det = (diff[:, 0, 0] * diff[:, 1, 1]
                   - diff[:, 0, 1] * diff[:, 1, 0])
        else:
            det = (diff[:, 0, 0] * (diff[:, 1, 1] * diff[:, 2, 2]
                                    - diff[:, 1, 2] * diff[:, 2, 1])
                   - diff[:, 0, 1] * (diff[:, 1, 0] * diff[:, 2, 2]
                                      - diff[:, 1, 2] * diff[:, 2, 0])
                   + diff[:, 0, 2] * (diff[:, 1, 0] * diff[:, 2, 1]
                                      - diff[:, 1, 1] * diff[:, 2, 0]))
        ok &= det != 0
    return ok


def test_criterion_5_parry_exactness():
    with criterion(5, "is_weak_mixing equals the det(M^q - I) oracle on all "
                      "unimodular 2x2 and 3x3 matrices with entries in [-3,3]"):
        t0 = time.monotonic()
        qmax = max(intpoly.cyclotomic_indices_for_degree(3))  # 6
        # 2x2 exhaustive
        vals = np.arange(-3, 4, dtype=np.int64)
        grid = np.array(np.meshgrid(*([vals] * 4), indexing="ij"))
        flat = grid.reshape(4, -1).T
        det2 = flat[:, 0] * flat[:, 3] - flat[:, 1] * flat[:, 2]
        uni2 = flat[np.abs(det2) == 1].reshape(-1, 2, 2)
        oracle2 = _det_oracle_batch(uni2, qmax)
        for mat, expected in zip(uni2.tolist(), oracle2.tolist()):
            assert spectra.is_weak_mixing(mat) == expected, mat
        # 3x3 exhaustive, chunked over the first three entries
        total3 = 0
        rest = np.array(list(itertools.product(vals.tolist(), repeat=6)),
                        dtype=np.int64)
        d, e, f_, g, h, i = rest.T
        for a, b, c in itertools.product(vals.tolist(), repeat=3):
            det = (a * (e * i - f_ * h) - b * (d * i - f_ * g)
                   + c * (d * h - e * g))
            pick = np.abs(det) == 1
            if not np.any(pick):
                continue
            chunk = np.empty((int(pick.sum()), 3, 3), dtype=np.int64)
            chunk[:, 0, 0], chunk[:, 0, 1], chunk[:, 0, 2] = a, b, c
            chunk[:, 1, :] = rest[pick][:, 0:3]
            chunk[:, 2, :] = rest[pick][:, 3:6]
            oracle3 = _det_oracle_batch(chunk, qmax)
            for mat, expected in zip(chunk.tolist(), oracle3.tolist()):
                assert spectra.is_weak_mixing(mat) == expected, mat
            total3 += chunk.shape[0]
        elapsed = time.monotonic() - t0
        assert total3 > 1_000_000  # the scan really was exhaustive
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_6_coarse_partition(cat_action, t3_action, phi3_action,
                                      identity_action):
    with criterion(6, "coarse dimensions + neutral = dim on the corpus; A2 "
                      "has 6 spaces with {1}; BC2 doubles the short roots"):
        corpus = [cat_action, t3_action, phi3_action, identity_action,
                  spectra.validate_action([[[1, 1], [0, 1]]]),
                  spectra.validate_action([[[2, 1], [1, 1]], [[1, -1], [-1, 2]]]),
                  spectra.validate_action(
                      [[[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 2]]])]
        for action in corpus:
            funcs = spectra.lyapunov_functionals(action)
            grouping = chambers.group_functionals(funcs)
            spaces, neutral = grouping.coarse_spaces, grouping.neutral
            assert sum(s.dimension for s in spaces) + neutral == action.dim
        _, a2_spaces = rootsys.weyl_flow_lyapunov_data(
            rootsys.build_root_system("A", 2))
        assert len(a2_spaces) == 6
        assert all(s.coefficients == (F(1),) for s in a2_spaces)
        _, bc2_spaces = rootsys.weyl_flow_lyapunov_data(
            rootsys.build_root_system("BC", 2))
        doubled = [s for s in bc2_spaces if s.coefficients == (F(1), F(2))]
        assert len(doubled) == 4  # rays +-e1, +-e2
        assert all(s.coefficients in ((F(1),), (F(1), F(2)))
                   for s in bc2_spaces)


def test_criterion_7_structural_stability(cat_action):
    with criterion(7, "cat map, eps = 0.01, 512^2 grid: residual < 1e-10 in "
                      "under 60 s; eps = 0 returns u = 0 exactly"):
        p = TrigPolynomial([((0, 1), (0.0, 0.0), (0.01, 0.0))], 2)
        pert = ToralPerturbation(base=cat_action, perturbations=[p])
        t0 = time.monotonic()
        field = solve_conjugacy(pert, resolution=512, tol=1e-10)
        elapsed = time.monotonic() - t0
        assert field.residual < 1e-10
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        trivial = ToralPerturbation(base=cat_action,
                                    perturbations=[TrigPolynomial([], 2)])
        f0 = solve_conjugacy(trivial, resolution=512, tol=1e-10)
        assert np.all(f0.u == 0.0)
        assert f0.iterations == 1


def test_criterion_8_rigidity_recovery(t3_action):
    with criterion(8, "T^3 psi-family (eps = 0.005, 128^3): generator-2 "
                      "residual and sup|h - psi| below 1e-6; non-commuting "
                      "control exceeds 1e-3"):
        t0 = time.monotonic()
        q = TrigPolynomial([((1, 0, 0), (0.08, 0.04, -0.05), (0.1, 0.0, 0.06)),
                            ((0, 1, 1), (0.0, 0.06, 0.03), (-0.04, 0.08, 0.0))], 3)
        pert, truth = psi_conjugation(t3_action, q, 0.005)
        field = solve_conjugacy(pert, solving_generator=0, resolution=128,
                                tol=1e-8)
        rep = verify_intertwining(field, pert)
        assert rep["residuals"][1] < 1e-6
        err = float(np.max(np.abs(field.u - truth(field.grid_points()))))
        assert err < 1e-6
        eps = 0.005
        control = ToralPerturbation(
            base=t3_action,
            perturbations=[TrigPolynomial([((0, 1, 1), (0.0, eps, 0.0),
                                            (eps, 0.0, eps))], 3),
                           TrigPolynomial([], 3)])
        cfield = solve_conjugacy(control, solving_generator=0, resolution=128,
                                 tol=1e-8)
        crep = verify_intertwining(cfield, control)
        assert crep["residuals"][1] > 1e-3
        elapsed = time.monotonic() - t0
        assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_criterion_9_rank_one_contrast(cat_action):
    with criterion(9, "generic rank-one perturbation probes Hölder < 0.95; "
                      "the psi-conjugation case probes at least C1 everywhere"):
        eps = 0.02
        p = TrigPolynomial([((0, 1), (eps * 0.5, 0.0), (eps, 0.0)),
                            ((1, 0), (0.0, eps * 0.3), (0.0, eps * 0.6)),
                            ((1, 1), (eps * 0.2, 0.0), (0.0, eps * 0.4))], 2)
        pert = ToralPerturbation(base=cat_action, perturbations=[p])
        field = solve_conjugacy(pert, resolution=512, tol=1e-11)
        rep = regularity_probe(field)
        assert rep["min_holder_exponent"] < 0.95
        q = TrigPolynomial([((1, 0), (0.15, 0.05), (0.2, 0.1)),
                            ((1, 1), (0.1, -0.15), (0.0, 0.12))], 2)
        psi_pert, _ = psi_conjugation(cat_action, q, 0.01)
        psi_field = solve_conjugacy(psi_pert, resolution=256, tol=1e-11)
        psi_rep = regularity_probe(psi_field)
        for d in psi_rep["directions"]:
            assert d["classification"] in ("C1", "C2 or better",
                                           "smooth (zero displacement)"), d


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "every CLI command is byte-stable across two runs "
                       "with identical inputs and seed"):
        (tmp_path / "t3.json").write_text(json.dumps(
            {"dim": 3, "generators": [[0, 0, -1, 1, 0, 2, 0, 1, 1],
                                      [-2, -1, -1, 0, 0, 1, 1, 1, 1]]}))
        (tmp_path / "bands.json").write_text(json.dumps(
            {"intervals": [["-1386294/1000000", "-1386294/1000000"],
                           ["-693147/1000000", "-693147/1000000"]],
             "block_dims": [1, 1]}))
        (tmp_path / "cubic.json").write_text(json.dumps(
            {"bands": {"intervals": [["-1386294/1000000", "-1386294/1000000"],
                                     ["-693147/1000000", "-693147/1000000"]],
                       "block_dims": [1, 1]},
             "degree": 3,
             "terms": [{"coord": 0, "exponents": [1, 0], "value": "1/4"},
                       {"coord": 0, "exponents": [0, 3], "value": "1"},
                       {"coord": 1, "exponents": [0, 1], "value": "1/2"}]}))
        commands = [
            ["analyze", "--input", str(tmp_path / "t3.json"), "--seed", "11"],
            ["resonances", "--input", str(tmp_path / "bands.json"), "--seed", "11"],
            ["normalform", "--input", str(tmp_path / "cubic.json"), "--seed", "11"],
            ["conjugate", "--preset", "psi-cat", "--grid", "64", "--probe",
             "--seed", "11"],
            ["rootsys", "--type", "BC", "--rank", "2", "--seed", "11"],
        ]
        for args in commands:
            outs = [subprocess.run([sys.executable, "-m", "anosovkit.cli"] + args,
                                   capture_output=True, text=True).stdout
                    for _ in range(2)]
            assert outs[0] == outs[1], args
            assert outs[0].strip(), args
