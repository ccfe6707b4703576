import json
import math
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from anosovkit import normalform as nf
from anosovkit.intpoly import charpoly, squarefree_part
from anosovkit.resonance import (SpectrumBands, smoothness_metadata,
                                 sr_group_descriptor)

BPM = nf.BlockedPolynomialMap


def bands_21():
    return SpectrumBands.make(
        [["-1386294/1000000", "-1386294/1000000"],
         ["-693147/1000000", "-693147/1000000"]], [1, 1])


def cubic_example():
    return BPM.make(bands_21(), 3, {(0, (1, 0)): F(1, 4), (0, (0, 3)): F(1),
                                    (1, (0, 1)): F(1, 2)})


# ---------------------------------------------------------------------------
# compose / invert
# ---------------------------------------------------------------------------


def test_compose_identity():
    f = cubic_example()
    ident = BPM.identity(bands_21(), 3)
    assert nf.compose(ident, f).coeffs == f.coeffs
    assert nf.compose(f, ident).coeffs == f.coeffs


def test_compose_hand_expansion():
    b = bands_21()
    f = BPM.make(b, 3, {(0, (1, 0)): F(1), (0, (0, 3)): F(8), (1, (0, 1)): F(1)})
    g = cubic_example()
    c = nf.compose(f, g)
    assert c.coeff_dict() == {(0, (1, 0)): F(1, 4), (0, (0, 3)): F(2),
                              (1, (0, 1)): F(1, 2)}


def test_compose_linear_is_matrix_product():
    b = bands_21()
    f = BPM.from_linear(b, 3, [[F(2), 0], [0, F(3)]])
    g = BPM.from_linear(b, 3, [[F(1, 2), 0], [0, F(1, 5)]])
    c = nf.compose(f, g)
    assert c.linear_part() == [[F(1), F(0)], [F(0), F(3, 5)]]


def test_compose_band_mismatch():
    other = SpectrumBands.make([["-0.9", "-0.9"]], [2])
    with pytest.raises(nf.BandMismatch):
        nf.compose(cubic_example(), BPM.identity(other, 3))


def test_invert_examples():
    b = bands_21()
    ident = BPM.identity(b, 3)
    assert nf.invert(ident).coeffs == ident.coeffs
    f = BPM.make(b, 3, {(0, (1, 0)): F(1), (0, (0, 3)): F(8), (1, (0, 1)): F(1)})
    g = nf.invert(f)
    assert g.coeff_dict()[(0, (0, 3))] == F(-8)
    assert nf.compose(f, g).coeffs == ident.coeffs
    assert nf.compose(g, f).coeffs == ident.coeffs


def test_invert_scalar():
    b = SpectrumBands.make([["-0.9", "-0.5"]], [1])
    f = BPM.from_linear(b, 3, [[F(2)]])
    assert nf.invert(f).linear_part() == [[F(1, 2)]]


def test_invert_singular():
    with pytest.raises(nf.SingularLinearPart):
        nf.invert(BPM.make(bands_21(), 3, {(0, (0, 3)): F(1), (1, (0, 1)): F(1)}))


def test_invert_randomized_roundtrip():
    rng = random.Random(9)
    b = bands_21()
    ident = BPM.identity(b, 4)
    for _ in range(15):
        entries = {(0, (1, 0)): F(rng.randint(1, 5)),
                   (1, (0, 1)): F(1, rng.randint(1, 5))}
        for _ in range(3):
            e = (rng.randint(0, 2), rng.randint(0, 2))
            if 2 <= sum(e) <= 4:
                entries[(rng.randint(0, 1), e)] = F(rng.randint(-4, 4))
        f = BPM.make(b, 4, entries)
        g = nf.invert(f)
        assert nf.compose(f, g).coeffs == ident.coeffs


# ---------------------------------------------------------------------------
# is_subresonance_type
# ---------------------------------------------------------------------------


def test_sr_type_quadratic_form():
    b = bands_21()
    p = BPM.make(b, 3, {(0, (1, 0)): F(1, 3), (0, (0, 2)): F(7),
                        (1, (0, 1)): F(1, 5)})
    ok, violators = nf.is_subresonance_type(p)
    assert ok and not violators


def test_sr_type_cubic_violator():
    ok, violators = nf.is_subresonance_type(cubic_example())
    assert not ok
    assert violators == [(0, (0, 3))]


def test_sr_type_linear_triangular():
    b = SpectrumBands.make([["-0.8", "-0.75"], ["-0.5", "-0.45"]], [1, 1])
    p = BPM.make(b, 2, {(0, (1, 0)): F(2), (0, (0, 1)): F(3), (1, (0, 1)): F(5)})
    ok, _ = nf.is_subresonance_type(p)
    assert ok


# ---------------------------------------------------------------------------
# normalize_contraction
# ---------------------------------------------------------------------------


def test_worked_cubic():
    res = nf.normalize_contraction(cubic_example())
    assert res.residual == 0
    assert res.change.coeff_dict()[(0, (0, 3))] == F(8)
    assert res.normal.coeff_dict() == {(0, (1, 0)): F(1, 4), (1, (0, 1)): F(1, 2)}
    # independent verification by composition
    lhs = nf.compose(res.change, cubic_example())
    rhs = nf.compose(res.normal, res.change)
    assert lhs.coeffs == rhs.coeffs


def test_resonant_quadratic_untouched():
    b = bands_21()
    f = BPM.make(b, 3, {(0, (1, 0)): F(1, 4), (0, (0, 2)): F(1), (1, (0, 1)): F(1, 2)})
    res = nf.normalize_contraction(f)
    assert res.change.coeffs == BPM.identity(b, 3).coeffs
    assert res.normal.coeffs == f.coeffs


def test_linear_input():
    b = bands_21()
    f = BPM.from_linear(b, 3, [[F(1, 4), 0], [0, F(1, 2)]])
    res = nf.normalize_contraction(f)
    assert res.change.coeffs == BPM.identity(b, 3).coeffs


def test_idempotence_on_normal_forms():
    res = nf.normalize_contraction(cubic_example())
    again = nf.normalize_contraction(res.normal)
    assert again.change.coeffs == BPM.identity(bands_21(), 3).coeffs


def test_requires_narrow_band():
    wide = SpectrumBands.make([[-5, -4], [-1, -1]], [1, 1])
    f = BPM.from_linear(wide, 2, [[F(1, 100), 0], [0, F(1, 3)]])
    with pytest.raises(nf.NotNarrowBand):
        nf.normalize_contraction(f)
    with pytest.raises(nf.NotNarrowBand):
        nf.normalize_periodic_orbit([f, f])


def test_requires_block_diagonal():
    b = bands_21()
    f = BPM.make(b, 2, {(0, (1, 0)): F(1, 4), (0, (0, 1)): F(1, 5),
                        (1, (0, 1)): F(1, 2)})
    with pytest.raises(ValueError):
        nf.normalize_contraction(f)


def test_band_membership_gate():
    b = bands_21()
    f = BPM.from_linear(b, 2, [[F(1, 100), 0], [0, F(1, 2)]])
    with pytest.raises(ValueError):
        nf.normalize_contraction(f)


def _roots_gate(f, lin, band_tol, period=1):
    """The band gate on certified roots alone, with no exact pass: the
    oracle for ``_check_block_moduli``."""
    from anosovkit.algnum import roots

    offset = 0
    for i, d in enumerate(f.bands.block_dims):
        block = [[F(x) for x in row[offset:offset + d]]
                 for row in lin[offset:offset + d]]
        p = charpoly(block)
        if p[-1] == 0:
            raise nf.SingularLinearPart("zero eigenvalue in a block")
        lam, mu = (period * float(x) for x in f.bands.intervals[i])
        tol = period * band_tol
        for root in roots(squarefree_part(p)):
            lg = math.log(math.hypot(root.disk[0], root.disk[1]))
            if not (lam - tol <= lg <= mu + tol):
                raise ValueError(
                    f"block {i + 1} eigenvalue log-modulus {round(lg, 6) + 0.0:.6f} "
                    f"outside band [{lam}, {mu}] (tol {tol})")
        offset += d


def _gate_outcome(gate, *args):
    try:
        gate(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_band_gate_matches_roots_oracle(monkeypatch):
    # random integer blocks up to 3x3, scaled into contractions, with band
    # edges 0 to 0.01 outside or inside their extreme log-moduli: the exact
    # pass may only pass what the roots oracle passes, and every other
    # outcome, error text included, is the oracle's
    import mpmath

    from anosovkit import algnum

    calls = []
    roots = algnum.roots
    monkeypatch.setattr(algnum, "roots", lambda key: calls.append(key) or roots(key))
    rng = random.Random(30)
    exact_passes = fallbacks = 0
    for _ in range(50):
        d = rng.randint(1, 3)
        m = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(d)]
        with mpmath.workdps(40):
            moduli = [abs(z) for z in mpmath.polyroots(
                charpoly(m), maxsteps=200, extraprec=200)]
            scale = int(max(moduli) * mpmath.exp(0.2)) + 1
            logs = [mpmath.log(x / scale) for x in moduli if x > 1e-30] or [-1]
        block = [[F(x, scale) for x in row] for row in m]
        for offset in (0, 1e-15, 1e-12, 1e-6, 0.01):
            lo_edge = float(min(logs)) - rng.choice((1, -1)) * offset
            hi_edge = float(max(logs)) + rng.choice((1, -1)) * offset
            for tol, period in ((0, 1), (0.05, 1), (0, 2), (0.05, 2)):
                lam, mu = F(lo_edge / period), F(hi_edge / period)
                bands = SpectrumBands(intervals=((min(lam, mu), mu),), block_dims=(d,))
                f = BPM.from_linear(bands, 1, block)
                del calls[:]
                got = _gate_outcome(nf._check_block_moduli, f, block, tol, period)
                if not calls and got is None:
                    exact_passes += 1
                elif calls:
                    fallbacks += 1
                assert got == _gate_outcome(_roots_gate, f, block, tol, period)
    assert exact_passes > 200 and fallbacks > 200, (exact_passes, fallbacks)


def test_resonant_denominator_defect():
    from anosovkit.resonance import enumerate_subresonance

    # bands whose endpoints exclude the 2:1 relation while the matrix has it
    b = SpectrumBands.make([["-1.379", "-1.378"], ["-0.694", "-0.6931"]], [1, 1])
    assert all(r.trivial for r in enumerate_subresonance(b))
    f = BPM.make(b, 3, {(0, (1, 0)): F(1, 4), (0, (0, 2)): F(1), (1, (0, 1)): F(1, 2)})
    with pytest.raises(nf.ResonantDenominator) as info:
        nf.normalize_contraction(f, band_tol=0.05)
    assert str(info.value) == ("homological operator singular on block 1, "
                               "shape (0, 2): inconsistent linear system")
    with pytest.raises(nf.ResonantDenominator) as info:
        nf.normalize_periodic_orbit([f, f], band_tol=0.05)
    assert str(info.value) == ("cycle homological operator singular on block 1, "
                               "shape (0, 2): inconsistent linear system")


def jordan_example():
    # 2x2 Jordan block at rate 1/4 inside the fast band, then the slow block
    b = SpectrumBands.make(
        [["-1386294/1000000", "-1386294/1000000"],
         ["-693147/1000000", "-693147/1000000"]], [2, 1])
    return BPM.make(b, 3, {(0, (1, 0, 0)): F(1, 4), (0, (0, 1, 0)): F(1),
                           (1, (0, 1, 0)): F(1, 4), (2, (0, 0, 1)): F(1, 2),
                           (0, (0, 0, 3)): F(1)})


def test_jordan_block_in_one_band_rejected(tmp_path):
    message = r"^linear part must be semisimple within each block$"
    with pytest.raises(ValueError, match=message):
        nf.normalize_contraction(jordan_example())
    with pytest.raises(ValueError, match=message):
        nf.normalize_periodic_orbit([jordan_example(), jordan_example()])
    path = tmp_path / "jordan.json"
    path.write_text(json.dumps(jordan_example().to_json()))
    proc = subprocess.run([sys.executable, "-m", "anosovkit.cli", "normalform",
                           "--input", str(path)], capture_output=True, text=True)
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["verdict"] == "fail"
    assert report["result"] == {"error": {
        "kind": "ValueError", "stage": "normalform",
        "detail": "linear part must be semisimple within each block"}}
    assert report["config"] == {"degree": None, "tol": 1e-10}


def test_scaling_covariance():
    b = bands_21()
    f = cubic_example()
    s = BPM.from_linear(b, 3, [[F(3), 0], [0, F(1, 2)]])
    s_inv = nf.invert(s)
    f_conj = nf.compose(s, nf.compose(f, s_inv))
    res = nf.normalize_contraction(f)
    res_conj = nf.normalize_contraction(f_conj)
    expected_normal = nf.compose(s, nf.compose(res.normal, s_inv))
    assert res_conj.normal.coeffs == expected_normal.coeffs
    expected_change = nf.compose(s, nf.compose(res.change, s_inv))
    assert res_conj.change.coeffs == expected_change.coeffs


def test_block_case_m21():
    # two-dim fast block, one-dim slow block, strictly narrow bands
    b = SpectrumBands.make([["-0.81", "-0.79"], ["-0.51", "-0.49"]], [2, 1])
    # symmetric fast block (semisimple), eigenvalues near 0.445
    lin = [[F(45, 100), F(1, 100), 0], [F(1, 100), F(44, 100), 0], [0, 0, F(3, 5)]]
    f = BPM.make(b, 3, {
        (0, (1, 0, 0)): lin[0][0], (0, (0, 1, 0)): lin[0][1],
        (1, (1, 0, 0)): lin[1][0], (1, (0, 1, 0)): lin[1][1],
        (2, (0, 0, 1)): lin[2][2],
        (0, (0, 0, 2)): F(2), (1, (1, 0, 1)): F(-3), (2, (0, 1, 1)): F(1, 2)})
    res = nf.normalize_contraction(f)
    assert res.residual == 0
    ok, _ = nf.is_subresonance_type(res.normal)
    assert ok


# ---------------------------------------------------------------------------
# centralizer
# ---------------------------------------------------------------------------


def test_centralizer_true_case():
    b = bands_21()
    n = BPM.make(b, 3, {(0, (1, 0)): F(1, 4), (1, (0, 1)): F(1, 2)})
    g = BPM.make(b, 3, {(0, (1, 0)): F(1, 9), (0, (0, 2)): F(5), (1, (0, 1)): F(1, 3)})
    out = nf.verify_centralizer(g, n)
    assert out["verdict"] and out["commutation_residual"] == 0


def test_centralizer_not_commuting():
    b = bands_21()
    n = BPM.make(b, 3, {(0, (1, 0)): F(1, 4), (1, (0, 1)): F(1, 2)})
    g = BPM.make(b, 3, {(0, (1, 0)): F(1), (0, (0, 3)): F(1), (1, (0, 1)): F(1)})
    with pytest.raises(nf.NotCommuting):
        nf.verify_centralizer(g, n)


def test_centralizer_linear_diagonal():
    b = bands_21()
    n = BPM.make(b, 3, {(0, (1, 0)): F(1, 4), (1, (0, 1)): F(1, 2)})
    g = BPM.from_linear(b, 3, [[F(7), 0], [0, F(2)]])
    assert nf.verify_centralizer(g, n)["verdict"]


def test_sr_group_closure_randomized():
    rng = random.Random(3)
    b = bands_21()
    for _ in range(25):
        a = BPM.make(b, 3, {(0, (1, 0)): F(rng.randint(1, 5)),
                            (0, (0, 2)): F(rng.randint(-5, 5)),
                            (1, (0, 1)): F(rng.randint(1, 4))})
        c = BPM.make(b, 3, {(0, (1, 0)): F(1, rng.randint(1, 5)),
                            (0, (0, 2)): F(rng.randint(-5, 5)),
                            (1, (0, 1)): F(1, rng.randint(1, 4))})
        ok1, _ = nf.is_subresonance_generated(nf.compose(a, c))
        ok2, _ = nf.is_subresonance_generated(nf.invert(a))
        assert ok1 and ok2


# ---------------------------------------------------------------------------
# periodic orbits
# ---------------------------------------------------------------------------


def test_periodic_p1_reduces():
    single = nf.normalize_periodic_orbit([cubic_example()])
    direct = nf.normalize_contraction(cubic_example())
    assert single[0].normal.coeffs == direct.normal.coeffs


def test_periodic_p2_symmetric():
    res = nf.normalize_periodic_orbit([cubic_example(), cubic_example()])
    assert all(r.residual == 0 for r in res)
    assert res[0].change.coeffs == res[1].change.coeffs
    for r in res:
        assert nf.is_subresonance_type(r.normal)[0]
        assert not any(sum(k[1]) > 1 for k, _ in r.normal.coeffs)


def test_periodic_p2_mixed():
    b = bands_21()
    f_lin = BPM.from_linear(b, 3, [[F(1, 4), 0], [0, F(1, 2)]])
    res = nf.normalize_periodic_orbit([f_lin, cubic_example()])
    assert all(r.residual == 0 for r in res)
    # exact cycle solution: c0 = 8/3, c1 = 16/3
    assert res[0].change.coeff_dict()[(0, (0, 3))] == F(8, 3)
    assert res[1].change.coeff_dict()[(0, (0, 3))] == F(16, 3)


def half_and_one():
    return BPM.from_linear(bands_21(), 3, [[F(1, 2), 0], [0, F(1)]])


@pytest.mark.parametrize("first", [half_and_one, cubic_example],
                         ids=["two-fibers", "cubic-then-diag"])
def test_periodic_orbit_gated_by_its_own_exponents(first):
    # diag(1/2, 1) lies outside the bands -log 4 and -log 2; two fibers of it
    # return by diag(1/4, 1), which has the eigenvalue 1, and the cubic map
    # followed by it by diag(1/8, 1/2): neither cycle has exponents in the
    # bands, so each is held to the scaled bands [2 lambda_i, 2 mu_i]
    with pytest.raises(ValueError, match=r"outside band \[-1.386294, -1.386294\]"):
        nf.normalize_contraction(half_and_one())
    with pytest.raises(ValueError,
                       match=r"outside band \[-2.772588, -2.772588\] \(tol 0.1\)$"):
        nf.normalize_periodic_orbit([first(), half_and_one()])


def test_smoothness_metadata():
    assert smoothness_metadata(sr_group_descriptor(bands_21()))["regime"] == \
        "2:1 quadratic resonance"
    strict = SpectrumBands.make([["-0.8", "-0.75"], ["-0.5", "-0.45"]], [1, 1])
    assert "no nontrivial" in smoothness_metadata(sr_group_descriptor(strict))["regime"]


def test_map_json_roundtrip():
    f = cubic_example()
    again = BPM.from_json(f.to_json())
    assert again.coeffs == f.coeffs
