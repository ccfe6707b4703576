"""Property tests of the certified root backend, the power-sum
constructions and the log-moduli, with mpmath at 60 digits as the oracle.

The constructions are checked on their defining property: every product,
power or polynomial value of roots (computed by mpmath) lies within 1e-40
of a root of the constructed polynomial.  Combined log-moduli are checked
against the eigenvalues of the action element they describe.  The
certified disks are checked against mpmath's roots, and their real/non-real
split against an exact Sturm count.
"""

import ast
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovkit.algnum import LogValue, root_box, roots
from anosovkit.exact import _EPS_SCHEDULE, validate_action
from anosovkit.intpoly import (
    _sturm_count,
    composed_product_pair,
    power_poly,
    squarefree_part,
    values_poly,
)
from anosovkit.spectra import analyze
from oracles import mp_eigenvalues, sigma_matrix
from strategies import unit_sums

DPS = 60
CLOSE = mpmath.mpf(10) ** -40


def polys(max_degree, coeff=5):
    """Integer polynomials with nonzero leading and constant terms."""
    return st.lists(st.integers(-coeff, coeff), min_size=2,
                    max_size=max_degree + 1).filter(lambda c: c[0] != 0 and c[-1] != 0)


def mp_roots(p):
    """All roots of an integer polynomial, from its squarefree part, so that
    each is simple and found to full precision."""
    q = squarefree_part(p)
    if len(q) < 2:
        return []
    return mpmath.polyroots(q, maxsteps=400, extraprec=200)


def assert_roots_of(values, p):
    with mpmath.workdps(DPS):
        targets = mp_roots(p)
        for v in values:
            assert min(abs(v - t) for t in targets) < CLOSE, (v, p)


def mp_value(q, z):
    acc = mpmath.mpc(0)
    for c in q:
        acc = acc * z + mpmath.mpf(c.numerator) / c.denominator
    return acc


# ---------------------------------------------------------------------------
# Power-sum constructions
# ---------------------------------------------------------------------------


@settings(max_examples=30)
@given(polys(3), polys(3))
def test_composed_product_vanishes_at_products(a, b):
    c = composed_product_pair(tuple(a), tuple(b))
    with mpmath.workdps(DPS):
        products = [x * y for x in mp_roots(a) for y in mp_roots(b)]
    assert_roots_of(products, c)


@given(polys(5), st.integers(1, 4))
def test_power_poly_vanishes_at_powers(m, k):
    p = power_poly(tuple(m), k)
    assert len(p) == len(m)
    with mpmath.workdps(DPS):
        powers = [x ** k for x in mp_roots(m)]
    assert_roots_of(powers, p)


@given(polys(5), st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                          min_size=1, max_size=6))
def test_values_poly_vanishes_at_values(f, q):
    p = values_poly(tuple(f), q)
    assert len(p) == len(f)
    with mpmath.workdps(DPS):
        values = [mp_value(q, t) for t in mp_roots(f)]
    assert_roots_of(values, p)


def test_composed_product_of_non_real_roots():
    # x^3 - x - 1 has a non-real pair off the unit circle; |alpha|^2 is a
    # product of conjugates, a root of the composed product with itself
    a = (1, 0, -1, -1)
    c = composed_product_pair(a, a)
    assert len(c) == 10
    with mpmath.workdps(DPS):
        z = next(r for r in mp_roots(a) if mpmath.im(r) > 0)
        assert_roots_of([z * mpmath.conj(z)], c)


# ---------------------------------------------------------------------------
# Log-moduli
# ---------------------------------------------------------------------------


def mp_of(x):
    return mpmath.mpf(x.numerator) / x.denominator


@settings(max_examples=8)
@given(unit_sums(), st.data())
def test_combined_log_moduli_enclose_the_eigenvalues(gens, data):
    # chi(n) on each class, a product of powers mod f, against log|lambda|
    # over the eigenvalues lambda of sigma(n) from sympy's matrix powers;
    # both lists sorted, the classes repeated to their dimensions
    action = validate_action(gens)
    n = data.draw(st.lists(st.integers(-2, 2), min_size=action.k, max_size=action.k))
    eps = Fraction(1, 10**40)
    boxes = []
    for cls in analyze(action).classes():
        boxes += [LogValue.combine(cls.moduli_log, n).interval(eps)] * cls.dimension
    boxes.sort(key=lambda box: (box.lo, box.hi))
    sigma = [[int(x) for x in row] for row in sigma_matrix(action, n).tolist()]
    with mpmath.workdps(DPS):
        logs = sorted(mpmath.log(abs(z)) for z in mp_eigenvalues(sigma))
        for box, value in zip(boxes, logs, strict=True):
            assert mp_of(box.lo) - CLOSE <= value <= mp_of(box.hi) + CLOSE, (n, box, value)


@pytest.mark.parametrize("f, exact", [
    # the cat map's contracting eigenvalue (3 - sqrt 5)/2
    ((1, -3, 1), lambda: mpmath.log((3 - mpmath.sqrt(5)) / 2)),
    # rho, the real root of x^3 - x - 1
    ((1, 0, -1, -1), lambda: mpmath.log(mpmath.findroot(lambda x: x**3 - x - 1, 1.3))),
], ids=["cat-negative", "cubic-positive"])
def test_log_enclosures_reach_every_width(f, exact):
    # log|tau| for the smallest real root tau of f: q = x
    lv = LogValue(f, roots.__wrapped__(f)[0], (1, 0))
    with mpmath.workdps(450):
        value, slack = exact(), mpmath.mpf(10) ** -440
        for eps in _EPS_SCHEDULE:
            box = lv.interval(eps)
            assert box.width <= eps
            assert mp_of(box.lo) - slack <= value <= mp_of(box.hi) + slack
        assert lv.mid() == mpmath.libmp.to_float(value._mpf_, rnd="n")


# ---------------------------------------------------------------------------
# Certified disks
# ---------------------------------------------------------------------------


def in_disk(z, disk):
    """z within the disk, up to mpmath's own error (an exact root such as
    x = 1 gets a disk of radius 0)."""
    re, im, r = (mpmath.mpf(x.numerator) / x.denominator for x in disk)
    return abs(z - mpmath.mpc(re, im)) <= r + mpmath.mpf(10) ** -50


@settings(max_examples=30)
@given(polys(12, coeff=9).map(squarefree_part).filter(lambda p: len(p) > 2))
def test_disks_isolate_every_root(p):
    found = roots(p)
    assert len(found) == len(p) - 1
    with mpmath.workdps(DPS):
        for z in mpmath.polyroots(p, maxsteps=400, extraprec=200):
            assert sum(in_disk(z, root.iso) for root in found) == 1
    bound = 1 + max(abs(Fraction(c, p[0])) for c in p[1:])
    assert sum(r.is_real for r in found) == _sturm_count(p, -bound, bound)
    real = [r.iso[0] for r in found if r.is_real]
    assert real == sorted(real) and all(r.is_real for r in found[:len(real)])


def test_root_box_encloses_at_every_width():
    root = roots((1, 0, -1, -1))[0]          # the real root of x^3 - x - 1
    with mpmath.workdps(320):
        exact = mpmath.findroot(lambda x: x**3 - x - 1, 1.3)
        for eps in (Fraction(1, 10**12), Fraction(1, 10**100), Fraction(1, 10**300)):
            box = root_box(root, eps)
            assert box.re.width <= 2 * eps and box.im.width == 0
            assert mpmath.mpf(box.re.lo.numerator) / box.re.lo.denominator <= exact
            assert exact <= mpmath.mpf(box.re.hi.numerator) / box.re.hi.denominator


def test_refinement_recovers_from_a_newton_step_outside():
    """A Newton iterate that leaves the isolating disk is not accepted; the
    roots are isolated again at higher precision instead."""
    key = (1, 0, -4, 1)                       # three real roots
    root = roots.__wrapped__(key)[2]          # uncached: the test spoils it
    root._next = (Fraction(-7), Fraction(0))  # points far from this root
    box = root_box(root, Fraction(1, 10**40))
    with mpmath.workdps(DPS):
        exact = max(mpmath.re(z) for z in mpmath.polyroots(key, extraprec=200))
        assert mpmath.mpf(box.re.lo.numerator) / box.re.lo.denominator <= exact
        assert exact <= mpmath.mpf(box.re.hi.numerator) / box.re.hi.denominator
    assert box.re.width <= Fraction(2, 10**40)


def test_rational_and_gaussian_roots_are_exact_points():
    (half,) = roots((2, -1))
    assert root_box(half, Fraction(1, 10**30)).re.lo == Fraction(1, 2)
    lo_i, hi_i = roots((1, 0, 1))                # -i, i
    assert (lo_i.disk, hi_i.disk) == ((0, -1, 0), (0, 1, 0))
    assert not lo_i.is_real


def test_polyroots_without_convergence_retries_at_higher_precision():
    # a quadratic unit of height 1.5e55: polyroots does not converge at the
    # first precision, and the isolation doubles it instead of failing
    trace = 14884595127390181165365526562827679328180552065249537282
    key = (1, -trace, 1)
    found = roots.__wrapped__(key)
    assert len(found) == 2 and all(r.is_real for r in found)
    with mpmath.workdps(2 * DPS):       # 1e-65 absolute at 1.5e55
        for root, z in zip(found, sorted(mpmath.polyroots(key, extraprec=400))):
            assert in_disk(z, root.iso)
            root_box(root, Fraction(1, 10**80))
            assert in_disk(z, root.disk)


@pytest.mark.parametrize("key", [(1, 0, -1, -1), (1, -1, -1, -1, 1), (1, 0, 0, 0, -1, -1)])
def test_order_real_ascending_then_non_real(key):
    found = roots(key)
    real = [r for r in found if r.is_real]
    assert found[:len(real)] == tuple(real)
    centres = [(r.iso[0], r.iso[1]) for r in found[len(real):]]
    assert centres == sorted(centres)
    # conjugate pairs share their real part exactly
    assert sorted(c[1] for c in centres) == sorted(-c[1] for c in centres)


# ---------------------------------------------------------------------------
# Import boundary
# ---------------------------------------------------------------------------


def test_spectral_modules_load_no_sympy():
    code = ("import sys\n"
            "import anosovkit.algnum, anosovkit.spectra, anosovkit.chambers\n"
            "assert 'sympy' not in sys.modules, 'sympy imported'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_no_module_imports_sympy():
    src = Path(__file__).resolve().parents[1] / "src" / "anosovkit"
    sites = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(n.split(".")[0] == "sympy" for n in names):
                sites.append((path.name, node.lineno))
    assert sites == []
