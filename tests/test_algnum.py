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
import itertools
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovkit.algnum import LogValue, root_box, roots
from anosovkit.exact import _EPS_SCHEDULE, mat_mul, validate_action
from anosovkit.intpoly import (
    _sturm_count,
    pair_products,
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
@given(polys(5).map(squarefree_part).filter(lambda p: len(p) > 2))
def test_pair_products_vanish_at_pair_products(m):
    # m is squarefree, so its roots are simple and the products over pairs
    # i < j are those of distinct roots
    p = pair_products(m)
    n = len(m) - 1
    assert len(p) - 1 == n * (n - 1) // 2
    with mpmath.workdps(DPS):
        alphas = mp_roots(m)
        products = [alphas[i] * alphas[j] for i in range(n) for j in range(i + 1, n)]
    assert_roots_of(products, p)


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


def test_pair_products_of_non_real_roots():
    # x^3 - x - 1 has a non-real pair off the unit circle; |alpha|^2 is a
    # product of conjugates, a root of the pair products of degree 3
    a = (1, 0, -1, -1)
    c = pair_products(a)
    assert len(c) == 4
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
# Exact decisions: equals and is_zero
# ---------------------------------------------------------------------------

T3_M = [[0, 0, -1], [1, 0, 2], [0, 1, 1]]
T3_N = [[x - 2 * (i == j) for j, x in enumerate(row)]
        for i, row in enumerate(mat_mul(T3_M, T3_M))]


def direct_sum(a, b):
    return [row + [0] * len(b) for row in a] + [[0] * len(a) + row for row in b]


def mp_log(lv):
    return mp_of(lv.interval(Fraction(1, 10**50)).lo)


def test_equal_log_moduli_from_different_blocks():
    # blockdiag-t6, (M + M, N + M): the first generator is M on both blocks
    # of T, so each of its log-moduli appears once per block, as
    # log|q(tau)| for different f, q and tau
    an = analyze(validate_action([direct_sum(T3_M, T3_M), direct_sum(T3_N, T3_M)]))
    classes = an.classes()
    block = {c: b for b, members in enumerate(an.block_classes) for c in members}
    across = 0
    with mpmath.workdps(DPS):
        for a, b in itertools.combinations(classes, 2):
            x, y = a.moduli_log[0], b.moduli_log[0]
            equal = abs(mp_log(x) - mp_log(y)) < CLOSE
            assert x.equals(y) == y.equals(x) == equal, (a.index, b.index)
            across += equal and block[a.index] != block[b.index]
    assert across == 3


def test_conjugate_pair_and_its_real_partner():
    # x^3 - x - 1: rho |tau|^2 = 1 for the non-real pair tau, conj tau
    f = (1, 0, -1, -1)
    rho, tau, tau_bar = (LogValue(f, root, (1, 0)) for root in roots.__wrapped__(f))
    assert tau.equals(tau_bar) and tau_bar.equals(tau)
    assert not tau.equals(rho) and not tau.is_zero() and not rho.is_zero()
    assert tau.scaled(2).equals(rho.scaled(-1))
    assert not tau.scaled(2).equals(rho)
    assert (tau.sign(), rho.sign()) == (-1, 1)


def test_irrational_unit_modulus_is_zero():
    # the Salem polynomial x^4 - x^3 - x^2 - x + 1: two real roots 1/lambda
    # and lambda, and an irrational pair on the unit circle
    f = (1, -1, -1, -1, 1)
    small, big, z, z_bar = (LogValue(f, root, (1, 0)) for root in roots.__wrapped__(f))
    assert z.is_zero() and z_bar.is_zero() and z.equals(z_bar)
    assert (z.sign(), small.sign(), big.sign()) == (0, -1, 1)
    assert not small.is_zero() and not big.is_zero()
    assert small.scaled(-1).equals(big) and not small.equals(big)
    # q = x^2 + 1 has |q(z)|^2 = |z|^2 |z + 1/z|^2 = (2 cos theta)^2 != 1
    assert not LogValue(f, z.root, (1, 0, 1)).is_zero()


def test_distinct_values_closer_than_the_first_width():
    # phi^2 against (F_66 / F_65)^2: a Fibonacci ratio is within 1/F_65^2
    # of phi, so the two differ by about 1e-27, far inside the first
    # enclosures; the gcd of x^2 - 3x + 1 and a linear polynomial decides
    fib = [1, 1]
    while len(fib) < 66:
        fib.append(fib[-1] + fib[-2])
    phi = LogValue((1, -1, -1), roots.__wrapped__((1, -1, -1))[1], (1, 0))
    ratio = LogValue((1, -1), roots.__wrapped__((1, -1))[0], (Fraction(fib[-1], fib[-2]),))
    first = _EPS_SCHEDULE[0]
    assert phi.interval(first).intersects(ratio.interval(first))
    assert not phi.equals(ratio) and not ratio.equals(phi)
    with mpmath.workdps(DPS):
        above = mp_of(ratio.interval(Fraction(1, 10**40)).lo) > mpmath.log(mpmath.phi)
    assert ratio.cmp(phi) == (1 if above else -1) == -phi.cmp(ratio)


def test_value_within_the_first_width_of_one_is_not_zero():
    # q = F_149 x - F_150 + 1 has q(phi) = 1 - (-1/phi)^149, within 1e-31
    # of 1: its enclosures at the first width, the isolating one included,
    # hold 1, and P(1) != 0 decides
    fib = [1, 1]
    while len(fib) < 151:
        fib.append(fib[-1] + fib[-2])
    near = LogValue((1, -1, -1), roots.__wrapped__((1, -1, -1))[1],
                    (fib[-2], 1 - fib[-1]))
    box = near.interval(_EPS_SCHEDULE[0])
    assert box.lo <= 0 <= box.hi
    assert not near.is_zero()
    with mpmath.workdps(DPS):
        value = fib[-2] * mpmath.phi - fib[-1] + 1
    assert near.sign() == (1 if value > 1 else -1)


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
