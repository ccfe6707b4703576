"""Property tests of the polynomial layer against sympy and mpmath.

sympy is the independent oracle for the characteristic polynomial,
division, the squarefree part, factoring and the cyclotomic polynomials;
mpmath root finding at 60 digits is the oracle for the unit-circle test.
"""

from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from anosovkit.intpoly import (
    charpoly,
    composed_product_pair,
    cyclotomic_poly,
    factor,
    has_unit_circle_root,
    poly_divmod,
    primitive,
    squarefree_part,
)

X = sympy.Symbol("x")

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
small_ints = st.integers(-4, 4)


def square(entries):
    return st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n))


def poly(coeffs):
    return sympy.Poly([sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
                       for c in coeffs], X, domain="QQ")


def coeffs_of(p):
    return [Fraction(int(c.p), int(c.q)) for c in p.all_coeffs()]


def normalized(p):
    """sympy's own primitive integer form with a positive leading term."""
    _, q = sympy.Poly(p, X, domain="ZZ").primitive()
    return tuple(int(c) for c in (-q if q.LC() < 0 else q).all_coeffs())


def polys(entries, max_size=7):
    return st.lists(entries, min_size=1, max_size=max_size).filter(lambda c: c[0] != 0)


@st.composite
def products(draw):
    """Integer polynomials built from small factors with multiplicities, so
    that content, negative and non-unit leading coefficients, powers of x
    and repeated factors are common."""
    p = sympy.Poly(draw(st.sampled_from((1, -1, 2, -3, 6, -12))), X)
    for _ in range(draw(st.integers(1, 4))):
        f = sympy.Poly(draw(polys(small_ints, max_size=4)), X)
        p = p * f ** draw(st.integers(1, 3))
    p = p * X ** draw(st.integers(0, 3))
    return tuple(int(c) for c in p.all_coeffs())


@given(square(small_ints))
def test_charpoly_integer_matrix(a):
    p = charpoly(a)
    assert all(type(c) is int for c in p)
    assert list(p) == [int(c) for c in sympy.Matrix(a).charpoly().all_coeffs()]


@given(square(rationals))
def test_charpoly_rational_matrix(a):
    expected = [Fraction(int(c.p), int(c.q)) for c in sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in a]
    ).charpoly().all_coeffs()]
    p = charpoly(a)
    assert list(p) == expected
    assert all(type(c) is int for c, e in zip(p, expected) if e.denominator == 1)


@given(st.one_of(polys(small_ints), polys(rationals)),
       st.one_of(polys(small_ints, max_size=4), polys(rationals, max_size=4)))
def test_division(p, q):
    quot, rem = poly_divmod(p, q)
    assert len(rem) < len(q)
    assert not rem or rem[0] != 0
    assert poly(q) * poly(quot) + poly(rem) == poly(p)
    s_quot, s_rem = sympy.div(poly(p), poly(q))
    assert list(quot) == coeffs_of(s_quot) or (not quot and s_quot.is_zero)
    assert list(rem) == coeffs_of(s_rem) or (not rem and s_rem.is_zero)


@given(polys(small_ints), polys(small_ints, max_size=4).filter(lambda q: q[0] == 1))
def test_division_by_monic_stays_integer(p, q):
    quot, rem = poly_divmod(p, q)
    assert all(type(c) is int for c in quot + rem)


@given(products())
def test_squarefree_part_against_sympy(p):
    assert squarefree_part(p) == normalized(sympy.sqf_part(poly(p).as_expr(), X))


@given(polys(rationals))
def test_primitive(p):
    out = primitive(p)
    assert out[0] > 0 and all(type(c) is int for c in out)
    assert normalized(poly(p).clear_denoms()[1]) == out


def sympy_factor(p):
    _, expected = sympy.factor_list(poly(p).as_expr(), X)
    return tuple((normalized(f), e) for f, e in expected)


@given(products())
def test_factor_against_sympy(p):
    assert factor(p) == sympy_factor(p)


def _int_coeffs(expr):
    return tuple(int(c) for c in sympy.Poly(expr, X).all_coeffs())


# The Swinnerton-Dyer polynomial S_4, prod (x +- sqrt 2 +- sqrt 3 +- sqrt 5
# +- sqrt 7), is irreducible of degree 16, but every factor mod p has
# degree at most 2: recombination must reject every subset.
SWINNERTON_DYER_4 = _int_coeffs(sympy.minimal_polynomial(
    sympy.sqrt(2) + sympy.sqrt(3) + sympy.sqrt(5) + sympy.sqrt(7), X))
X8_X_1 = (1, 0, 0, 0, 0, 0, 0, -1, -1)


@pytest.mark.parametrize("p", [
    SWINNERTON_DYER_4,
    (1,) + (0,) * 63 + (-1,),
    _int_coeffs(sympy.cyclotomic_poly(105, X) * sympy.cyclotomic_poly(210, X)),
    composed_product_pair(X8_X_1, X8_X_1),
], ids=["swinnerton-dyer-4", "x64-1", "phi105-phi210", "x8-x-1-pair-products"])
def test_factor_hard_cases_against_sympy(p):
    assert factor(p) == sympy_factor(p)


def test_cyclotomic_against_sympy():
    for n in range(1, 61):
        assert cyclotomic_poly(n) == tuple(
            int(c) for c in sympy.Poly(sympy.cyclotomic_poly(n, X), X).all_coeffs())


# Factors whose roots lie on, near or off the unit circle: Salem polynomials
# (two roots off the circle, the rest on it), cyclotomic polynomials,
# reciprocal pairs a(x) x^deg(a) a(1/x) (roots alpha and 1/alpha) and
# reciprocal quadratics c x^2 + b x + c (on the circle iff |b| < 2|c|).
SALEM = ((1, -1, -1, -1, 1),
         (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))    # Lehmer's polynomial
CYCLOTOMIC = tuple(cyclotomic_poly(n) for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 18))


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return tuple(out)


@st.composite
def circle_products(draw):
    """A random integer polynomial with p(0) != 0, times Salem, cyclotomic
    and reciprocal-pair factors, some of them repeated."""
    p = draw(polys(st.integers(-5, 5), max_size=6).filter(lambda c: c[-1] != 0))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("salem", "cyclotomic", "pair", "quadratic")))
        if kind == "salem":
            f = draw(st.sampled_from(SALEM))
        elif kind == "cyclotomic":
            f = draw(st.sampled_from(CYCLOTOMIC))
        elif kind == "pair":
            a = draw(polys(st.integers(-4, 4), max_size=4).filter(lambda c: c[-1] != 0))
            f = _mul(a, tuple(reversed(a)))
        else:
            c = draw(st.integers(1, 5))
            f = (c, draw(st.integers(-12, 12)), c)
        for _ in range(draw(st.integers(1, 2))):
            p = _mul(p, f)
    return p


def _unit_circle_oracle(p):
    """Whether some root of p has modulus 1, from mpmath roots at 60 digits
    of sympy's squarefree part; a root within 1e-8 of the circle but not
    within 1e-25 would be undecided, and fails the oracle itself."""
    q = [int(c) for c in sympy.Poly(sympy.sqf_part(poly(p).as_expr(), X), X).all_coeffs()]
    if len(q) < 2:
        return False
    with mpmath.workdps(60):
        roots = mpmath.polyroots(q, maxsteps=400, extraprec=400)
        gaps = [abs(abs(z) - 1) for z in roots]
    assert all(g < 1e-25 or g > 1e-8 for g in gaps), gaps
    return any(g < 1e-25 for g in gaps)


@given(circle_products())
def test_unit_circle_root_against_mpmath(p):
    assert has_unit_circle_root(p) == _unit_circle_oracle(p)


def test_unit_circle_root_examples():
    assert has_unit_circle_root(SALEM[0])
    assert has_unit_circle_root(SALEM[1])
    assert not has_unit_circle_root((1, -3, 1))          # cat map
    assert not has_unit_circle_root((1, -1, -2, 1))      # real cubic unit
    assert has_unit_circle_root((1, 1, 1))               # Phi_3
    assert has_unit_circle_root((1, -2, 1))              # (x - 1)^2
    assert not has_unit_circle_root((2, -5, 2))          # roots 2 and 1/2
    assert not has_unit_circle_root((1, 0, 0))           # x^2: roots at 0
    assert not has_unit_circle_root((5,))
    assert has_unit_circle_root((4, 7, 4))               # x + 1/x = -7/4
    assert has_unit_circle_root((4, -7, 4))              # x + 1/x = 7/4
    assert not has_unit_circle_root((4, 9, 4))           # x + 1/x = -9/4
    assert has_unit_circle_root((1, 0, 1, 0, 1))         # Phi_3 Phi_6
    # two reciprocal pairs, no root on the circle: the Sturm remainders'
    # signs decide this one
    pair_a = _mul((2, -4, 1), (1, -4, 2))
    pair_b = _mul((3, 2, 0, 3), (3, 0, 2, 3))
    assert not has_unit_circle_root(_mul(pair_a, pair_b))
