"""Property tests of the polynomial layer against sympy.

sympy is the independent oracle for the characteristic polynomial,
division, the squarefree part, factoring and the cyclotomic polynomials.
"""

from fractions import Fraction

import sympy
from hypothesis import given
from hypothesis import strategies as st

from anosovkit.intpoly import (
    charpoly,
    cyclotomic_poly,
    factor,
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
    that repeated factors and zero roots are common."""
    p = sympy.Poly(draw(st.sampled_from((1, -1, 2, -3))), X)
    for _ in range(draw(st.integers(1, 3))):
        f = sympy.Poly(draw(polys(small_ints, max_size=3)), X)
        p = p * f ** draw(st.integers(1, 3))
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


@given(products())
def test_factor_against_sympy(p):
    _, expected = sympy.factor_list(poly(p).as_expr(), X)
    assert factor(p) == tuple((normalized(f), e) for f, e in expected)


def test_cyclotomic_against_sympy():
    for n in range(1, 61):
        assert cyclotomic_poly(n) == tuple(
            int(c) for c in sympy.Poly(sympy.cyclotomic_poly(n, X), X).all_coeffs())
