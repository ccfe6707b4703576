"""Property tests of the exact linear-algebra kernel against sympy.

sympy is the independent oracle: ranks decide which outcome each system must
have, and its nullspace basis (built from its own rref) must equal ours
entry for entry.
"""

import itertools
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given
from hypothesis import strategies as st

from anosovkit.exact import (
    identity,
    kernel_lattice,
    lattice_intersection,
    mat_inv,
    mat_mul,
    mat_vec,
    nullspace,
    solve_linear,
)
from anosovkit.intpoly import charpoly, is_semisimple_matrix

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def vectors(n):
    return st.lists(rationals, min_size=n, max_size=n)


@st.composite
def matrices(draw, rows=None, cols=None):
    """Small rational matrices: dense, diagonal, block-sparse or low-rank."""
    rows = rows or draw(st.integers(1, 5))
    cols = cols or draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("dense", "diagonal", "block", "lowrank")))
    zero = Fraction(0)
    if kind == "dense":
        return [draw(vectors(cols)) for _ in range(rows)]
    if kind == "diagonal":
        diag = draw(vectors(min(rows, cols)))
        return [[diag[i] if i == j else zero for j in range(cols)] for i in range(rows)]
    if kind == "block":
        r0, c0 = draw(st.integers(0, rows)), draw(st.integers(0, cols))
        return [[draw(rationals) if (i < r0) == (j < c0) else zero for j in range(cols)]
                for i in range(rows)]
    k = draw(st.integers(1, max(1, min(rows, cols) - 1)))
    left = [draw(vectors(k)) for _ in range(rows)]
    right = [draw(vectors(cols)) for _ in range(k)]
    return mat_mul(left, right)


def sym(a):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in a])


def frac(x):
    return Fraction(int(x.p), int(x.q))


def zeros(n):
    return [Fraction(0)] * n


# ---------------------------------------------------------------------------
# solve_linear
# ---------------------------------------------------------------------------


@given(matrices(), st.booleans(), st.data())
def test_solve_linear_outcome_and_solution(a, consistent, data):
    rows, cols = len(a), len(a[0])
    b = (mat_vec(a, data.draw(vectors(cols))) if consistent
         else data.draw(vectors(rows)))
    rank = sym(a).rank()
    if sym(a).row_join(sym([[x] for x in b])).rank() > rank:
        with pytest.raises(ValueError, match=r"^inconsistent linear system$"):
            solve_linear(a, b)
    elif rank < cols:
        with pytest.raises(ZeroDivisionError,
                           match=r"^singular \(underdetermined\) system$"):
            solve_linear(a, b)
    else:
        x = solve_linear(a, b)
        assert all(isinstance(v, Fraction) for v in x)
        assert mat_vec(a, x) == b


@given(matrices(), st.data())
def test_solve_linear_matrix_rhs(a, data):
    cols = len(a[0])
    assume(sym(a).rank() == cols)
    xs = [data.draw(vectors(2)) for _ in range(cols)]
    assert solve_linear(a, mat_mul(a, xs)) == xs


def test_solve_linear_overdetermined_examples():
    a = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)], [Fraction(1), Fraction(1)]]
    assert solve_linear(a, [1, 4, 3]) == [Fraction(1), Fraction(2)]
    with pytest.raises(ValueError, match=r"^inconsistent linear system$"):
        solve_linear(a, [1, 4, 4])


# ---------------------------------------------------------------------------
# mat_inv
# ---------------------------------------------------------------------------


@given(st.integers(1, 5).flatmap(lambda n: matrices(rows=n, cols=n)))
def test_mat_inv(a):
    n = len(a)
    if sym(a).rank() < n:
        with pytest.raises(ZeroDivisionError, match=r"^singular matrix$"):
            mat_inv(a)
    else:
        inv = mat_inv(a)
        assert mat_mul(inv, a) == identity(n)
        assert mat_mul(a, inv) == identity(n)


# ---------------------------------------------------------------------------
# nullspace
# ---------------------------------------------------------------------------


@given(matrices())
def test_nullspace_matches_sympy(a):
    cols = len(a[0])
    basis = nullspace(a)
    assert len(basis) == cols - sym(a).rank()
    for v in basis:
        assert mat_vec(a, v) == zeros(len(a))
    # both are the canonical basis read off the unique rref
    assert basis == [[frac(x) for x in v] for v in sym(a).nullspace()]


# ---------------------------------------------------------------------------
# charpoly and semisimplicity
# ---------------------------------------------------------------------------


def _expect_semisimple(a):
    assert list(charpoly(a)) == [frac(c) for c in sym(a).charpoly().all_coeffs()]
    assert is_semisimple_matrix(a) == sym(a).is_diagonalizable()


@given(st.integers(1, 2).flatmap(lambda n: matrices(rows=n, cols=n)))
def test_semisimple_random_small(a):
    _expect_semisimple(a)


def _conjugate(j, p):
    assume(sym(p).rank() == len(p))
    return mat_mul(mat_mul(p, j), mat_inv(p))


@st.composite
def jordan_forms(draw):
    """(block sizes, matrix P J P^-1) with d <= 4 and repeated eigenvalues likely."""
    d = draw(st.integers(1, 4))
    sizes = []
    while sum(sizes) < d:
        sizes.append(draw(st.integers(1, d - sum(sizes))))
    j = [zeros(d) for _ in range(d)]
    start = 0
    for size in sizes:
        lam = draw(st.sampled_from((Fraction(-1), Fraction(1, 2), Fraction(2))))
        for i in range(start, start + size):
            j[i][i] = lam
            if i + 1 < start + size:
                j[i][i + 1] = Fraction(1)
        start += size
    p = [[Fraction(draw(st.integers(-2, 2))) for _ in range(d)] for _ in range(d)]
    return sizes, _conjugate(j, p)


@given(jordan_forms())
def test_semisimple_jordan_forms(case):
    sizes, a = case
    assert is_semisimple_matrix(a) == all(s == 1 for s in sizes)
    _expect_semisimple(a)


@given(st.integers(1, 4), st.data())
def test_semisimple_conjugated_triangular(d, data):
    diag = st.sampled_from((Fraction(1), Fraction(-1), Fraction(1, 2)))
    u = [[data.draw(diag) if i == j else
          data.draw(rationals) if j > i else Fraction(0) for j in range(d)]
         for i in range(d)]
    p = [[Fraction(data.draw(st.integers(-2, 2))) for _ in range(d)] for _ in range(d)]
    _expect_semisimple(_conjugate(u, p))


def test_semisimple_examples():
    assert is_semisimple_matrix([[2, 1], [1, 1]])
    assert not is_semisimple_matrix([[1, 1], [0, 1]])
    assert is_semisimple_matrix([[0, -1], [1, 0]])   # eigenvalues +-i
    assert not is_semisimple_matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])



@given(st.lists(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                         max_size=2), min_size=1, max_size=3))
def test_lattice_intersection_is_the_saturated_kernel(normal_sets):
    # each lattice is the kernel of its normals (no normals: all of Z^3), so
    # the intersection is the kernel of every normal: a basis of it is
    # orthogonal to them all, has rank 3 - rank(normals), and is saturated,
    # i.e. the gcd of its maximal minors is 1
    bases = [kernel_lattice(normals) if any(map(any, normals)) else identity(3, 1)
             for normals in normal_sets]
    basis = lattice_intersection(bases, 3)
    every = [n for normals in normal_sets for n in normals]
    assert all(sum(a * b for a, b in zip(n, v)) == 0 for n in every for v in basis)
    assert len(basis) == 3 - (sym(every).rank() if every else 0)
    if basis:
        minors = [sym(basis).extract(list(range(len(basis))), list(cols)).det()
                  for cols in itertools.combinations(range(3), len(basis))]
        assert math.gcd(*map(int, minors)) == 1
