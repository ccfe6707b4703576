"""Exact univariate polynomials: the one polynomial layer of anosovkit.

Polynomials are dense coefficient tuples in *descending* degree order,
e.g. ``(1, -3, 1)`` is x^2 - 3x + 1, and ``()`` is the zero polynomial.
Integer coefficients stay ``int`` and rational ones are ``Fraction``, so
integer input never leaves integer arithmetic.  This module owns every
polynomial fact the toral verdicts rest on:

- ``charpoly`` (closed forms up to 3x3, Faddeev-LeVerrier above) and
  ``poly_of_matrix`` (Horner);
- ``poly_divmod``, the one division, behind ``divides``, the cyclotomic
  polynomials and ``squarefree_part``;
- ``is_semisimple_matrix``: the squarefree part of the characteristic
  polynomial annihilates the matrix iff the minimal polynomial is
  squarefree;
- the cyclotomic divisibility scan, an exact root-of-unity detector;
- ``has_unit_circle_root``, the exact hyperbolicity test: the reciprocal
  part gcd(p, reversed p), rewritten in t = x + 1/x, and a Sturm count of
  its real roots in (-2, 2);
- ``primitive`` normalization and ``factor`` over Q;
- the constructions that exact identification of eigenvalue moduli needs,
  from power sums of roots (Newton's identities both ways; Bostan,
  Flajolet, Salvy and Schost, J. Symbolic Comput. 41, 2006):
  ``values_poly`` (the values q(tau) over the roots tau of f),
  ``power_poly`` (the k-th powers) and ``composed_product_pair`` (the
  pairwise products).  Each equals the classical resultant after
  ``primitive``, up to sign.

Only ``factor`` uses sympy, imported on first call; it is the only sympy
use in anosovkit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .exact import mat_mul


def _quo(a, b):
    """a / b over Q: an int when the quotient is an integer, else a Fraction."""
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b   # the common case, kept off the slower Fraction path
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def charpoly(a) -> tuple:
    """det(xI - A) of a square integer or rational matrix.

    Closed forms for n <= 3, the sizes that exhaustive cyclotomic scans
    call millions of times; Faddeev-LeVerrier above: M_1 = A,
    c_k = -tr(M_k)/k, M_{k+1} = A(M_k + c_k I).  Each c_k is an int
    whenever it is an integer.
    """
    n = len(a)
    if n == 1:
        coeffs = (1, -a[0][0])
    elif n == 2:
        (p, q), (r, s) = a
        coeffs = (1, -(p + s), p * s - q * r)
    elif n == 3:
        (p, q, r), (s, t, u), (v, w, x) = a
        minors = (t * x - u * w) + (p * x - r * v) + (p * t - q * s)
        det = p * (t * x - u * w) - q * (s * x - u * v) + r * (s * w - t * v)
        coeffs = (1, -(p + t + x), minors, -det)
    else:
        coeffs = [1]
        m = a
        for k in range(1, n + 1):
            ck = -_quo(sum(m[i][i] for i in range(n)), k)
            coeffs.append(ck)
            if k < n:
                m = mat_mul(a, [[y + ck if i == j else y for j, y in enumerate(row)]
                                for i, row in enumerate(m)])
    return tuple(c if type(c) is int else _quo(c, 1) for c in coeffs)


def poly_of_matrix(coeffs, m):
    """Evaluate a polynomial (descending) at a square matrix by Horner's rule."""
    d = len(m)
    acc = [[0] * d for _ in range(d)]
    for c in coeffs:
        acc = mat_mul(acc, m)
        for i in range(d):
            acc[i][i] += c
    return acc


def poly_divmod(p, q) -> tuple:
    """(quotient, remainder) of p by a polynomial q with nonzero leading term."""
    r = list(p)
    dq = len(q) - 1
    nq = max(len(r) - dq, 0)
    for i in range(nq):
        # r[i] becomes the quotient coefficient; a monic q (the cyclotomic
        # scans) skips the division
        c = r[i] = r[i] if q[0] == 1 else _quo(r[i], q[0])
        if c:
            for j in range(1, dq + 1):
                r[i + j] -= c * q[j]
    rem = r[nq:]
    while rem and rem[0] == 0:
        del rem[0]
    return tuple(r[:nq]), tuple(rem)


def divides(q, p) -> bool:
    return not poly_divmod(p, q)[1]


def primitive(p) -> tuple:
    """p scaled to integer coefficients with content 1 and a positive leading
    coefficient; leading zeros are dropped, and zero stays ``()``."""
    p = list(p)
    while p and p[0] == 0:
        p.pop(0)
    if not p:
        return ()
    den = lcm(*(c.denominator for c in p))
    ints = [c.numerator * (den // c.denominator) for c in p]
    g = gcd(*ints)
    return tuple(c // g for c in ints) if ints[0] > 0 else tuple(-c // g for c in ints)


def squarefree_part(p) -> tuple:
    """p / gcd(p, p'), the product of p's distinct irreducible factors, as a
    primitive integer polynomial.  The gcd is taken by Euclid over Q with
    each remainder made primitive, which keeps the coefficients small."""
    n = len(p) - 1
    g = primitive(p)
    r = primitive(c * (n - i) for i, c in enumerate(p[:-1]))
    while r:
        g, r = r, primitive(poly_divmod(g, r)[1])
    return primitive(poly_divmod(p, g)[0])


def is_semisimple_matrix(a) -> bool:
    """True iff the square rational matrix a is diagonalizable over C; exact.

    The minimal polynomial is squarefree iff the squarefree part of the
    characteristic polynomial annihilates a.
    """
    a = [[Fraction(x) for x in row] for row in a]
    return not any(x for row in poly_of_matrix(squarefree_part(charpoly(a)), a)
                   for x in row)


def power_sums(p, count: int) -> list:
    """[s_1, ..., s_count], the power sums of p's roots with multiplicity.

    Newton's identities: a_0 s_k = -(k a_k + sum_{i=1}^{k-1} a_i s_{k-i}),
    with a_k = 0 beyond deg p.  Integers when p is monic over Z.
    """
    n = len(p) - 1
    sums = []
    for k in range(1, count + 1):
        acc = k * p[k] if k <= n else 0
        for i in range(1, min(k - 1, n) + 1):
            acc += p[i] * sums[k - i - 1]
        sums.append(_quo(-acc, p[0]))
    return sums


def from_power_sums(sums) -> tuple:
    """The primitive polynomial of degree len(sums) whose roots have the
    power sums ``sums``: Newton's identities back, c_k = -(1/k) sum_{i<=k}
    c_{k-i} s_i for the monic coefficients c."""
    c = [1]
    for k in range(1, len(sums) + 1):
        c.append(_quo(-sum(c[k - i] * sums[i - 1] for i in range(1, k + 1)), k))
    return primitive(c)


def _mul(p, q) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def values_poly(f, q) -> tuple:
    """Primitive polynomial whose roots are q(tau) over the roots tau of f.

    ``q``: rational coefficients, descending.  Its power sums are the
    traces tr(q(C_f)^j), C_f the companion matrix of f: multiplication by
    q^j on Q[x]/(f), whose trace is sum_m [x^m](q^j mod f) * s_m(f).
    """
    n = len(f) - 1
    sf = [n] + power_sums(f, n - 1)
    sums, acc = [], (1,)
    for _ in range(n):
        acc = poly_divmod(_mul(acc, q), f)[1]
        sums.append(sum(c * sf[m] for m, c in enumerate(reversed(acc))))
    return from_power_sums(sums)


def power_poly(m, k: int) -> tuple:
    """Primitive polynomial whose roots are alpha^k over the roots alpha of
    m: s_j(alpha^k) = s_{jk}(alpha)."""
    assert k >= 1
    n = len(m) - 1
    return from_power_sums(power_sums(m, n * k)[k - 1::k])


def _squarefree_nonzero(p) -> tuple:
    """Squarefree part of p with the root 0 removed."""
    p = tuple(p)
    while p[-1] == 0:
        p = p[:-1]
    return squarefree_part(p)


def composed_product_pair(a, b) -> tuple:
    """Primitive polynomial whose roots are the products alpha*beta over the
    roots alpha of a and beta of b: s_k(alpha*beta) = s_k(alpha) s_k(beta).

    Zero roots are stripped and the squarefree parts are used first (once
    when a and b are the same polynomial).
    """
    sa = _squarefree_nonzero(a)
    sb = sa if tuple(b) == tuple(a) else _squarefree_nonzero(b)
    n = (len(sa) - 1) * (len(sb) - 1)
    return from_power_sums([x * y for x, y in zip(power_sums(sa, n), power_sums(sb, n))])


@lru_cache(maxsize=8192)
def factor(coeffs: tuple) -> tuple:
    """Irreducible factors over Q of a nonzero polynomial given as a tuple.

    Returns ((key, multiplicity), ...) with each key a primitive integer
    polynomial, in sympy's order: by degree, then multiplicity, then
    coefficients.  Constants are dropped.
    """
    from sympy import Poly, Symbol

    p = primitive(coeffs)
    if len(p) < 2:
        return ()
    _, facs = Poly(list(p), Symbol("x")).factor_list()
    return tuple((primitive(int(c) for c in f.all_coeffs()), int(e)) for f, e in facs)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple:
    """Coefficients of the n-th cyclotomic polynomial (descending)."""
    # x^n - 1 divided by the product of lower-index cyclotomics dividing n
    num = (1,) + (0,) * (n - 1) + (-1,)
    for d in range(1, n):
        if n % d == 0:
            num = poly_divmod(num, cyclotomic_poly(d))[0]
    return num


@lru_cache(maxsize=None)
def cyclotomic_indices_for_degree(d: int) -> tuple:
    """All n with euler_phi(n) <= d; uses phi(n) >= sqrt(n/2) for the cutoff."""
    return tuple(n for n in range(1, 2 * d * d + 2) if euler_phi(n) <= d)


def cyclotomic_divisors(p) -> list:
    """Indices n with Phi_n | p.  Exact root-of-unity detector for integer p."""
    d = len(p) - 1
    if d <= 0:
        return []
    found = []
    for n in cyclotomic_indices_for_degree(d):
        cn = cyclotomic_poly(n)
        if len(cn) - 1 <= d and divides(cn, p):
            found.append(n)
    return found


def has_root_of_unity(p) -> bool:
    """True iff the integer polynomial p has a root of unity among its roots.

    Since each cyclotomic is irreducible over Q, p has a root of unity iff
    some Phi_n with phi(n) <= deg p divides p.
    """
    return bool(cyclotomic_divisors(p))


def _horner(p, x):
    acc = 0
    for c in p:
        acc = acc * x + c
    return acc


def _sign_changes(seq, x) -> int:
    signs = [v > 0 for v in (_horner(p, x) for p in seq) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sturm_count(h, a, b) -> int:
    """Distinct real roots of h in (a, b], by Sturm's theorem over Q.

    Each remainder is scaled by a positive constant to integer content 1,
    which keeps every sign of the sequence.  h need not be squarefree.
    """
    seq = [primitive(h)]
    r = primitive(c * (len(h) - 1 - i) for i, c in enumerate(h[:-1]))
    while r:
        seq.append(r)
        rem = poly_divmod(seq[-2], seq[-1])[1]
        r = primitive(rem)
        if rem and (rem[0] > 0) == (r[0] > 0):
            r = tuple(-c for c in r)     # the Sturm step takes -rem
    return _sign_changes(seq, a) - _sign_changes(seq, b)


def has_unit_circle_root(p) -> bool:
    """True iff the integer polynomial p has a root z with |z| = 1; exact.

    A root on the circle satisfies 1/z = conj(z), so it is also a root of
    the reversed polynomial.  After the x-factors are stripped and
    z = +-1 is tested directly, g = gcd(p, reversed p) is reciprocal of
    even degree 2m, g(x) = x^m h(x + 1/x), and z = e^{i theta} maps to the
    real point t = 2 cos(theta) in (-2, 2).  Roots of g off the circle map
    to real t with |t| > 2 or to non-real t, so the answer is whether h has
    a real root in (-2, 2), counted with a Sturm sequence.
    """
    p = list(primitive(p))
    while p and p[-1] == 0:
        p.pop()
    if len(p) < 2:
        return False
    if _horner(p, 1) == 0 or _horner(p, -1) == 0:
        return True
    g = list(p)
    r = primitive(reversed(p))
    while r:
        g, r = r, primitive(poly_divmod(g, r)[1])
    m = (len(g) - 1) // 2
    if m == 0:
        return False
    # x^-m g(x) = g_m + sum_k g_{m+k} (x^k + x^-k), and x^k + x^-k = D_k(t)
    # with the Dickson recursion D_k = t D_{k-1} - D_{k-2}, D_0 = 2, D_1 = t;
    # h and D_k are ascending in t here
    h = [g[m]] + [0] * m
    d_prev, d = [2], [0, 1]
    for k in range(1, m + 1):
        for i, v in enumerate(d):
            h[i] += g[m - k] * v
        d_prev, d = d, [-v for v in d_prev] + [0, 0]
        for i, v in enumerate(d_prev):
            d[i + 1] += v
    return _sturm_count(tuple(reversed(h)), -2, 2) > 0
