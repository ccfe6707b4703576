"""Exact univariate polynomials: the one polynomial layer of anosovkit.

Polynomials are dense coefficient tuples in *descending* degree order,
e.g. ``(1, -3, 1)`` is x^2 - 3x + 1, and ``()`` is the zero polynomial.
Integer coefficients stay ``int`` and rational ones are ``Fraction``, so
integer input never leaves integer arithmetic.  This module owns every
polynomial fact the toral verdicts rest on:

- ``charpoly`` (closed forms up to 3x3, Faddeev-LeVerrier above) and
  ``poly_of_matrix`` (Horner);
- ``poly_divmod``, the one division over Q, behind ``divides``, the
  cyclotomic polynomials and ``squarefree_part``, and its remainder in
  integers up to a positive factor, ``_prem``, behind ``_gcd`` and the
  Sturm sequences;
- ``is_semisimple_matrix``: the squarefree part of the characteristic
  polynomial annihilates the matrix iff the minimal polynomial is
  squarefree;
- the cyclotomic divisibility scan, an exact root-of-unity detector;
- ``has_unit_circle_root``, the exact hyperbolicity test: the reciprocal
  part gcd(p, reversed p), rewritten in t = x + 1/x, and a Sturm count of
  its real roots in (-2, 2);
- ``roots_in_annulus``, the exact test of lo < |z| < hi for every root
  that decides the normal form's band gate: Schur-Cohn on p(hi z) and on
  the reversal of p(lo z), each step made primitive;
- ``primitive`` normalization and ``factor`` over Q: Yun's squarefree
  decomposition, then Zassenhaus's method on each part (distinct- and
  equal-degree factoring mod a small prime, Hensel lifting, recombination
  by exact trial division);
- the constructions whose roots are eigenvalues and their squared moduli,
  from power sums of roots (Newton's identities both ways; Bostan,
  Flajolet, Salvy and Schost, J. Symbolic Comput. 41, 2006):
  ``values_poly`` (the values q(tau) over the roots tau of f),
  ``power_poly`` (the k-th powers) and ``pair_products`` (the products
  alpha_i alpha_j over pairs i < j, of degree n(n - 1)/2);
- ``_sturm_count``, the number of real roots in a closed interval, from
  a Sturm sequence built once per polynomial: with it and ``_gcd`` a
  squared modulus is decided from one polynomial that vanishes at it and
  one interval that holds no other of its roots;
- ``double_roots``, the roots of a squarefree integer polynomial in
  double precision, from the Durand-Kerner seeds (``root_seeds``, which
  also start ``algnum``'s certified roots) by Newton steps with exact
  residuals, the real ones counted exactly: the conjugacy solver's
  eigenvalues;
- arithmetic in Q[x]/(f): ``mul_mod``, ``power_mod`` and
  ``power_product``, the products of powers that write an action element,
  or an integer combination of log-moduli, as one polynomial.

Nothing here, or anywhere in anosovkit, uses sympy.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, isfinite, isqrt, lcm

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


def _strip(a) -> list:
    """a without its leading zeros, as a list."""
    for i, c in enumerate(a):
        if c:
            return list(a[i:])
    return []


def _add(a, b) -> list:
    if len(a) < len(b):
        a, b = b, a
    k = len(a) - len(b)
    return _strip(list(a[:k]) + [x + y for x, y in zip(a[k:], b)])


def _sub(a, b) -> list:
    return _add(a, [-c for c in b])


def _reduce(a, m) -> list:
    return _strip([c % m for c in a])


def _derivative(p) -> list:
    n = len(p) - 1
    return _strip([c * (n - i) for i, c in enumerate(p[:-1])])


def _prem(a, b) -> list:
    """A positive multiple of the remainder of a by b, for integer a and b,
    in integers: each step scales the running remainder by |lc(b)|."""
    c, b = abs(b[0]), b if b[0] > 0 else [-x for x in b]
    r = list(a)
    while len(r) >= len(b):
        r = _strip([c * x - r[0] * y for x, y in itertools.zip_longest(r, b, fillvalue=0)])
    return r


def _gcd(a, b) -> tuple:
    """Primitive gcd over Q by Euclid, each remainder made primitive, which
    keeps the coefficients small."""
    a, b = primitive(a), primitive(b)
    while b:
        a, b = b, primitive(_prem(a, b))
    return a


def squarefree_part(p) -> tuple:
    """p / gcd(p, p'), the product of p's distinct irreducible factors, as a
    primitive integer polynomial."""
    return primitive(poly_divmod(p, _gcd(p, _derivative(p)))[0])


def is_semisimple_matrix(a) -> bool:
    """True iff the square rational matrix a is diagonalizable over C; exact.

    The minimal polynomial is squarefree iff the squarefree part of the
    characteristic polynomial annihilates a.
    """
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


def mul_mod(a, b, f) -> tuple:
    """a * b mod f over Q."""
    return poly_divmod(_mul(a, b), f)[1]


@lru_cache(maxsize=8192)
def _unit_inverse(q: tuple, f: tuple) -> tuple:
    """q^-1 mod the squarefree f over Q, for a unit q mod f, by
    Cayley-Hamilton: v = values_poly(f, q) has v(q) = 0 mod f and constant
    term c = +-prod q(tau) != 0, so q^-1 = -w(q)/c for w = (v - c)/x."""
    v, w = values_poly(f, q), ()
    for coeff in v[:-1]:   # Horner's rule
        w = _add(mul_mod(w, q, f), [coeff])
    return tuple(_quo(-x, v[-1]) for x in w)


def power_mod(q, e: int, f) -> tuple:
    """q^e mod the squarefree f over Q, by binary powering; for e < 0, q is
    a unit mod f, inverted once per (q, f)."""
    if e < 0:
        q, e = _unit_inverse(tuple(q), tuple(f)), -e
    acc = (1,)
    for bit in bin(e)[2:]:
        acc = mul_mod(acc, acc, f)
        if bit == "1":
            acc = mul_mod(acc, q, f)
    return acc


def power_product(qs, es, f) -> tuple:
    """prod_i qs[i]^es[i] mod the squarefree f over Q, for integer es (a
    negative one needs a unit)."""
    acc = (1,)
    for q, e in zip(qs, es):
        if e:
            acc = mul_mod(acc, power_mod(q, int(e), f), f)
    return acc


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
        acc = mul_mod(acc, q, f)
        sums.append(sum(c * sf[m] for m, c in enumerate(reversed(acc))))
    return from_power_sums(sums)


def power_poly(m, k: int) -> tuple:
    """Primitive polynomial whose roots are alpha^k over the roots alpha of
    m: s_j(alpha^k) = s_{jk}(alpha)."""
    assert k >= 1
    n = len(m) - 1
    return from_power_sums(power_sums(m, n * k)[k - 1::k])


def pair_products(m) -> tuple:
    """Primitive polynomial whose roots are the products alpha_i alpha_j,
    i < j, over the roots alpha_1, ..., alpha_n of m counted with
    multiplicity, of degree n(n - 1)/2: its power sums are
    s_k = (S_k^2 - S_2k)/2, with S the power sums of m."""
    n = len(m) - 1
    sums = power_sums(m, n * (n - 1))
    return from_power_sums([_quo(sums[k - 1] ** 2 - sums[2 * k - 1], 2)
                            for k in range(1, n * (n - 1) // 2 + 1)])


# ---------------------------------------------------------------------------
# Factoring over Z (Zassenhaus; von zur Gathen and Gerhard, Modern Computer
# Algebra, ch. 14-15).  Polynomials mod m are descending lists with entries
# in [0, m).
# ---------------------------------------------------------------------------


def _pmul(a, b, p) -> list:
    return _reduce(_mul(a, b), p)


def _pdivmod(a, b, p) -> tuple:
    """(quotient, remainder) mod p of a by b, b with a unit leading term."""
    r = list(a)
    db = len(b) - 1
    inv = pow(b[0], -1, p)
    nq = max(len(r) - db, 0)
    for i in range(nq):
        c = r[i] = r[i] * inv % p
        if c:
            for j in range(1, db + 1):
                r[i + j] -= c * b[j]
    return r[:nq], _reduce(r[nq:], p)


def _monic(a, p) -> list:
    inv = pow(a[0], -1, p)
    return [c * inv % p for c in a]


def _pgcd(a, b, p) -> list:
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return _monic(a, p)


def _pgcdex(a, b, p) -> tuple:
    """(s, t) with s a + t b = 1 mod p, deg s < deg b, deg t < deg a, for
    coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _reduce(_sub(s0, _pmul(q, s1, p)), p)
        t0, t1 = t1, _reduce(_sub(t0, _pmul(q, t1, p)), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _ppow(a, e, f, p) -> list:
    """a^e mod (f, p), f monic, by binary powering."""
    r = [1]
    for bit in bin(e)[2:]:
        r = _pdivmod(_pmul(r, r, p), f, p)[1]
        if bit == "1":
            r = _pdivmod(_pmul(r, a, p), f, p)[1]
    return r


def _squarefree_mod(f, p) -> list:
    """f made monic mod p when it stays squarefree mod p, else []."""
    fp = _monic(f, p)
    return fp if len(_pgcd(fp, _reduce(_derivative(fp), p), p)) == 1 else []


def _odd_primes():
    p = 1
    while True:
        p += 2
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p


def _squarefree_decomposition(f) -> list:
    """Yun's algorithm: [(a_i, i), ...] with f = lc * prod a_i^i, each a_i a
    primitive squarefree polynomial of positive degree, pairwise coprime.
    Every quotient is exact over Z (Gauss's lemma), so all stays int.  An
    f that is squarefree mod a prime not dividing lc(f) is squarefree, which
    settles the common case without a gcd over Q."""
    if _squarefree_mod(f, next(p for p in _odd_primes() if f[0] % p)):
        return [(f, 1)]
    df = _derivative(f)
    a = _gcd(f, df)
    b, c = poly_divmod(f, a)[0], poly_divmod(df, a)[0]
    out, i = [], 1
    while len(b) > 1:
        d = _sub(c, _derivative(b))
        a = _gcd(b, d)
        b, c = poly_divmod(b, a)[0], poly_divmod(d, a)[0]
        if len(a) > 1:
            out.append((a, i))
        i += 1
    return out


def _distinct_degree(f, p) -> list:
    """[(g, d), ...]: g is the product of the irreducible factors of degree d
    of f, monic and squarefree mod p.  h runs through x^(p^d) mod f."""
    out, h, d = [], [1, 0], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _ppow(h, p, f, p)
        g = _pgcd(f, _reduce(_sub(h, [1, 0]), p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _pdivmod(f, g, p)[0]
            h = _pdivmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g, d, p, rng) -> list:
    """Cantor-Zassenhaus: the irreducible factors of g mod p (p odd), all of
    degree d.  gcd(g, a^((p^d-1)/2) - 1) splits g for about half of the
    random a."""
    n = len(g) - 1
    if n == d:
        return [g]
    e = (p ** d - 1) // 2
    while True:
        a = _strip([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        s = _pgcd(g, _reduce(_sub(_ppow(a, e, g, p), [1]), p), p)
        if 1 < len(s) <= n:
            return (_equal_degree(s, d, p, rng)
                    + _equal_degree(_pdivmod(g, s, p)[0], d, p, rng))


def _hensel_step(m, f, g, h, s, t) -> tuple:
    """One quadratic Hensel step (von zur Gathen and Gerhard, alg. 15.10):
    from f = g h and s g + t h = 1 mod m, h monic, the same mod m^2."""
    mm = m * m
    e = _reduce(_sub(f, _mul(g, h)), mm)
    q, r = poly_divmod(_reduce(_mul(s, e), mm), h)
    g = _reduce(_add(g, _add(_mul(t, e), _mul(q, g))), mm)
    h = _reduce(_add(h, r), mm)
    b = _reduce(_sub(_add(_mul(s, g), _mul(t, h)), [1]), mm)
    c, d = poly_divmod(_reduce(_mul(s, b), mm), h)
    s = _reduce(_sub(s, d), mm)
    t = _reduce(_sub(t, _add(_mul(t, b), _mul(c, g))), mm)
    return g, h, s, t


def _hensel_lift(f, factors, p, modulus) -> list:
    """Monic F_i, F_i = factors[i] mod p, with f = lc(f) prod F_i mod
    modulus, a power of p: lift the split into two halves, then each half
    (a factor tree, alg. 15.17)."""
    if len(factors) == 1:
        inv = pow(f[0], -1, modulus)
        return [[c * inv % modulus for c in f]]
    k = len(factors) // 2
    g = [f[0] % p]
    for fi in factors[:k]:
        g = _pmul(g, fi, p)
    h = factors[k]
    for fi in factors[k + 1:]:
        h = _pmul(h, fi, p)
    s, t = _pgcdex(g, h, p)
    m = p
    while m < modulus:
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m *= m
    return (_hensel_lift(g, factors[:k], p, modulus)
            + _hensel_lift(h, factors[k:], p, modulus))


def _zassenhaus(f, rng) -> list:
    """Irreducible factors over Z of a primitive squarefree f of positive
    degree with positive leading term and f(0) != 0.

    Among the first three odd primes p that keep f squarefree mod p, the
    one with the fewest modular factors is used.  The degrees a factor over
    Z can have are the subset sums of the modular factor degrees for every
    p tried; when only 0 and deg f remain, f is irreducible.
    """
    n = len(f) - 1
    if n == 1:
        return [f]
    possible = (1 << (n + 1)) - 1      # bit k: a factor of degree k may exist
    best, tried = None, 0
    for p in _odd_primes():
        fp = _squarefree_mod(f, p) if f[0] % p else None
        if not fp:
            continue
        parts = _distinct_degree(fp, p)
        sums = 1
        for g, d in parts:
            for _ in range((len(g) - 1) // d):
                sums |= sums << d
        possible &= sums
        count = sum((len(g) - 1) // d for g, d in parts)
        if best is None or count < best[0]:
            best = (count, p, parts)
        tried += 1
        if possible == 1 | 1 << n:
            return [f]
        if tried == 3:
            break
    _, p, parts = best
    modular = [h for g, d in parts for h in _equal_degree(g, d, p, rng)]
    # a factor of f scaled to leading term lc(f) has coefficients below
    # 2^n |f|_2 lc(f) (Mignotte), so a modulus above twice that recovers it
    # from its symmetric residues
    bound = 2 * f[0] << n
    bound *= isqrt(sum(c * c for c in f)) + 1
    modulus = p
    while modulus <= bound:
        modulus *= p
    lifted = _hensel_lift(f, modular, p, modulus)
    return _recombine(f, lifted, modulus, possible)


def _recombine(f, lifted, modulus, possible) -> list:
    """Zassenhaus recombination: try products of s lifted factors, s = 1, 2,
    ..., keeping one whose primitive part divides f over Z."""
    half = modulus // 2
    found, rest, s = [], list(range(len(lifted))), 1
    while 2 * s <= len(rest):
        lc, tail = f[0], f[0] * f[-1]
        for subset in itertools.combinations(rest, s):
            if not possible >> sum(len(lifted[i]) - 1 for i in subset) & 1:
                continue
            # a factor scaled to leading term lc has a constant term that
            # divides lc f(0): a cheap test before the product
            const = lc
            for i in subset:
                const = const * lifted[i][-1] % modulus
            const = const - modulus if const > half else const
            if not const or tail % const:
                continue
            g = [lc]
            for i in subset:
                g = _reduce(_mul(g, lifted[i]), modulus)
            g = primitive(c - modulus if c > half else c for c in g)
            q, r = poly_divmod(f, g)
            if r:
                continue
            found.append(g)
            f = list(q)
            rest = [i for i in rest if i not in subset]
            break
        else:
            s += 1
    return found + [primitive(f)]


@lru_cache(maxsize=8192)
def factor(coeffs: tuple) -> tuple:
    """Irreducible factors over Q of a nonzero polynomial given as a tuple.

    Returns ((key, multiplicity), ...) with each key a primitive integer
    polynomial, in sympy's order: by degree, then multiplicity, then
    coefficients.  Constants are dropped.  Yun's squarefree decomposition,
    then Zassenhaus on each part: factors mod a small prime, Hensel lifting
    and recombination of the lifted factors.
    """
    p = list(primitive(coeffs))
    out = []
    if p and p[-1] == 0:
        k = len(p) - len(_strip(p[::-1]))
        del p[-k:]
        out.append(((1, 0), k))
    if len(p) > 1:
        rng = random.Random(0)
        for part, e in _squarefree_decomposition(p):
            out.extend((tuple(g), e) for g in _zassenhaus(part, rng))
    return tuple(sorted(out, key=lambda fe: (len(fe[0]), fe[1], fe[0])))


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


def _horner(p, x, s=1):
    """s^deg(p) * p(x/s), in integers for integer p, x and s; for s > 0 it
    has the sign of p(x/s)."""
    acc, sk = 0, 1
    for c in p:
        acc = acc * x + c * sk
        sk *= s
    return acc


def _sign_changes(seq, x) -> int:
    x = Fraction(x)
    signs = [v > 0 for v in (_horner(p, x.numerator, x.denominator) for p in seq) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@lru_cache(maxsize=1024)
def _sturm_sequence(h: tuple) -> tuple:
    """The Sturm sequence of h over Q: h, h', then the negated remainders.

    Each remainder, a positive multiple from ``_prem``, is divided by its
    (positive) content, which keeps every sign of the sequence.  Kept per
    h, whose integer coefficients are the whole key: the enclosures that
    ``algnum`` narrows around one value count the roots of one h many times.
    """
    seq = [primitive(h)]
    r = primitive(_derivative(h))
    while r:
        seq.append(r)
        rem = _prem(seq[-2], seq[-1])
        g = gcd(*rem)
        r = tuple(-c // g for c in rem)     # the Sturm step takes -rem
    return tuple(seq)


def _sturm_count(h, a, b) -> int:
    """Distinct real roots of h in the closed interval [a, b], by Sturm's
    theorem over Q: the sign changes of ``_sturm_sequence`` at a less those
    at b.  h need not be squarefree, but an end must not be a multiple root.
    """
    seq = _sturm_sequence(tuple(h))
    a = Fraction(a)
    return (_sign_changes(seq, a) - _sign_changes(seq, b)
            + (_horner(seq[0], a.numerator, a.denominator) == 0))


def root_seeds(p):
    """Durand-Kerner approximations of the roots of p in double precision,
    the starting points of ``double_roots`` and of ``algnum``'s certified
    roots; None when they are not finite."""
    n = len(p) - 1
    try:
        c = [x / p[0] for x in p[1:]]
    except OverflowError:
        return None
    z = [(0.4 + 0.9j) ** i for i in range(n)]
    for _ in range(50 + 4 * n):
        step = 0.0
        for i, w in enumerate(z):
            v = 1
            for ck in c:
                v = v * w + ck
            for j, q in enumerate(z):
                if j != i and q != w:
                    v /= w - q
            z[i] = w - v
            step = max(step, abs(v))
        if step <= 1e-12 * max(map(abs, z)):
            break
    return z if all(isfinite(x.real) and isfinite(x.imag) for x in z) else None


def _gauss_horner(p, x: int, y: int, s: int) -> tuple:
    """s^deg(p) * p((x + iy)/s) as an integer pair (re, im), for integer p."""
    re, im, sk = p[0], 0, 1
    for c in p[1:]:
        sk *= s
        re, im = re * x - im * y + c * sk, re * y + im * x
    return re, im


def _value_at(p, z: complex) -> complex:
    """p(z) for integer p at a complex double z, evaluated exactly and
    rounded once."""
    (xn, xd), (yn, yd) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    s = max(xd, yd)         # both are powers of two
    re, im = _gauss_horner(p, xn * (s // xd), yn * (s // yd), s)
    sn = s ** (len(p) - 1)
    return complex(re / sn, im / sn)


def _newton(p, dp, z: complex) -> complex:
    """z polished by Newton steps for the integer polynomial p with
    derivative dp, each residual p(z) exact (``_value_at``), until a step
    falls below the rounding of z."""
    for _ in range(8):
        slope = 0j
        for c in dp:
            slope = slope * z + c
        step = _value_at(p, z) / slope
        z -= step
        if abs(step) <= 2.0 ** -53 * abs(z):
            break
    return z


def double_roots(p) -> list:
    """The roots of a squarefree integer polynomial p of positive degree in
    double precision: each real root with imaginary part exactly 0.0, the
    others in exactly conjugate pairs.

    The number of real roots is decided exactly, by a Sturm count inside
    the Cauchy bound 1 + max |p_i / p_0|, and that many seeds
    (``root_seeds``) nearest the axis are taken as the real roots; of the
    others, the half with the larger imaginary parts as one of each pair.
    Each is polished by ``_newton``, so a simple root is found to about the
    rounding of its double.
    """
    n = len(p) - 1
    seeds = root_seeds(p)
    if seeds is None:
        raise ArithmeticError(f"no finite root approximations of {tuple(p)}")
    bound = 1 + Fraction(max(abs(c) for c in p[1:]), abs(p[0]))
    count = _sturm_count(p, -bound, bound)
    seeds.sort(key=lambda z: abs(z.imag))
    dp = _derivative(p)
    real = [_newton(p, dp, complex(z.real, 0.0)).real for z in seeds[:count]]
    upper = [_newton(p, dp, z) for z in sorted(seeds[count:], key=lambda z: z.imag)
             [(n - count) // 2:]]
    return [complex(x, 0.0) for x in real] + [w for z in upper for w in (z, z.conjugate())]


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
    g = _gcd(p, p[::-1])
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


def _schur_stable(q) -> bool:
    """True iff every root of the rational polynomial q has |z| < 1; exact.

    Schur-Cohn (A. Cohn, Math. Z. 14, 1922): the roots' moduli multiply to
    |const/lead|, so |const| < |lead| is necessary; given it, Rouche's
    theorem on |z| = 1, where |rev(q)| = |q|, shows that q is stable iff
    (lead q - const rev(q)) / z is, and that has degree one less.  Each step
    is made primitive, which keeps the coefficients from doubling in size.
    """
    q = primitive(q)
    while len(q) > 1:
        lead, const = q[0], q[-1]
        if abs(const) >= abs(lead):
            return False
        q = primitive([lead * a - const * b for a, b in zip(q[:-1], q[:0:-1])])
    return True


def roots_in_annulus(p, lo, hi) -> bool:
    """True iff every root z of the rational polynomial p has lo < |z| < hi,
    for rationals 0 <= lo and hi; exact.

    |z| < hi for every root iff p(hi z) is Schur stable, and |z| > lo iff
    the reversal of p(lo z), whose roots are lo / z, is (p(0) = 0 fails).
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo < 0:
        raise ValueError(f"inner radius {lo} is negative")
    p = primitive(p)
    if len(p) <= 1:
        return bool(p)       # a nonzero constant has no roots
    n = len(p) - 1
    if hi <= lo or p[-1] == 0:
        return False
    return (_schur_stable([c * hi ** (n - i) for i, c in enumerate(p)])
            and _schur_stable([c * lo ** i for i, c in enumerate(reversed(p))]))
