"""Exact real-algebraic scalars, certified roots and rigorous log-moduli.

The joint-spectrum analysis needs to decide, with proof, questions like
"is this eigenvalue modulus equal to 1", "are these two log-moduli equal",
or "is log|a| a rational multiple of log|b|".  Enclosures can
separate unequal values but never settle equality, so every scalar here
carries an exact handle:

- ``Root``: one root of an irreducible integer polynomial, held by a
  certified disk.  ``roots(key)`` lists them, real roots first in
  ascending order, then the non-real ones by (re, im); ``root_box`` is the
  one enclosure entry point.
- ``LogValue``: log|q(tau)| for a root tau of an irreducible f and q in
  Q[x]/(f), the log-modulus of an eigenvalue on one block.  Integer
  combinations are products of powers mod f.  Signs, equality and rational
  proportionality are decided exactly on v = |q(tau)|^2, from one
  squarefree integer polynomial P with the root v and one enclosure of v
  that holds no other root of P (a Sturm count): v = 1 iff P(1) = 0 and 1
  lies in it, and two values are equal iff the gcd of their P has a root
  in both enclosures.  Enclosures are exact dyadic ``RInt``s from directed
  rounding of the box of tau, refined along the one ``_EPS_SCHEDULE``.

Roots are found with mpmath ``polyroots``, started from double-precision
Durand-Kerner approximations (``intpoly.root_seeds``), and certified with
inclusion disks (Rump, J. Comput. Appl. Math. 156, 2003): for any z, some
root of a degree-n polynomial p lies within n*|p(z)/p'(z)| of z, with p and p'
evaluated exactly at a dyadic z.  When the n disks of an irreducible p
(whose roots are simple) are pairwise disjoint, each holds exactly one
root.  Refinement is Newton's method at doubling precision.

Values under a polynomial map, their squares and pairwise products come
from the ``intpoly`` power-sum constructions; nothing here factors them or
finds their roots.  No sympy is used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import libmp

from . import intpoly
from .exact import (  # noqa: F401  (re-exported for existing importers)
    _EPS_SCHEDULE,
    EnclosureTooWide,
    RInt,
    UndecidedSign,
    simplest_rational_between,
)


# ---------------------------------------------------------------------------
# Interval primitives over Fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CBox:
    """Complex rectangle with RInt real and imaginary parts."""

    re: RInt
    im: RInt

    def __add__(self, o):
        return CBox(self.re + o.re, self.im + o.im)

    def __mul__(self, o):
        return CBox(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def modsq(self) -> RInt:
        return self.re.square() + self.im.square()


_REAL = RInt.point(0)   # the imaginary part of a real value


def eval_poly_box(coeffs, box: CBox) -> CBox:
    """Evaluate a rational-coefficient polynomial (descending) on a box.

    Horner's rule runs in integers: for d and m the common denominators of
    the box's ends and of the coefficients, m d^deg p(z) is an integer
    polynomial in the integer box d z, and interval arithmetic commutes with
    the positive scaling.
    """
    ends = (box.re.lo, box.re.hi, box.im.lo, box.im.hi)
    d = math.lcm(*(x.denominator for x in ends))
    m = math.lcm(*(Fraction(c).denominator for c in coeffs))
    re_lo, re_hi, im_lo, im_hi = (x.numerator * (d // x.denominator) for x in ends)
    z, zero = CBox(RInt(re_lo, re_hi), RInt(im_lo, im_hi)), RInt(0, 0)
    acc, dk = CBox(zero, zero), 1
    for c in coeffs:
        k = int(c * m) * dk
        acc, dk = acc * z + CBox(RInt(k, k), zero), dk * d
    s = m * dk // d
    return CBox(*(RInt(Fraction(x.lo, s), Fraction(x.hi, s)) for x in (acc.re, acc.im)))


# ---------------------------------------------------------------------------
# Certified roots
# ---------------------------------------------------------------------------


def _sqrt_up(num: int, den: int) -> Fraction:
    """A dyadic upper bound of sqrt(num/den), with about 32 significant bits
    below 2^32; exactly 0 for num = 0."""
    if not num:
        return Fraction(0)
    m = max(0, 32 - (num.bit_length() - den.bit_length()) // 2)
    return Fraction(math.isqrt((num << 2 * m) // den) + 1, 1 << m)


def _round(num: int, den: int, bits: int) -> Fraction:
    """num/den (den > 0) rounded to a multiple of 2^-bits."""
    return Fraction(((num << bits) + den // 2) // den, 1 << bits)


def _newton(p, re: Fraction, im: Fraction, bits: int):
    """((re, im, r), next) at z = re + i*im, or None where p'(z) = 0.

    r bounds deg(p)*|p(z)/p'(z)| from above, so some root of p lies within
    r of z; next is the Newton iterate z - p(z)/p'(z) rounded to multiples
    of 2^-bits.  p and p' are evaluated exactly over the Gaussian integers.
    """
    n = len(p) - 1
    s = math.lcm(re.denominator, im.denominator)
    x, y = re.numerator * (s // re.denominator), im.numerator * (s // im.denominator)
    pr, pi = intpoly._gauss_horner(p, x, y, s)
    qr, qi = intpoly._gauss_horner([c * (n - i) for i, c in enumerate(p[:-1])], x, y, s)
    q2 = qr * qr + qi * qi
    if not q2:
        return None
    r = _sqrt_up(n * n * (pr * pr + pi * pi), q2 * s * s)
    # p(z)/p'(z) = P/(s Q) with P, Q the scaled values above, so
    # z - p/p' = ((x + iy)|Q|^2 - P conj(Q)) / (s |Q|^2)
    den = s * q2
    nxt = (_round(x * q2 - pr * qr - pi * qi, den, bits),
           _round(y * q2 - pi * qr + pr * qi, den, bits))
    return (re, im, r), nxt


def _disjoint(disks) -> bool:
    for i, (a, b, r) in enumerate(disks):
        for c, d, t in disks[:i]:
            if (a - c) ** 2 + (b - d) ** 2 <= (r + t) ** 2:
                return False
    return True


def _inside(disk, outer) -> bool:
    (a, b, r), (c, d, t) = disk, outer
    return r <= t and (a - c) ** 2 + (b - d) ** 2 <= (t - r) ** 2


def _dyadic(x) -> Fraction:
    """The exact value of a finite raw mpf tuple."""
    sign, man, exp, _ = x
    man = -man if sign else man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _isolate(key: tuple, prec: int) -> tuple:
    """(prec', [(disk, next)]) for every root of the irreducible ``key`` of
    degree >= 2, from ``polyroots`` at prec' >= ``prec`` bits: real roots
    ascending, then non-real ones by (re, im); each ``next`` is rounded to
    multiples of 2^-(2 prec').

    An approximation whose disk meets the real axis is moved onto it; its
    disk then holds a real root, because the conjugate of its one root is in
    the same disk.  The non-real disks are those of the upper half-plane and
    their mirror images.  Precision doubles until the deg(key) disks are
    pairwise disjoint.
    """
    n = len(key) - 1
    init = intpoly.root_seeds(key)
    while True:
        with mpmath.workprec(prec):
            try:
                approx = mpmath.polyroots(key, maxsteps=50 + 4 * n, extraprec=prec,
                                          roots_init=init)
            except libmp.NoConvergence:
                approx = ()
        init = approx or None     # the next, more precise try starts here
        real, upper = [], []
        for z in approx:
            re, im = _dyadic(z.real._mpf_), abs(_dyadic(z.imag._mpf_))
            got = _newton(key, re, im, 2 * prec)
            if got is not None and im > got[0][2]:
                if z.imag > 0:
                    upper.append(got)
            else:
                real.append(_newton(key, re, Fraction(0), 2 * prec))
        if None not in real and len(real) + 2 * len(upper) == n:
            lower = [((re, -im, r), (nre, -nim)) for (re, im, r), (nre, nim) in upper]
            found = sorted(real) + sorted(upper + lower)
            if _disjoint([disk for disk, _ in found]):
                return prec, found
        prec *= 2


class Root:
    """A root of ``key``, held by a certified disk (re, im, r).

    The isolating disk ``iso`` holds no other root of ``key``.  Refinement
    accepts only disks inside it, so every later ``disk`` encloses the same
    root.  A rational root (degree-1 key) is an exact point of radius 0.
    """

    __slots__ = ("key", "is_real", "iso", "disk", "_next", "_bits")

    def __init__(self, key: tuple, disk: tuple, nxt, bits: int):
        self.key = key
        self.is_real = disk[1] == 0
        self.iso = self.disk = disk
        self._next, self._bits = nxt, bits

    def refine(self) -> None:
        """One Newton step from the last iterate, rounded at twice the bits."""
        self._bits *= 2
        got = _newton(self.key, *self._next, self._bits)
        prec = self._bits
        while got is None or not _inside(got[0], self.iso):
            # Newton left the isolating disk: isolate again, more precisely
            prec, found = _isolate(self.key, 2 * prec)
            got = next((d for d in found if _inside(d[0], self.iso)), None)
            self._bits = 2 * prec
        if got[0][2] < self.disk[2]:
            self.disk = got[0]
        self._next = got[1]


@lru_cache(maxsize=8192)
def roots(key: tuple) -> tuple:
    """The roots of an irreducible (or any squarefree) primitive integer
    polynomial as ``Root``s: real roots ascending, then non-real roots by
    (re, im)."""
    if len(key) == 2:
        point = (Fraction(-key[1], key[0]), Fraction(0), Fraction(0))
        return (Root(key, point, None, 0),)
    prec, found = _isolate(key, 64)
    return tuple(Root(key, disk, nxt, 2 * prec) for disk, nxt in found)


def _outward(c: Fraction, r: Fraction, k: int) -> RInt:
    """[c - r, c + r] rounded outward to multiples of 2^-k."""
    return RInt(Fraction(math.floor((c - r) * (1 << k)), 1 << k),
                Fraction(math.ceil((c + r) * (1 << k)), 1 << k))


def root_box(root: Root, eps: Fraction) -> CBox:
    """Rigorous box of half-width <= eps around a root.

    A rational root gives an exact point; a real root a box on the axis.
    """
    while root.disk[2] > eps / 2:
        root.refine()
    re, im, r = root.disk
    if not r:
        return CBox(RInt.point(re), RInt.point(im))
    k = math.ceil(4 / eps).bit_length()     # 2^-k <= eps/4
    return CBox(_outward(re, r, k), _REAL if root.is_real else _outward(im, r, k))


# ---------------------------------------------------------------------------
# LogValue
# ---------------------------------------------------------------------------


def _log_half(box: RInt, prec: int):
    """Directed-rounded mpf ends (lo, hi) of log(box)/2 for box > 0."""
    rlo = libmp.from_rational(box.lo.numerator, box.lo.denominator, prec, libmp.round_floor)
    rhi = libmp.from_rational(box.hi.numerator, box.hi.denominator, prec, libmp.round_ceiling)
    return (libmp.mpf_shift(libmp.mpf_log(rlo, prec, libmp.round_floor), -1),
            libmp.mpf_shift(libmp.mpf_log(rhi, prec, libmp.round_ceiling), -1))


@lru_cache(maxsize=1024)
def _modsq_poly(f: tuple, q: tuple, real: bool) -> tuple:
    """The squarefree integer polynomial P of ``LogValue._isolated`` for the
    roots tau of f that are real (``real``) or not: one P serves every such
    root, and its integer-tuple key names it whole."""
    values = intpoly.values_poly(f, q)
    return intpoly.squarefree_part(intpoly.power_poly(values, 2) if real
                                   else intpoly.pair_products(values))


class LogValue:
    """log|q(tau)| for tau = ``root``, a root of the irreducible integer
    polynomial ``f``, and q a unit of Q[x]/(f) (rational coefficients,
    descending).

    The exact carrier for log|eigenvalue| entries of Lyapunov functionals.
    On a block, the eigenvalue at tau of the action element sigma(n) is
    q_n(tau) with q_n = prod_g q_g^(n_g) mod f, so integer combinations
    (``combine``, ``scaled``) are products in Q[x]/(f).
    ``sign``/``equals``/``is_zero``/``verify_ratio`` are exact decisions on
    v = |q(tau)|^2 (``_isolated``), ``interval`` returns rigorous dyadic
    enclosures of requested width and ``mid`` the double nearest the exact
    value.
    """

    __slots__ = ("f", "root", "q", "_iso", "_sq", "_delta", "_box", "_mid")

    def __init__(self, f, root: Root, q):
        self.f, self.root, self.q = tuple(f), root, tuple(q)
        self._iso = self._sq = self._box = self._mid = None

    def _modsq_box(self, width: Fraction) -> RInt:
        """An enclosure of v = |q(tau)|^2 of width <= ``width``, kept until a
        narrower one is asked for: |q|^2 on the box of tau at the widths
        delta of ``_EPS_SCHEDULE``, and past it, each the square of the
        last, from where the kept one stopped."""
        while self._sq is None or self._sq.width > width:
            self._delta = (_EPS_SCHEDULE[0] if self._sq is None
                           else self._delta ** 2)
            self._sq = eval_poly_box(self.q, root_box(self.root, self._delta)).modsq()
        return self._sq

    def _isolated(self):
        """(P, I): P a squarefree integer polynomial with the root v, I the
        first enclosure of v on the schedule that holds no other root of P,
        its ends included.

        The values q(tau_j) over the roots of f are the roots of
        values_poly(f, q).  For a real tau, v = q(tau)^2 is a root of their
        squares; otherwise v = q(tau) q(conj tau), a root of their products
        over pairs.
        """
        if self._iso is None:
            p = _modsq_poly(self.f, self.q, self.root.is_real)
            eps = _EPS_SCHEDULE[0]
            while intpoly._sturm_count(p, (box := self._modsq_box(eps)).lo, box.hi) != 1:
                eps *= eps      # the schedule, and past it: v is a simple root of P
            self._iso = p, box
        return self._iso

    @staticmethod
    def combine(lvs, a) -> "LogValue":
        """sum_g a_g * lvs[g] for integers a_g and LogValues at one root:
        log|q(tau)| with q = prod_g q_g^(a_g) mod f."""
        f, root = lvs[0].f, lvs[0].root
        return LogValue(f, root, intpoly.power_product([lv.q for lv in lvs], a, f))

    def scaled(self, n: int) -> "LogValue":
        """n * self: log|q^n(tau)|."""
        return self if n == 1 else LogValue.combine((self,), (n,))

    def sign(self) -> int:
        if self.is_zero():
            return 0
        for eps in _EPS_SCHEDULE:
            box = self._modsq_box(eps)
            if box.lo > 1:
                return 1
            if box.hi < 1:
                return -1
        raise EnclosureTooWide("|q(tau)|^2 did not separate from 1")

    def is_zero(self) -> bool:
        p, box = self._isolated()
        return box.lo <= 1 <= box.hi and intpoly._horner(p, 1) == 0

    def equals(self, other: "LogValue") -> bool:
        """Each P has one root in its own I, its value, so the values are
        equal iff the gcd of the two P has a root in both I; it divides each
        P, so it has at most one there."""
        (p, a), (r, b) = self._isolated(), other._isolated()
        return a.intersects(b) and intpoly._sturm_count(
            intpoly._gcd(p, r), max(a.lo, b.lo), min(a.hi, b.hi)) > 0

    def interval(self, eps: Fraction) -> RInt:
        """Rigorous enclosure of width <= eps with dyadic ends, refined on
        demand.

        log(x)/2 varies by at most w/(2 lo) over [lo, lo + w], so modsq is
        enclosed to a width of at most eps*lo/2 (lo from a coarser
        enclosure, eps capped at 1), and the log of its ends is rounded
        outward.
        """
        if self._box is None or self._box.width > eps:
            sq = next(box for e in _EPS_SCHEDULE if (box := self._modsq_box(e)).lo > 0)
            e = min(eps, 1)
            sq = self._modsq_box(e * sq.lo / 2)
            prec = e.denominator.bit_length() - e.numerator.bit_length() + 24
            while True:
                box = RInt(*(_dyadic(x) for x in _log_half(sq, prec)))
                if box.width <= eps:
                    break
                prec *= 2
            self._box = box
        return self._box

    def mid(self) -> float:
        """The double nearest the exact value: the common rounding of both
        ends of the first enclosure on the schedule whose ends round alike.

        That terminates: a nonzero log of an algebraic number is
        transcendental (Lindemann), so it is never a tie between two doubles.
        """
        if self._mid is None:
            for eps in _EPS_SCHEDULE:
                box = self.interval(eps)
                if float(box.lo) == float(box.hi):
                    self._mid = float(box.lo) or 0.0   # not the -0.0 of a zero in [-w, w]
                    break
            else:
                raise EnclosureTooWide("no enclosure fixed the nearest double")
        return self._mid

    def cmp(self, other: "LogValue") -> int:
        if self.equals(other):
            return 0
        for eps in _EPS_SCHEDULE:
            a, b = self.interval(eps), other.interval(eps)
            if a.lo > b.hi:
                return 1
            if b.lo > a.hi:
                return -1
        raise EnclosureTooWide("LogValue comparison did not separate")

    def verify_ratio(self, other: "LogValue", c: Fraction) -> bool:
        """Exactly decide whether self == c * other for a nonzero rational
        c = p/q, as q * self == p * other; False when |p| + q > 200."""
        c = Fraction(c)
        p, q = c.numerator, c.denominator
        if abs(p) + q > 200:
            return False
        return self.scaled(q).equals(other.scaled(p))

    def __repr__(self):
        return f"LogValue(~{self.mid():.12g})"

