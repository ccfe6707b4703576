"""Exact real-algebraic scalars, certified roots and rigorous log-moduli.

The joint-spectrum analysis needs to decide, with proof, questions like
"is this eigenvalue modulus equal to 1", "are these two log-moduli equal",
or "is log|a| a rational multiple of log|b|".  Floating enclosures can
separate unequal values but never settle equality, so every scalar here
carries an exact handle:

- ``Root``: one root of an irreducible integer polynomial, held by a
  certified disk.  ``roots(key)`` lists them, real roots first in
  ascending order, then the non-real ones by (re, im); ``root_box`` is the
  one enclosure entry point.
- ``RealAlgebraic``: a real algebraic number as a real ``Root`` of its
  irreducible minimal polynomial.  Comparisons are decidable.
- ``LogValue``: (1/2)*log of a positive RealAlgebraic (the squared modulus
  of an eigenvalue).  Signs, equality and rational
  proportionality are decided exactly; float enclosures are rigorous
  (directed rounding throughout).

Roots are found with mpmath ``polyroots``, started from double-precision
Durand-Kerner approximations, and certified with inclusion disks (Rump, J. Comput. Appl. Math. 156, 2003): for any z, some root of a
degree-n polynomial p lies within n*|p(z)/p'(z)| of z, with p and p'
evaluated exactly at a dyadic z.  When the n disks of an irreducible p
(whose roots are simple) are pairwise disjoint, each holds exactly one
root.  Refinement is Newton's method at doubling precision.

Values under a polynomial map, pairwise products and powers come from the
``intpoly`` power-sum constructions; ``identify_root`` then pins a value
down among the roots of their irreducible factors.  No sympy is used here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import libmp

from . import intpoly
from .exact import (  # noqa: F401  (re-exported for existing importers)
    EnclosureTooWide,
    RInt,
    UndecidedSign,
    simplest_rational_between,
)

_EPS_SCHEDULE = [Fraction(1, 10**m) for m in (12, 24, 48, 96, 192, 384)]


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

    def intersects(self, o) -> bool:
        return self.re.intersects(o.re) and self.im.intersects(o.im)

    @property
    def width(self) -> Fraction:
        return max(self.re.width, self.im.width)

    @staticmethod
    def point(re, im=Fraction(0)) -> "CBox":
        return CBox(RInt.point(re), RInt.point(im))


_REAL = RInt.point(0)   # the imaginary part of a real value


def eval_poly_box(coeffs, box: CBox) -> CBox:
    """Evaluate a rational-coefficient polynomial (descending) on a box."""
    acc = CBox.point(Fraction(0))
    for c in coeffs:
        acc = acc * box + CBox.point(Fraction(c))
    return acc


# ---------------------------------------------------------------------------
# Certified roots
# ---------------------------------------------------------------------------


def _horner(p, x: int, y: int, s: int):
    """s^deg(p) * p((x + iy)/s) as an integer pair (re, im)."""
    re, im, sk = p[0], 0, 1
    for c in p[1:]:
        sk *= s
        re, im = re * x - im * y + c * sk, re * y + im * x
    return re, im


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
    pr, pi = _horner(p, x, y, s)
    qr, qi = _horner([c * (n - i) for i, c in enumerate(p[:-1])], x, y, s)
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
    """The exact value of an mpf."""
    sign, man, exp, _ = x._mpf_
    man = -man if sign else man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _seeds(key: tuple):
    """Durand-Kerner approximations of the roots in double precision, the
    starting points of ``polyroots`` (which polishes them in a few steps
    instead of the many from its generic start); None when they are not
    finite."""
    n = len(key) - 1
    try:
        c = [x / key[0] for x in key[1:]]
    except OverflowError:
        return None
    z = [(0.4 + 0.9j) ** i for i in range(n)]
    for _ in range(50 + 4 * n):
        step = 0.0
        for i, p in enumerate(z):
            v = 1
            for ck in c:
                v = v * p + ck
            for j, q in enumerate(z):
                if j != i and q != p:
                    v /= p - q
            z[i] = p - v
            step = max(step, abs(v))
        if step <= 1e-12 * max(map(abs, z)):
            break
    return z if all(cmath.isfinite(x) for x in z) else None


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
    init = _seeds(key)
    while True:
        with mpmath.workprec(prec):
            try:
                approx = mpmath.polyroots(key, maxsteps=50 + 4 * n, extraprec=prec,
                                          roots_init=init)
            except mpmath.NoConvergence:
                approx = ()
        init = approx or None     # the next, more precise try starts here
        real, upper = [], []
        for z in approx:
            re, im = _dyadic(z.real), abs(_dyadic(z.imag))
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
    """Root ``idx`` of ``roots(key)``, held by a certified disk (re, im, r).

    The isolating disk ``iso`` holds no other root of ``key``.  Refinement
    accepts only disks inside it, so every later ``disk`` encloses the same
    root.  A rational root (degree-1 key) is an exact point of radius 0.
    """

    __slots__ = ("key", "idx", "is_real", "iso", "disk", "_next", "_bits")

    def __init__(self, key: tuple, idx: int, disk: tuple, nxt, bits: int):
        self.key, self.idx = key, idx
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
        return (Root(key, 0, point, None, 0),)
    prec, found = _isolate(key, 64)
    return tuple(Root(key, i, disk, nxt, 2 * prec) for i, (disk, nxt) in enumerate(found))


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
        return CBox.point(re, im)
    k = math.ceil(4 / eps).bit_length()     # 2^-k <= eps/4
    return CBox(_outward(re, r, k), _REAL if root.is_real else _outward(im, r, k))


def _irreducible_factors(poly_key: tuple) -> list:
    return sorted(key for key, _ in intpoly.factor(poly_key))


def identify_root(poly_key: tuple, refiner, real: bool = False) -> Root:
    """The root, of an irreducible factor of ``poly_key``, that a value is.

    ``refiner(eps) -> CBox`` must return rigorous enclosures of the value
    of width <= 2*eps; the value must be a root of ``poly_key``.  With
    ``real`` only real roots are candidates.  The candidates are narrowed by
    joint refinement, which terminates because the value is exactly one
    root of exactly one irreducible factor.
    """
    candidates = [root for fkey in _irreducible_factors(poly_key)
                  for root in roots(fkey) if root.is_real or not real]
    for eps in _EPS_SCHEDULE:
        box = refiner(eps)
        candidates = [root for root in candidates if root_box(root, eps).intersects(box)]
        if len(candidates) == 1:
            return candidates[0]
        if not candidates:
            raise ValueError("value is not a root of the given polynomial")
    raise EnclosureTooWide("could not isolate the value among the roots")


# ---------------------------------------------------------------------------
# RealAlgebraic
# ---------------------------------------------------------------------------


def _image_refiner(image, what: str):
    """refiner(eps) for ``identify_root``: the first enclosure image(eps2)
    of width <= 2*eps as the operand enclosures tighten, as a real CBox;
    image returns None while its value is not yet enclosed."""

    def refiner(eps):
        for eps2 in _EPS_SCHEDULE:
            box = image(eps2)
            if box is not None and box.width <= 2 * eps:
                return CBox(box, _REAL)
        raise EnclosureTooWide(f"{what} refinement failed")

    return refiner


class RealAlgebraic:
    """A real algebraic number, canonically a real root of its irreducible
    minimal polynomial ``key``, with index ``idx`` in ``roots(key)``.

    Two instances are equal iff they are the same number; the comparison is
    structural when the canonical data agree and interval-based otherwise,
    which terminates because distinct canonical data mean distinct values.
    """

    __slots__ = ("root", "_box")

    def __init__(self, root: Root):
        if not root.is_real:
            raise ValueError("a RealAlgebraic needs a real root")
        self.root = root
        self._box = None

    @property
    def key(self) -> tuple:
        return self.root.key

    @property
    def idx(self) -> int:
        return self.root.idx

    @staticmethod
    def from_fraction(q) -> "RealAlgebraic":
        q = Fraction(q)
        return RealAlgebraic(roots((q.denominator, -q.numerator))[0])

    @property
    def is_rational(self) -> bool:
        return len(self.key) == 2

    def as_fraction(self) -> Fraction:
        assert self.is_rational
        return Fraction(-self.key[1], self.key[0])

    def interval(self, eps: Fraction) -> RInt:
        if self._box is None or self._box.width > 2 * eps:
            self._box = root_box(self.root, eps).re
        return self._box

    def cmp_fraction(self, q) -> int:
        q = Fraction(q)
        if self.is_rational:
            v = self.as_fraction()
            return (v > q) - (v < q)
        for eps in _EPS_SCHEDULE:
            box = self.interval(eps)
            if q < box.lo:
                return 1
            if q > box.hi:
                return -1
        raise EnclosureTooWide("comparison against rational did not separate")

    def cmp(self, other: "RealAlgebraic") -> int:
        if self.key == other.key and self.idx == other.idx:
            return 0
        for eps in _EPS_SCHEDULE:
            a, b = self.interval(eps), other.interval(eps)
            if a.lo > b.hi:
                return 1
            if b.lo > a.hi:
                return -1
        raise EnclosureTooWide("distinct algebraic values did not separate")

    def __eq__(self, other):
        return isinstance(other, RealAlgebraic) and self.cmp(other) == 0

    def __hash__(self):
        return hash((self.key, self.idx))

    def pow(self, k: int) -> "RealAlgebraic":
        assert k >= 1
        if k == 1:
            return self
        if self.is_rational:
            return RealAlgebraic.from_fraction(self.as_fraction() ** k)
        refiner = _image_refiner(lambda e: self.interval(e).pow_int(k), "power")
        return RealAlgebraic(identify_root(intpoly.power_poly(self.key, k), refiner,
                                           real=True))

    def mul(self, other: "RealAlgebraic") -> "RealAlgebraic":
        if self.is_rational and other.is_rational:
            return RealAlgebraic.from_fraction(self.as_fraction() * other.as_fraction())
        refiner = _image_refiner(lambda e: self.interval(e) * other.interval(e), "product")
        return RealAlgebraic(identify_root(intpoly.composed_product_pair(self.key, other.key),
                                           refiner, real=True))

    def inverse(self) -> "RealAlgebraic":
        if self.is_rational:
            return RealAlgebraic.from_fraction(1 / self.as_fraction())

        def inverse_box(e):
            box = self.interval(e)
            return RInt(1 / box.hi, 1 / box.lo) if box.lo > 0 or box.hi < 0 else None

        return RealAlgebraic(identify_root(intpoly.primitive(reversed(self.key)),
                                           _image_refiner(inverse_box, "inverse"), real=True))

    def __repr__(self):
        box = self.interval(Fraction(1, 10**12))
        return f"RealAlgebraic(~{float((box.lo + box.hi) / 2):.12g})"


# ---------------------------------------------------------------------------
# LogValue
# ---------------------------------------------------------------------------

_ONE_KEY = (1, -1)


def _log_half(box: RInt, prec: int):
    """Directed-rounded mpf ends (lo, hi) of log(box)/2 for box > 0."""
    rlo = libmp.from_rational(box.lo.numerator, box.lo.denominator, prec, libmp.round_floor)
    rhi = libmp.from_rational(box.hi.numerator, box.hi.denominator, prec, libmp.round_ceiling)
    return (libmp.mpf_shift(libmp.mpf_log(rlo, prec, libmp.round_floor), -1),
            libmp.mpf_shift(libmp.mpf_log(rhi, prec, libmp.round_ceiling), -1))


class LogValue:
    """(1/2) * log(modsq) with modsq a positive RealAlgebraic.

    The exact carrier for log|eigenvalue| entries of Lyapunov functionals:
    ``sign``/``equals``/``is_zero``/``verify_ratio`` are exact decisions,
    ``interval`` returns rigorous float enclosures of requested width and
    ``mid`` the double nearest the exact value.
    """

    __slots__ = ("modsq", "_cached", "_mid")

    def __init__(self, modsq: RealAlgebraic):
        self.modsq = modsq
        self._cached = None
        self._mid = None

    @staticmethod
    def zero() -> "LogValue":
        return LogValue(RealAlgebraic.from_fraction(1))

    def sign(self) -> int:
        return self.modsq.cmp_fraction(1)

    def is_zero(self) -> bool:
        return self.modsq.key == _ONE_KEY

    def equals(self, other: "LogValue") -> bool:
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        return self.modsq.cmp(other.modsq) == 0

    def interval(self, tol: float = 1e-12):
        """Rigorous (lo, hi) floats of width <= tol, refined on demand.

        When tol is below a few ulps of the value no tighter float pair
        exists; the tightest representable outward-rounded enclosure is
        returned once the internal high-precision enclosure beats tol.
        """
        if self._cached is not None and self._cached[1] - self._cached[0] <= tol:
            return self._cached
        prec = max(64, int(-math.log2(tol)) + 50)
        for eps in _EPS_SCHEDULE:
            box = self.modsq.interval(eps)
            if box.lo <= 0:
                continue
            llo, lhi = _log_half(box, prec)
            inner = libmp.to_float(libmp.mpf_sub(lhi, llo, prec, libmp.round_ceiling),
                                   rnd=libmp.round_ceiling)
            # the float pair may be a few ulps wider than the mpf enclosure,
            # since no tighter float interval exists
            lo = math.nextafter(libmp.to_float(llo, rnd=libmp.round_floor), -math.inf)
            hi = math.nextafter(libmp.to_float(lhi, rnd=libmp.round_ceiling), math.inf)
            if hi - lo <= tol or inner <= tol / 4:
                if self._cached is None or hi - lo < self._cached[1] - self._cached[0]:
                    self._cached = (lo, hi)
                return self._cached
        raise EnclosureTooWide(f"log enclosure did not reach width {tol}")

    def mid(self) -> float:
        """The double nearest the exact value.

        The enclosure is refined until the nearest roundings of both its ends
        agree.  That terminates: a nonzero log of an algebraic number is
        transcendental (Lindemann), so it is never a tie between two doubles.
        """
        if self._mid is None:
            self._mid = 0.0 if self.is_zero() else self._nearest()
        return self._mid

    def _nearest(self) -> float:
        for eps in _EPS_SCHEDULE:
            box = self.modsq.interval(eps)
            if box.lo <= 0:
                continue
            lo, hi = (libmp.to_float(x, rnd=libmp.round_nearest)
                      for x in _log_half(box, eps.denominator.bit_length() + 32))
            if lo == hi:
                return lo
        raise EnclosureTooWide("no enclosure fixed the nearest double")

    def mpf(self, dps: int):
        """High-precision value for relation-candidate searches (not a proof)."""
        box = self.modsq.interval(Fraction(1, 10 ** (dps + 10)))
        with mpmath.workdps(dps + 10):
            return mpmath.log(mpmath.mpf(box.lo.numerator) / box.lo.denominator) / 2

    def cmp(self, other: "LogValue") -> int:
        if self.equals(other):
            return 0
        for tol in (1e-9, 1e-15, 1e-30, 1e-60):
            a, b = self.interval(tol), other.interval(tol)
            if a[0] > b[1]:
                return 1
            if b[0] > a[1]:
                return -1
        raise EnclosureTooWide("LogValue comparison did not separate")

    def verify_ratio(self, other: "LogValue", c: Fraction) -> bool:
        """Exactly decide whether self == c * other for a nonzero rational c."""
        if other.is_zero():
            return self.is_zero()
        if self.is_zero():
            return False
        c = Fraction(c)
        o_eff = other.modsq if c > 0 else other.modsq.inverse()
        p, q = abs(c.numerator), c.denominator
        if p + q > 200:
            return False
        return self.modsq.pow(q).cmp(o_eff.pow(p)) == 0

    def __repr__(self):
        return f"LogValue(~{self.mid():.12g})"


def combine_logvalues(lvs, a) -> "LogValue":
    """Exact LogValue of the integer combination sum_g a_g * lvs[g].

    The squared modulus of the combined value is the product of the
    individual squared moduli raised to the a_g, assembled with exact
    power/inverse/product constructions.
    """
    acc = None
    for lv, ag in zip(lvs, a):
        ag = int(ag)
        if ag == 0 or lv.is_zero():
            continue
        m = lv.modsq
        part = m.pow(ag) if ag > 0 else m.inverse().pow(-ag)
        acc = part if acc is None else acc.mul(part)
    return LogValue.zero() if acc is None else LogValue(acc)
