"""Exact real-algebraic scalars and rigorous log-modulus values.

The joint-spectrum analysis needs to decide, with proof, questions like
"is this eigenvalue modulus equal to 1", "are these two log-moduli equal",
or "is log|a| a rational multiple of log|b|".  Floating enclosures can
separate unequal values but never settle equality, so every scalar here
carries an exact handle:

- ``RealAlgebraic``: a real algebraic number as (irreducible integer
  minimal polynomial, root index), identified from any vanishing integer
  polynomial by interval refinement.  Comparisons are decidable.
- ``LogValue``: (1/2)*log of a positive RealAlgebraic (the squared modulus
  of an eigenvalue), optionally negated.  Signs, equality and rational
  proportionality are decided exactly; float enclosures are rigorous
  (directed rounding throughout).

Polynomial constructions (values under a polynomial map, pairwise products,
powers) are done with resultants and one factorization; this is orders of
magnitude faster than ``sympy.minimal_polynomial`` on conjugate products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import libmp
import sympy
from sympy import Poly, Symbol

_x = Symbol("_anosovkit_x")
_y = Symbol("_anosovkit_y")
_z = Symbol("_anosovkit_z")

_EPS_SCHEDULE = [Fraction(1, 10**m) for m in (12, 24, 48, 96, 192, 384)]


class EnclosureTooWide(Exception):
    """Raised when interval refinement exhausts its precision budget."""


class UndecidedSign(Exception):
    """A required sign could not be certified within the precision budget."""


# ---------------------------------------------------------------------------
# Interval primitives over Fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RInt:
    """Closed real interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __add__(self, o):
        return RInt(self.lo + o.lo, self.hi + o.hi)

    def __sub__(self, o):
        return RInt(self.lo - o.hi, self.hi - o.lo)

    def __mul__(self, o):
        c = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return RInt(min(c), max(c))

    def square(self):
        if self.lo >= 0:
            return RInt(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return RInt(self.hi * self.hi, self.lo * self.lo)
        return RInt(Fraction(0), max(self.lo * self.lo, self.hi * self.hi))

    def contains(self, q: Fraction) -> bool:
        return self.lo <= q <= self.hi

    def intersects(self, o) -> bool:
        return self.lo <= o.hi and o.lo <= self.hi

    def pow_int(self, k: int):
        acc = RInt.point(1)
        for _ in range(k):
            acc = acc * self
        return acc

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @staticmethod
    def point(q) -> "RInt":
        q = Fraction(q)
        return RInt(q, q)


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

    @staticmethod
    def point(re, im=Fraction(0)) -> "CBox":
        return CBox(RInt.point(re), RInt.point(im))


def eval_poly_box(coeffs, box: CBox) -> CBox:
    """Evaluate a rational-coefficient polynomial (descending) on a box."""
    acc = CBox.point(Fraction(0))
    for c in coeffs:
        acc = acc * box + CBox.point(Fraction(c))
    return acc


def root_box(croot, eps: Fraction) -> CBox:
    """Rigorous rational box of half-width eps around a sympy CRootOf.

    Rational roots (which sympy auto-resolves out of CRootOf form) give
    exact point boxes.
    """
    if croot.is_Rational:
        return CBox.point(Fraction(int(croot.p), int(croot.q)))
    deps = sympy.Rational(eps.numerator, eps.denominator)
    if croot.is_real:
        r = croot.eval_rational(dx=deps)
        re = Fraction(int(r.p), int(r.q))
        return CBox(RInt(re - eps, re + eps), RInt.point(0))
    r = croot.eval_rational(dx=deps, dy=deps)
    re_s, im_s = r.as_real_imag()
    re = Fraction(int(re_s.p), int(re_s.q))
    im = Fraction(int(im_s.p), int(im_s.q))
    return CBox(RInt(re - eps, re + eps), RInt(im - eps, im + eps))


# ---------------------------------------------------------------------------
# Resultant constructions
# ---------------------------------------------------------------------------


def _to_int_poly(expr, var) -> Poly:
    """Normalize to a primitive integer polynomial with positive leading term."""
    p = Poly(expr, var, domain="QQ")
    lcm = 1
    for c in p.all_coeffs():
        lcm = sympy.ilcm(lcm, sympy.Rational(c).q)
    p = Poly(p.mul_ground(lcm), var, domain="ZZ")
    cont = p.content()
    if cont not in (0, 1):
        p = p.quo_ground(cont)
    if p.LC() < 0:
        p = p.mul_ground(-1)
    return p


def values_poly(f: Poly, q_coeffs) -> Poly:
    """Integer polynomial whose roots include q(tau) for every root tau of f.

    ``q_coeffs``: rational coefficients of q, descending order.
    """
    qx = sum(sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) * _x ** i
             for i, c in enumerate(reversed(list(q_coeffs))))
    res = sympy.resultant(f.as_expr().subs(f.gen, _x), _y - qx, _x)
    return _to_int_poly(res, _y)


def _squarefree_strip_zero(p: Poly) -> Poly:
    var = p.gen
    coeffs = p.all_coeffs()
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    p = Poly(coeffs, var)
    g = Poly(sympy.gcd(p.as_expr(), sympy.diff(p.as_expr(), var)), var)
    if g.degree() >= 1:
        p = p.quo(g)
    return _to_int_poly(p.as_expr(), var)


def composed_product(a: Poly) -> Poly:
    """Integer polynomial whose roots are all pairwise products of roots of a.

    Zero roots are stripped and the squarefree part is used first.
    """
    a = _squarefree_strip_zero(a)
    d = a.degree()
    coeffs = a.all_coeffs()
    hom = sum(c * _z ** (d - i) * _y ** i for i, c in enumerate(reversed(coeffs)))
    res = sympy.resultant(a.as_expr().subs(a.gen, _y), hom, _y)
    return _to_int_poly(res, _z)


def power_poly(m: Poly, k: int) -> Poly:
    """Integer polynomial whose roots are alpha^k for roots alpha of m."""
    assert k >= 1
    res = sympy.resultant(m.as_expr().subs(m.gen, _x), _z - _x ** k, _x)
    return _to_int_poly(res, _z)


def composed_product_pair(a: Poly, b: Poly) -> Poly:
    """Integer polynomial whose roots are products alpha*beta of roots of a, b."""
    a = _squarefree_strip_zero(a)
    b = _squarefree_strip_zero(b)
    d = b.degree()
    coeffs = b.all_coeffs()
    hom = sum(c * _z ** (d - i) * _y ** i for i, c in enumerate(reversed(coeffs)))
    res = sympy.resultant(a.as_expr().subs(a.gen, _y), hom, _y)
    return _to_int_poly(res, _z)


# ---------------------------------------------------------------------------
# RealAlgebraic
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8192)
def _real_roots(poly_key: tuple) -> tuple:
    from sympy.polys.rootoftools import ComplexRootOf

    # radicals=False keeps CRootOf form even for quadratics
    return tuple(ComplexRootOf.real_roots(Poly(list(poly_key), _z), radicals=False))


@lru_cache(maxsize=8192)
def _irreducible_factors(poly_key: tuple) -> tuple:
    _, factors = sympy.factor_list(Poly(list(poly_key), _z).as_expr())
    keys = []
    for fac, _mult in factors:
        fp = _to_int_poly(fac, _z)
        if fp.degree() >= 1:
            keys.append(tuple(int(c) for c in fp.all_coeffs()))
    return tuple(sorted(keys))


class RealAlgebraic:
    """A real algebraic number, canonically (irreducible minpoly, root index).

    Two instances are equal iff they are the same number; the comparison is
    structural when the canonical data agree and interval-based otherwise,
    which terminates because distinct canonical data mean distinct values.
    """

    __slots__ = ("key", "idx", "_root", "_box")

    def __init__(self, key: tuple, idx: int):
        self.key = key
        self.idx = idx
        self._root = _real_roots(key)[idx]
        self._box = None

    @staticmethod
    def from_fraction(q) -> "RealAlgebraic":
        q = Fraction(q)
        return RealAlgebraic((q.denominator, -q.numerator), 0)

    @staticmethod
    def from_vanishing(poly: Poly, refiner) -> "RealAlgebraic":
        """Identify a real value as a root of ``poly``.

        ``refiner(eps) -> RInt`` must return rigorous enclosures of the
        value.  The irreducible factor and root index are pinned down by
        joint refinement; terminates because the value is a root of exactly
        one irreducible factor.
        """
        poly_key = tuple(int(c) for c in poly.all_coeffs())
        candidates = []
        for fkey in _irreducible_factors(poly_key):
            for i in range(len(_real_roots(fkey))):
                candidates.append((fkey, i))
        if not candidates:
            raise ValueError("polynomial has no real roots to identify against")
        for eps in _EPS_SCHEDULE:
            box = refiner(eps)
            live = [(fkey, i) for fkey, i in candidates
                    if root_box(_real_roots(fkey)[i], eps).re.intersects(box)]
            candidates = live
            if len(candidates) == 1:
                return RealAlgebraic(*candidates[0])
            if not candidates:
                raise ValueError("value is not a root of the given polynomial")
        raise EnclosureTooWide("could not isolate algebraic value among roots")

    @property
    def is_rational(self) -> bool:
        return len(self.key) == 2

    def as_fraction(self) -> Fraction:
        assert self.is_rational
        return Fraction(-self.key[1], self.key[0])

    def interval(self, eps: Fraction) -> RInt:
        if self._box is None or self._box.width > 2 * eps:
            self._box = root_box(self._root, eps).re
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
        pk = power_poly(Poly(list(self.key), _z), k)

        def refiner(eps, _self=self, _k=k):
            for eps2 in _EPS_SCHEDULE:
                acc = _self.interval(eps2).pow_int(_k)
                if acc.width <= 2 * eps:
                    return acc
            raise EnclosureTooWide("power refinement failed")

        return RealAlgebraic.from_vanishing(pk, refiner)

    def mul(self, other: "RealAlgebraic") -> "RealAlgebraic":
        if self.is_rational and other.is_rational:
            return RealAlgebraic.from_fraction(self.as_fraction() * other.as_fraction())
        prod = composed_product_pair(Poly(list(self.key), _z), Poly(list(other.key), _z))

        def refiner(eps, _a=self, _b=other):
            for eps2 in _EPS_SCHEDULE:
                box = _a.interval(eps2) * _b.interval(eps2)
                if box.width <= 2 * eps:
                    return box
            raise EnclosureTooWide("product refinement failed")

        return RealAlgebraic.from_vanishing(prod, refiner)

    def inverse(self) -> "RealAlgebraic":
        if self.is_rational:
            return RealAlgebraic.from_fraction(1 / self.as_fraction())
        rev = list(reversed(self.key))
        p = _to_int_poly(sum(c * _z ** i for i, c in enumerate(reversed(rev))), _z)

        def refiner(eps, _self=self):
            for eps2 in _EPS_SCHEDULE:
                box = _self.interval(eps2)
                if box.lo > 0 or box.hi < 0:
                    lo, hi = sorted((1 / box.lo, 1 / box.hi))
                    if hi - lo <= 2 * eps:
                        return RInt(lo, hi)
            raise EnclosureTooWide("inverse refinement failed")

        return RealAlgebraic.from_vanishing(p, refiner)

    def __repr__(self):
        box = self.interval(Fraction(1, 10**12))
        return f"RealAlgebraic(~{float((box.lo + box.hi) / 2):.12g})"


# ---------------------------------------------------------------------------
# LogValue
# ---------------------------------------------------------------------------

_ONE_KEY = (1, -1)


def _log_half_interval(box: RInt, prec: int):
    """Directed-rounded floats enclosing log(box)/2 for box > 0.

    Returns (lo, hi, inner_width) where inner_width is the width of the
    high-precision enclosure before float conversion; the float pair may be
    a few ulps wider since no tighter float interval exists.
    """
    rlo = libmp.from_rational(box.lo.numerator, box.lo.denominator, prec, libmp.round_floor)
    rhi = libmp.from_rational(box.hi.numerator, box.hi.denominator, prec, libmp.round_ceiling)
    llo = libmp.mpf_shift(libmp.mpf_log(rlo, prec, libmp.round_floor), -1)
    lhi = libmp.mpf_shift(libmp.mpf_log(rhi, prec, libmp.round_ceiling), -1)
    inner = libmp.to_float(libmp.mpf_sub(lhi, llo, prec, libmp.round_ceiling),
                           rnd=libmp.round_ceiling)
    flo = libmp.to_float(llo, rnd=libmp.round_floor)
    fhi = libmp.to_float(lhi, rnd=libmp.round_ceiling)
    return math.nextafter(flo, -math.inf), math.nextafter(fhi, math.inf), inner


def identify_factor(poly: Poly, cbox_refiner) -> tuple:
    """Coefficient key of the irreducible factor of ``poly`` vanishing at a value.

    ``cbox_refiner(eps) -> CBox`` must return rigorous complex enclosures of
    the (possibly complex) value; the value must be a root of ``poly``.
    """
    from sympy.polys.rootoftools import rootof

    poly_key = tuple(int(c) for c in poly.all_coeffs())
    factor_roots = {}
    for fkey in _irreducible_factors(poly_key):
        fp = Poly(list(fkey), _z)
        factor_roots[fkey] = [rootof(fp.as_expr(), _z, i, radicals=False)
                              for i in range(fp.degree())]
    candidates = list(factor_roots)
    for eps in _EPS_SCHEDULE:
        box = cbox_refiner(eps)
        live = []
        for fkey in candidates:
            hits = any(root_box(r, eps).re.intersects(box.re)
                       and root_box(r, eps).im.intersects(box.im)
                       for r in factor_roots[fkey])
            if hits:
                live.append(fkey)
        candidates = live
        if len(candidates) == 1:
            return candidates[0]
        if not candidates:
            raise ValueError("value is not a root of the given polynomial")
    raise EnclosureTooWide("could not isolate the minimal polynomial factor")


class LogValue:
    """(1/2) * log(modsq) with modsq a positive RealAlgebraic; optionally negated.

    The exact carrier for log|eigenvalue| entries of Lyapunov functionals:
    ``sign``/``equals``/``is_zero``/``verify_ratio`` are exact decisions,
    ``interval`` returns rigorous float enclosures of requested width.
    """

    __slots__ = ("modsq", "neg", "_cached")

    def __init__(self, modsq: RealAlgebraic, neg: bool = False):
        self.modsq = modsq
        self.neg = neg
        self._cached = None

    @staticmethod
    def zero() -> "LogValue":
        return LogValue(RealAlgebraic(_ONE_KEY, 0))

    @staticmethod
    def from_modsq_fraction(q) -> "LogValue":
        return LogValue(RealAlgebraic.from_fraction(q))

    def negated(self) -> "LogValue":
        return LogValue(self.modsq, not self.neg)

    def sign(self) -> int:
        s = self.modsq.cmp_fraction(1)
        return -s if self.neg else s

    def is_zero(self) -> bool:
        return self.modsq.key == _ONE_KEY

    def _norm(self) -> RealAlgebraic:
        """modsq with the negation folded in (inverse when negated)."""
        return self.modsq.inverse() if self.neg else self.modsq

    def equals(self, other: "LogValue") -> bool:
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if self.neg == other.neg:
            return self.modsq.cmp(other.modsq) == 0
        a, b = self.interval(1e-9), other.interval(1e-9)
        if a[1] < b[0] or b[1] < a[0]:
            return False
        return self._norm().cmp(other._norm()) == 0

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
            lo, hi, inner = _log_half_interval(box, prec)
            if self.neg:
                lo, hi = -hi, -lo
            if hi - lo <= tol or inner <= tol / 4:
                if self._cached is None or hi - lo < self._cached[1] - self._cached[0]:
                    self._cached = (lo, hi)
                return self._cached
        raise EnclosureTooWide(f"log enclosure did not reach width {tol}")

    def mid(self) -> float:
        lo, hi = self.interval(1e-12)
        return (lo + hi) / 2

    def mpf(self, dps: int):
        """High-precision value for relation-candidate searches (not a proof)."""
        box = self.modsq.interval(Fraction(1, 10 ** (dps + 10)))
        with mpmath.workdps(dps + 10):
            num = mpmath.mpf(box.lo.numerator) + mpmath.mpf(box.hi.numerator)
            den = mpmath.mpf(box.lo.denominator) + mpmath.mpf(box.hi.denominator)
            val = mpmath.log(mpmath.mpf(box.lo.numerator) / box.lo.denominator) / 2
            return -val if self.neg else val

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
        s_eff = self._norm()
        o_eff = other._norm() if c > 0 else other._norm().inverse()
        p, q = abs(c.numerator), c.denominator
        if p + q > 200:
            return False
        return s_eff.pow(q).cmp(o_eff.pow(p)) == 0

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
        m = lv._norm()
        part = m.pow(ag) if ag > 0 else m.inverse().pow(-ag)
        acc = part if acc is None else acc.mul(part)
    return LogValue.zero() if acc is None else LogValue(acc)


def simplest_rational_between(lo, hi) -> Fraction:
    """The rational with smallest denominator in [lo, hi] (Stern-Brocot)."""
    a, b = Fraction(lo), Fraction(hi)
    if a > b:
        a, b = b, a

    def rec(a: Fraction, b: Fraction) -> Fraction:
        ceil_a = -((-a.numerator) // a.denominator)
        if ceil_a <= b:
            if a <= 0 <= b:
                return Fraction(0)
            return Fraction(ceil_a) if a > 0 else Fraction(b.numerator // b.denominator)
        floor_a = a.numerator // a.denominator
        return floor_a + 1 / rec(1 / (b - floor_a), 1 / (a - floor_a))

    return rec(a, b)
