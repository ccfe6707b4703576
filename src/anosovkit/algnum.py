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

Polynomials are ``intpoly`` coefficient tuples.  Polynomial constructions
(values under a polynomial map, pairwise products, powers) are done with
sympy resultants and one ``intpoly.factor``; this is orders of magnitude
faster than ``sympy.minimal_polynomial`` on conjugate products.  Root
enclosures come from sympy ``CRootOf``.  Those are the only sympy uses.
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

from . import intpoly
from .exact import (  # noqa: F401  (re-exported for existing importers)
    EnclosureTooWide,
    RInt,
    UndecidedSign,
    simplest_rational_between,
)

_x = Symbol("_anosovkit_x")
_y = Symbol("_anosovkit_y")
_z = Symbol("_anosovkit_z")

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

    @property
    def width(self) -> Fraction:
        return max(self.re.width, self.im.width)

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


def _expr(coeffs, var):
    return Poly(list(coeffs), var).as_expr()


def _resultant(f, g, var, gen) -> tuple:
    """resultant(f, g) in var, a polynomial in gen, as a primitive key."""
    res = Poly(sympy.resultant(f, g, var), gen, domain="QQ")
    return intpoly.primitive(Fraction(int(c.p), int(c.q)) for c in res.all_coeffs())


def values_poly(f: tuple, q_coeffs) -> tuple:
    """Integer polynomial whose roots include q(tau) for every root tau of f.

    ``q_coeffs``: rational coefficients of q, descending order.
    """
    qx = sum(sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) * _x ** i
             for i, c in enumerate(reversed(list(q_coeffs))))
    return _resultant(_expr(f, _x), _y - qx, _x, _y)


def _squarefree_nonzero(p: tuple) -> tuple:
    """Squarefree part of p with the root 0 removed."""
    while p[-1] == 0:
        p = p[:-1]
    return intpoly.squarefree_part(p)


def power_poly(m: tuple, k: int) -> tuple:
    """Integer polynomial whose roots are alpha^k for roots alpha of m."""
    assert k >= 1
    return _resultant(_expr(m, _x), _z - _x ** k, _x, _z)


def composed_product_pair(a: tuple, b: tuple) -> tuple:
    """Integer polynomial whose roots are products alpha*beta of roots of a, b.

    Zero roots are stripped and the squarefree parts are used first.
    """
    a = _squarefree_nonzero(a)
    b = _squarefree_nonzero(b)
    d = len(b) - 1
    hom = sum(c * _z ** (d - i) * _y ** i for i, c in enumerate(reversed(b)))
    return _resultant(_expr(a, _y), hom, _y, _z)


def complex_roots(key: tuple) -> list:
    """Roots of an irreducible integer polynomial as sympy CRootOf, in
    sympy's index order (real roots first); a rational root is a Rational."""
    if len(key) == 2:
        return [sympy.Rational(-key[1], key[0])]
    from sympy.polys.rootoftools import rootof

    expr = _expr(key, _z)
    return [rootof(expr, _z, i, radicals=False) for i in range(len(key) - 1)]


# ---------------------------------------------------------------------------
# RealAlgebraic
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8192)
def _real_roots(poly_key: tuple) -> tuple:
    from sympy.polys.rootoftools import ComplexRootOf

    # radicals=False keeps CRootOf form even for quadratics
    return tuple(ComplexRootOf.real_roots(Poly(list(poly_key), _z), radicals=False))


def _irreducible_factors(poly_key: tuple) -> list:
    return sorted(key for key, _ in intpoly.factor(poly_key))


def _image_refiner(image, what: str):
    """refiner(eps) for ``from_vanishing``: the first enclosure image(eps2)
    of width <= 2*eps as the operand enclosures tighten; image returns None
    while its value is not yet enclosed."""

    def refiner(eps):
        for eps2 in _EPS_SCHEDULE:
            box = image(eps2)
            if box is not None and box.width <= 2 * eps:
                return box
        raise EnclosureTooWide(f"{what} refinement failed")

    return refiner


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
    def from_vanishing(poly_key: tuple, refiner) -> "RealAlgebraic":
        """Identify a real value as a root of the polynomial ``poly_key``.

        ``refiner(eps) -> RInt`` must return rigorous enclosures of the
        value.  The irreducible factor and root index are pinned down by
        joint refinement; terminates because the value is a root of exactly
        one irreducible factor.
        """
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
        refiner = _image_refiner(lambda e: self.interval(e).pow_int(k), "power")
        return RealAlgebraic.from_vanishing(power_poly(self.key, k), refiner)

    def mul(self, other: "RealAlgebraic") -> "RealAlgebraic":
        if self.is_rational and other.is_rational:
            return RealAlgebraic.from_fraction(self.as_fraction() * other.as_fraction())
        refiner = _image_refiner(lambda e: self.interval(e) * other.interval(e), "product")
        return RealAlgebraic.from_vanishing(composed_product_pair(self.key, other.key),
                                            refiner)

    def inverse(self) -> "RealAlgebraic":
        if self.is_rational:
            return RealAlgebraic.from_fraction(1 / self.as_fraction())

        def inverse_box(e):
            box = self.interval(e)
            return RInt(1 / box.hi, 1 / box.lo) if box.lo > 0 or box.hi < 0 else None

        return RealAlgebraic.from_vanishing(intpoly.primitive(reversed(self.key)),
                                            _image_refiner(inverse_box, "inverse"))

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


def identify_factor(poly_key: tuple, cbox_refiner) -> tuple:
    """Key of the irreducible factor of ``poly_key`` vanishing at a value.

    ``cbox_refiner(eps) -> CBox`` must return rigorous complex enclosures of
    the (possibly complex) value; the value must be a root of ``poly_key``.
    """
    factor_roots = {fkey: complex_roots(fkey) for fkey in _irreducible_factors(poly_key)}
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
