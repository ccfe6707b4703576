"""Geometry of the Lyapunov functional arrangement.

Everything here reads one grouping pass, ``group_functionals``: a single
run of ``proportionality_coefficient`` over the functional list sorts the
nonzero functionals into walls (proportional up to sign, each member with
its signed coefficient) and sets the zero functionals aside as the neutral
part.  From that pass come the coarse Lyapunov spaces (the positive and
negative half of each wall), Weyl chamber enumeration with rational
interior witnesses (``weyl_chambers``, run only when asked), regular
(Anosov-candidate) element extraction, and the combinatorial part of the
rank>=2 hypothesis: every coarse space is a maximal intersection of stable
sets, certified by explicit elements.

Functionals come in two flavors and both are handled exactly:

- rational coefficient vectors (Fraction entries), e.g. restricted roots;
- algebraic log-modulus vectors (LogValue entries) from the joint spectrum.

Proportionality of two functionals is never guessed: rational cases are
decided by division, algebraic cases get a rational candidate from rigorous
enclosures which is then verified by an exact multiplicative relation
(|a|^q == |b|^p).  Enclosures that refuse to separate raise
UndecidedProportionality rather than merging on noise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    EnclosureTooWide,
    RInt,
    UndecidedSign,
    det,
    lcm_denominators,
    primitive_vector,
    simplest_rational_between,
)
from .ratlp import strict_sign_witness


class UndecidedProportionality(Exception):
    """Neither separation nor an exact proportionality proof was reached."""


class RankTooLow(Exception):
    """The rank-one case structurally fails the k >= 2 hypotheses."""


# ---------------------------------------------------------------------------
# Scalar dispatch: Fraction | LogValue
# ---------------------------------------------------------------------------


def _is_exact(x) -> bool:
    return isinstance(x, (Fraction, int))


def _sign(x) -> int:
    if _is_exact(x):
        return (x > 0) - (x < 0)
    return x.sign()


def _interval(x, tol: float):
    if _is_exact(x):
        return (Fraction(x), Fraction(x))
    lo, hi = x.interval(tol)
    return (Fraction(lo), Fraction(hi))


def _mid(x) -> float:
    return float(x) if _is_exact(x) else x.mid()


def _functional_is_zero(coeffs) -> bool:
    return all(_sign(c) == 0 for c in coeffs)


def proportionality_coefficient(u, v, budget: int = 4):
    """c with v == c*u (c != 0), or None when certified non-proportional.

    Exact for rational vectors.  For log vectors, interval minors certify
    non-proportionality; a rational candidate from the ratio enclosure is
    verified with exact power relations.  k = 1 vectors are always
    proportional; an irrational coefficient is the float ratio of the two
    nearest doubles.
    """
    k = len(u)
    su = [_sign(x) for x in u]
    sv = [_sign(x) for x in v]
    if all(s == 0 for s in su) or all(s == 0 for s in sv):
        raise ValueError("zero functional has no proportionality class")
    if {i for i, s in enumerate(su) if s != 0} != {i for i, s in enumerate(sv) if s != 0}:
        return None
    same = all(a == b for a, b in zip(su, sv))
    flipped = all(a == -b for a, b in zip(su, sv))
    if not same and not flipped:
        return None
    if all(_is_exact(x) for x in u) and all(_is_exact(x) for x in v):
        i0 = next(i for i, s in enumerate(su) if s != 0)
        c = Fraction(v[i0]) / Fraction(u[i0])
        return c if all(Fraction(v[i]) == c * Fraction(u[i]) for i in range(k)) else None
    if k == 1:
        c_iv = _ratio_interval(v[0], u[0], 1e-12)
        cand = simplest_rational_between(c_iv[0], c_iv[1])
        if cand != 0 and v[0].verify_ratio(u[0], cand):
            return cand
        return _mid(v[0]) / _mid(u[0])
    tol = 1e-9
    for _ in range(budget):
        separated = False
        for i, j in itertools.combinations(range(k), 2):
            ui, uj = _interval(u[i], tol), _interval(u[j], tol)
            vi, vj = _interval(v[i], tol), _interval(v[j], tol)
            minor = RInt(*ui) * RInt(*vj) - RInt(*uj) * RInt(*vi)
            if minor.lo > 0 or minor.hi < 0:
                return None
            if minor.width > Fraction(1, 10**6):
                separated = True
        i0 = max((i for i in range(k) if su[i] != 0),
                 key=lambda i: abs(_mid(u[i])))
        c_iv = _ratio_interval(v[i0], u[i0], tol)
        cand = simplest_rational_between(c_iv[0], c_iv[1])
        if cand != 0 and all(_verify_coord_ratio(v[i], u[i], cand) for i in range(k)):
            return cand
        tol *= 1e-6
        if not separated and tol < 1e-40:
            break
    raise UndecidedProportionality(
        "could not separate nor prove proportionality of functionals")


def _ratio_interval(num, den, tol):
    nlo, nhi = _interval(num, tol)
    dlo, dhi = _interval(den, tol)
    if dlo <= 0 <= dhi:
        raise UndecidedSign("denominator interval straddles zero")
    corners = [Fraction(a) / Fraction(b) for a in (nlo, nhi) for b in (dlo, dhi)]
    return (min(corners), max(corners))


def _verify_coord_ratio(vi, ui, c: Fraction) -> bool:
    if _sign(ui) == 0:
        return _sign(vi) == 0
    if _is_exact(vi) and _is_exact(ui):
        return Fraction(vi) == c * Fraction(ui)
    return vi.verify_ratio(ui, c)


# ---------------------------------------------------------------------------
# The functional arrangement: one proportionality pass
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LyapunovHalfspace:
    normal: tuple               # bottom functional, first nonzero coordinate +-1
    member_functionals: tuple   # indices into the input functional list


@dataclass(frozen=True)
class CoarseLyapunovSpace:
    halfspace: LyapunovHalfspace
    bottom: int                 # functional index of the bottom exponent
    coefficients: tuple         # 1 = c_1 < c_2 < ... (Fractions when proven)
    dimension: int


@dataclass(frozen=True)
class Wall:
    normal: tuple     # coefficients of the representative functional
    members: tuple    # (functional index, c) with chi_index = c * normal


@dataclass(frozen=True)
class FunctionalArrangement:
    """What ``group_functionals`` found; indices refer to its input list."""

    k: int
    coeffs: tuple          # coefficient tuple of every input functional
    walls: tuple           # nonzero functionals grouped up to sign
    coarse_spaces: tuple   # each wall split into its positive and negative half
    neutral: int           # total multiplicity of the zero functionals


def _ray_normalize(coeffs):
    """Scale so the first nonzero coordinate is +-1, keeping the direction
    (exact when rational): chi and -chi get opposite normals."""
    if all(_is_exact(x) for x in coeffs):
        i0 = next(i for i, x in enumerate(coeffs) if x != 0)
        scale = Fraction(1) / abs(Fraction(coeffs[i0]))
        return tuple(Fraction(x) * scale for x in coeffs)
    mids = [_mid(x) for x in coeffs]
    i0 = next(i for i, x in enumerate(mids) if abs(x) > 1e-300)
    return tuple(x / abs(mids[i0]) for x in mids)


def group_functionals(functionals) -> FunctionalArrangement:
    """Group functionals by proportionality in one pass.

    Each nonzero functional is compared with the representative (first
    member) of each wall so far and joins the first one it is proportional
    to, keeping its signed coefficient.  Zero functionals join no wall;
    their multiplicity is the neutral part.  Indices refer to the input
    list.
    """
    coeffs = tuple(tuple(f.coeffs) for f in functionals)
    groups, neutral = [], 0
    for i, (c, f) in enumerate(zip(coeffs, functionals)):
        if _functional_is_zero(c):
            neutral += f.multiplicity
            continue
        for members in groups:
            rel = proportionality_coefficient(coeffs[members[0][0]], c)
            if rel is not None:
                members.append((i, rel))
                break
        else:
            groups.append([(i, Fraction(1))])
    walls = tuple(Wall(normal=coeffs[members[0][0]], members=tuple(members))
                  for members in groups)
    mults = [f.multiplicity for f in functionals]
    spaces = [_coarse_space(coeffs, mults, half) for wall in walls
              for half in ([m for m in wall.members if m[1] > 0],
                           [m for m in wall.members if m[1] < 0]) if half]
    spaces.sort(key=lambda s: tuple(float(x) for x in s.halfspace.normal))
    return FunctionalArrangement(k=len(coeffs[0]), coeffs=coeffs, walls=walls,
                                 coarse_spaces=tuple(spaces), neutral=neutral)


def _coarse_space(coeffs, mults, half) -> CoarseLyapunovSpace:
    """The coarse space of one half of a wall, coefficients relative to its
    bottom (least |c|) member."""
    bottom, c_bottom = min(half, key=lambda m: abs(float(m[1])))
    rel_coeffs = []
    for idx, c in half:
        if idx == bottom:
            rel_coeffs.append((idx, Fraction(1)))
        elif isinstance(c, Fraction) and isinstance(c_bottom, Fraction):
            rel_coeffs.append((idx, c / c_bottom))
        else:  # an irrational ratio, which proportionality only gives for k = 1
            rel_coeffs.append((idx, _mid(coeffs[idx][0]) / _mid(coeffs[bottom][0])))
    rel_coeffs.sort(key=lambda t: float(t[1]))
    members = tuple(idx for idx, _ in rel_coeffs)
    return CoarseLyapunovSpace(
        halfspace=LyapunovHalfspace(normal=_ray_normalize(coeffs[bottom]),
                                    member_functionals=members),
        bottom=bottom, coefficients=tuple(c for _, c in rel_coeffs),
        dimension=sum(mults[idx] for idx in members))


# ---------------------------------------------------------------------------
# Weyl chambers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chamber:
    signs: tuple             # +-1 per wall
    witness: tuple           # rational interior point


@dataclass(frozen=True)
class ChamberArrangement:
    grouping: FunctionalArrangement
    chambers: tuple

    @property
    def walls(self):
        return self.grouping.walls


def exact_sign_at(coeffs, point) -> int:
    """Sign of <coeffs, point> at a rational point, decided exactly.

    Rational coefficients: direct.  Log coefficients: rigorous interval sum
    first, exact multiplicative combination if the interval straddles zero.
    """
    point = [Fraction(x) for x in point]
    if all(_is_exact(x) for x in coeffs):
        val = sum(Fraction(c) * p for c, p in zip(coeffs, point))
        return (val > 0) - (val < 0)
    scale = lcm_denominators(point)
    ipt = [int(p * scale) for p in point]
    for tol in (1e-9, 1e-15, 1e-30, 1e-60):
        total = RInt(Fraction(0), Fraction(0))
        for c, a in zip(coeffs, ipt):
            if a == 0:
                continue
            lo, hi = _interval(c, tol)
            total = total + RInt(lo, hi) * RInt.point(a)
        if total.lo > 0:
            return 1
        if total.hi < 0:
            return -1
    from .algnum import combine_logvalues

    return combine_logvalues(list(coeffs), ipt).sign()


def weyl_chambers(grouping: FunctionalArrangement) -> ChamberArrangement:
    """Enumerate the chambers of the kernel arrangement with exact witnesses.

    Rational functionals: incremental insertion with exact rational LP.
    Algebraic (log) functionals: exact in rank 1 and 2 (ray separation is
    decidable); rank >= 3 goes through a chirotope-certified rational proxy
    and every witness is re-certified against the true normals.  A
    degeneracy that resists certification raises UndecidedSign.
    """
    if not grouping.walls:
        raise ValueError("no nonzero functionals")
    k = grouping.k
    wall_reps = [wall.normal for wall in grouping.walls]
    if all(all(_is_exact(x) for x in rep) for rep in wall_reps):
        chambers = _enumerate_exact([list(map(Fraction, r)) for r in wall_reps], k)
    elif k == 1:
        signs = tuple(_sign(rep[0]) for rep in wall_reps)
        chambers = (Chamber(signs=signs, witness=(Fraction(1),)),
                    Chamber(signs=tuple(-s for s in signs), witness=(Fraction(-1),)))
    elif k == 2:
        chambers = _enumerate_rank2(wall_reps)
    else:
        chambers = _enumerate_proxy(wall_reps, k)
    return ChamberArrangement(grouping=grouping, chambers=tuple(chambers))


def _enumerate_exact(reps, k):
    m = len(reps)
    chambers = [Chamber(signs=(), witness=None)]
    inserted = []
    for w in range(m):
        inserted.append(reps[w])
        new = []
        for ch in chambers:
            for s in (1, -1):
                signs = list(ch.signs) + [s]
                witness = strict_sign_witness(
                    inserted, [signs[i] for i in range(len(inserted))])
                if witness is not None:
                    new.append(Chamber(signs=tuple(signs), witness=tuple(witness)))
        chambers = new
    return chambers


def _enumerate_rank2(reps):
    # sort kernel rays by angle; chambers are the sectors in between
    m = len(reps)
    angles = []
    for i, rep in enumerate(reps):
        tol = 1e-12
        (alo, ahi), (blo, bhi) = _interval(rep[0], tol), _interval(rep[1], tol)
        # kernel direction of (a, b) is (-b, a); fold to [0, pi)
        theta = math.atan2(float((alo + ahi) / 2), -float((blo + bhi) / 2)) % math.pi
        angles.append((theta, i))
    angles.sort()
    order = [i for _, i in angles]
    thetas = [t for t, _ in angles]
    chambers = []
    for s in range(m):
        t0 = thetas[s]
        t1 = thetas[(s + 1) % m] + (math.pi if s == m - 1 else 0.0)
        phi = (t0 + t1) / 2
        chambers.extend(_certified_sector_chambers(reps, phi))
    dedup = {}
    for ch in chambers:
        dedup.setdefault(ch.signs, ch)
    result = list(dedup.values())
    if len(result) != 2 * m:
        raise UndecidedSign(
            f"rank-2 enumeration found {len(result)} chambers, expected {2 * m}")
    return sorted(result, key=lambda c: c.signs)


def _certified_sector_chambers(reps, phi):
    out = []
    for direction in (phi, phi + math.pi):
        for denom in (64, 512, 4096, 1 << 16):
            a = (Fraction(round(math.cos(direction) * denom), denom),
                 Fraction(round(math.sin(direction) * denom), denom))
            try:
                signs = tuple(exact_sign_at(rep, a) for rep in reps)
            except EnclosureTooWide:
                continue
            if all(s != 0 for s in signs):
                out.append(Chamber(signs=signs, witness=a))
                break
    return out


def _enumerate_proxy(reps, k):
    m = len(reps)
    tol = 1e-12
    for _round, max_den in enumerate((10**3, 10**6, 10**9, 10**12)):
        proxies = []
        for rep in reps:
            proxies.append([Fraction(float(lo + hi) / 2).limit_denominator(max_den)
                            for lo, hi in (_interval(c, tol) for c in rep)])
        certified = True
        for subset in itertools.combinations(range(m), k):
            det_iv = det([[RInt(*_interval(x, tol)) for x in reps[i]] for i in subset])
            det_proxy = det([proxies[i] for i in subset])
            if det_iv.lo > 0 and det_proxy > 0:
                continue
            if det_iv.hi < 0 and det_proxy < 0:
                continue
            certified = False
            break
        if certified:
            chambers = _enumerate_exact(proxies, k)
            out = []
            for ch in chambers:
                signs = tuple(exact_sign_at(rep, ch.witness) for rep in reps)
                if any(s == 0 for s in signs) or signs != ch.signs:
                    raise UndecidedSign("proxy witness failed exact certification")
                out.append(Chamber(signs=signs, witness=ch.witness))
            return out
        tol *= 1e-8
    raise UndecidedSign(
        "arrangement chirotope could not be certified (possible exact degeneracy)")


def find_regular_element(arrangement: ChamberArrangement, chamber: Chamber):
    """Integer vector strictly inside the chamber, certified exactly."""
    witness = chamber.witness
    scale = lcm_denominators(witness)
    a = [int(Fraction(x) * scale) for x in witness]
    a = primitive_vector(a)
    for wall, s in zip(arrangement.walls, chamber.signs):
        if exact_sign_at(wall.normal, a) != s:
            raise UndecidedSign(f"integer witness {a} lost certification")
    return a


# ---------------------------------------------------------------------------
# Maximal-intersection certificates
# ---------------------------------------------------------------------------


def check_maximal_intersections(arrangement: ChamberArrangement) -> dict:
    """Certify the maximal-intersection hypothesis for each coarse space.

    For each coarse space E_H: exhibit a nonzero wall element (built from
    the bottom functional's own coefficients, hence annihilated identically),
    and integer elements b_1..b_r whose negative-sign functional sets
    intersect exactly in the members of H (verified sign by sign).  The
    ergodicity clause is explicitly NOT verified here; reports say so.
    """
    grouping = arrangement.grouping
    if grouping.k < 2:
        raise RankTooLow("k = 1: Lyapunov walls contain no nonzero elements")
    coeffs = grouping.coeffs
    wall_of = {i: (w_idx, 1 if c > 0 else -1)
               for w_idx, wall in enumerate(grouping.walls) for i, c in wall.members}
    nonzero_idx = sorted(wall_of)

    report = {"k": grouping.k, "spaces": [], "pass": True,
              "ergodicity_clause": "NOT verified combinatorially; supply the "
                                   "weak-mixing certificate or assert it"}
    for space in grouping.coarse_spaces:
        members = set(space.halfspace.member_functionals)
        wall_elt, wall_exact = _wall_element(coeffs[space.bottom])
        b_set = []
        covered = set(members)
        w_bot, o_bot = wall_of[space.bottom]
        for phi in nonzero_idx:
            if phi in covered:
                continue
            w_phi, o_phi = wall_of[phi]
            cand = None
            for ch in arrangement.chambers:
                if o_bot * ch.signs[w_bot] == -1 and o_phi * ch.signs[w_phi] == 1:
                    cand = find_regular_element(arrangement, ch)
                    break
            if cand is None:
                report["pass"] = False
                continue
            b_set.append(cand)
            for other in nonzero_idx:
                if other not in members and exact_sign_at(coeffs[other], cand) > 0:
                    covered.add(other)
        # verify: intersection of negative sets over b_set equals members
        inter = set(nonzero_idx)
        for b in b_set:
            inter &= {i for i in nonzero_idx if exact_sign_at(coeffs[i], b) < 0}
        ok = (inter == members) if b_set else (set(nonzero_idx) == members)
        entry = {
            "bottom": space.bottom,
            "members": sorted(members),
            "wall_element": [float(x) for x in wall_elt],
            "wall_element_exact": wall_exact,
            "stable_intersection_elements": [list(b) for b in b_set],
            "intersection_equals_members": bool(ok),
        }
        if not ok:
            report["pass"] = False
        report["spaces"].append(entry)
    return report


def _wall_element(bottom_coeffs):
    """Nonzero element of ker(chi) built from chi's own coefficients.

    If some coordinate of chi vanishes (exactly), the corresponding basis
    vector works and is an exact integer certificate.  Otherwise the pair
    vector (chi_j, -chi_i) in coordinates (i, j) is annihilated identically;
    it is rational exactly when chi is.
    """
    k = len(bottom_coeffs)
    for j in range(k):
        if _sign(bottom_coeffs[j]) == 0:
            return [Fraction(int(t == j)) for t in range(k)], True
    i, j = 0, 1
    ci, cj = bottom_coeffs[i], bottom_coeffs[j]
    if _is_exact(ci) and _is_exact(cj):
        vec = [Fraction(0)] * k
        vec[i], vec[j] = Fraction(cj), -Fraction(ci)
        return vec, True
    vec = [0.0] * k
    vec[i], vec[j] = _mid(cj), -_mid(ci)
    return vec, False
