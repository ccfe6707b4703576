"""Geometry of the Lyapunov functional arrangement.

Everything here reads one grouping pass, ``group_functionals``: a single
run of ``proportionality_coefficient`` over the functional list sorts the
nonzero functionals into walls (proportional up to sign, each member with
its signed coefficient) and sets the zero functionals aside as the neutral
part.  From that pass come the coarse Lyapunov spaces (the positive and
negative half of each wall), Weyl chambers in the coordinates of the walls'
kernel lattices with small integer witnesses (``weyl_chambers``), regular
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
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    _EPS_SCHEDULE,
    RInt,
    UndecidedSign,
    det,
    hnf_rows,
    kernel_lattice,
    lattice_intersection,
    lattice_normals,
    lcm_denominators,
    primitive_vector,
    simplest_rational_between,
)


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


def _interval(x, eps: Fraction) -> RInt:
    return RInt.point(x) if _is_exact(x) else x.interval(eps)


def _mid(x) -> float:
    return float(x) if _is_exact(x) else x.mid()


def _functional_is_zero(coeffs) -> bool:
    return all(_sign(c) == 0 for c in coeffs)


def proportionality_coefficient(u, v):
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
        cand = simplest_rational_between(*_ratio_interval(v[0], u[0], _EPS_SCHEDULE[0]))
        if cand != 0 and v[0].verify_ratio(u[0], cand):
            return cand
        return _mid(v[0]) / _mid(u[0])
    i0 = max((i for i in range(k) if su[i] != 0), key=lambda i: abs(_mid(u[i])))
    propose = True
    for eps in _EPS_SCHEDULE:
        for i, j in itertools.combinations(range(k), 2):
            minor = (_interval(u[i], eps) * _interval(v[j], eps)
                     - _interval(u[j], eps) * _interval(v[i], eps))
            if minor.lo > 0 or minor.hi < 0:
                return None
        if not propose:
            continue
        cand = simplest_rational_between(*_ratio_interval(v[i0], u[i0], eps))
        # every enclosure holds the true ratio, and the simplest rational has
        # the least numerator and denominator in it: past verify_ratio's cap
        # p + q <= 200 no later candidate can verify, so only minors refine
        propose = abs(cand.numerator) + cand.denominator <= 200
        if propose and cand != 0 and all(_verify_coord_ratio(v[i], u[i], cand)
                                         for i in range(k)):
            return cand
    raise UndecidedProportionality(
        "could not separate nor prove proportionality of functionals")


def _ratio_interval(num, den, eps):
    n, d = _interval(num, eps), _interval(den, eps)
    if d.lo <= 0 <= d.hi:
        raise UndecidedSign("denominator interval straddles zero")
    corners = [a / b for a in (n.lo, n.hi) for b in (d.lo, d.hi)]
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
    witness: tuple           # interior point, a small primitive integer one when found


@dataclass(frozen=True)
class ChamberArrangement:
    grouping: FunctionalArrangement
    chambers: tuple
    kernels: tuple           # per wall, integer vectors on which it vanishes

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
    for eps in _EPS_SCHEDULE:
        total = RInt.point(0)
        for c, a in zip(coeffs, ipt):
            if a:
                total = total + _interval(c, eps) * RInt.point(a)
        if total.lo > 0:
            return 1
        if total.hi < 0:
            return -1
    from .algnum import LogValue

    return LogValue.combine(coeffs, ipt).sign()


def weyl_chambers(grouping: FunctionalArrangement, kernels=None) -> ChamberArrangement:
    """Enumerate the chambers of the wall arrangement, with exact witnesses.

    ``kernels[w]`` spans integer vectors on which wall w provably vanishes
    ({0} if not given; computed for a rational wall).  One path for every k:
    the walls vanish on L, the intersection of the kernels, and the rows B of
    the unimodular U of the HNF of L's normals complete L to Z^k, so the
    chambers are those of the quotient normals chi(B_i), pulled back.  A
    rational wall, and a wall whose kernel has rank k - 1 (chi is then a
    positive multiple of chi(nu) nu, nu the kernel's normal), is its own
    exact proxy; the others are rounded, and certified when every r-subset
    with one (r the quotient rank) has an interval determinant of certain
    sign, the proxies' (the chirotope fixes the chambers: Bjorner et al.,
    *Oriented Matroids*, 1993); fewer walls than r leave it uncertified.
    The proxies' chambers come by deletion-restriction (``_enumerate_exact``);
    each witness a is lifted by B and replaced by the first small rounding
    of a whose exact signs are the chamber's, or by a itself when only its
    signs are (``_small_witness``).  A chamber with neither refines the
    rounding, and UndecidedSign follows the finest.  A missed kernel
    relation only makes L smaller, which can cause that, never a wrong
    chamber.
    """
    if not grouping.walls:
        raise ValueError("no nonzero functionals")
    k, m = grouping.k, len(grouping.walls)
    normals, lattices, exact = [wall.normal for wall in grouping.walls], [], []
    for w, n in enumerate(normals):
        if all(_is_exact(x) for x in n):
            lattices.append(kernel_lattice([n]))
            exact.append([Fraction(x) for x in n])
            continue
        lattices.append(list(kernels[w]) if kernels else [])
        (nu, *rest) = lattice_normals(lattices[-1], k)
        exact.append(None if rest else [exact_sign_at(n, nu) * x for x in nu])
    h, u = hnf_rows(list(zip(*lattice_normals(lattice_intersection(lattices, k), k))))
    basis = [row for row, hrow in zip(u, h) if any(hrow)]
    r = len(basis)
    walls = [(e or n, lattice_normals(lattice, k))
             for n, e, lattice in zip(normals, exact, lattices)]
    for den, eps in zip((10**3, 10**6, 10**9, 10**12), _EPS_SCHEDULE):
        proxies, rows = [], {}
        for w, (n, e) in enumerate(zip(normals, exact)):
            if e is not None:
                proxies.append(primitive_vector([_dot(e, b) for b in basis]))
                continue
            rows[w] = [sum((_interval(c, eps) * RInt.point(bg) for c, bg in zip(n, b) if bg),
                           RInt.point(0)) for b in basis]
            mids = [(x.lo + x.hi) / 2 for x in rows[w]]
            top = max(abs(x) for x in mids) or 1
            proxies.append([round(den * x / top) for x in mids])
        if m >= r and _chirotope_agrees(proxies, rows, r):
            found = []
            for ch in _enumerate_exact(proxies, r):
                a = tuple(sum(c * b[g] for c, b in zip(ch.witness, basis)) for g in range(k))
                witness = _small_witness(walls, ch.signs, a)
                if witness is None:
                    break
                found.append(Chamber(signs=ch.signs, witness=witness))
            else:
                return ChamberArrangement(grouping=grouping, chambers=tuple(found),
                                          kernels=tuple(lattices))
        if not rows:
            break
    raise UndecidedSign(
        "arrangement chirotope could not be certified (possible exact degeneracy)")


def _dot(u, v):
    return sum(Fraction(x) * y for x, y in zip(u, v))


def _chirotope_agrees(proxies, rows, r) -> bool:
    """Each r-subset of walls with a rounded proxy (``rows``: its interval
    normal) has a determinant of certain sign, that of the proxies."""
    for subset in itertools.combinations(range(len(proxies)), r):
        if not any(w in rows for w in subset):
            continue
        d = det([rows[w] if w in rows else [RInt.point(x) for x in proxies[w]]
                 for w in subset])
        p = det([proxies[w] for w in subset])
        if not ((d.lo > 0 and p > 0) or (d.hi < 0 and p < 0)):
            return False
    return True


def _wall_sign(wall, point) -> int:
    """Exact sign of a wall (coefficients, normals of its kernel) at a point;
    a point of the kernel lattice gives 0 without an exact evaluation."""
    coeffs, kernel_normals = wall
    if not any(_dot(nu, point) for nu in kernel_normals):
        return 0
    return exact_sign_at(coeffs, point)


def _small_witness(walls, signs, a):
    """The first primitive round(D a / |a|_inf), D = 1, 2, 4, ..., 2^20,
    whose exact wall signs are ``signs``; else ``a`` if its exact signs are,
    else None.  Each point is checked once, and the one returned certifies
    that the chamber ``signs`` exists."""
    top = max(abs(x) for x in a)
    for e in range(21):
        p = primitive_vector([round((1 << e) * x / top) for x in a])
        if any(p) and all(_wall_sign(w, p) == s for w, s in zip(walls, signs)):
            return tuple(Fraction(x) for x in p)
    return a if tuple(_wall_sign(w, a) for w in walls) == signs else None


def _enumerate_exact(reps, r):
    """Chambers of the integer normals ``reps`` in Z^r, in the order of
    their sign vectors (+ before -), by deletion-restriction (Zaslavsky,
    *Facing up to arrangements*, Mem. AMS 154, 1975).

    The chambers of A are those of A without its last wall w; a wall
    parallel to an earlier one copies that wall's sign times the sign of the
    ratio.  Otherwise the chambers whose sign vector is a chamber of the
    restriction A^w, written in the integer basis of w's hyperplane, are
    split in two, each half with a witness from ``_split_witness``, and the
    others keep their witness and its side of w.
    """
    if not reps:
        return [Chamber(signs=(), witness=(Fraction(0),) * r)]
    *rest, w = reps
    chambers = _enumerate_exact(rest, r)
    for j, n in enumerate(rest):
        if all(a * y == b * x for a, b in zip(n, w) for x, y in zip(n, w)):
            s = 1 if _dot(n, w) > 0 else -1
            return [Chamber(signs=ch.signs + (s * ch.signs[j],), witness=ch.witness)
                    for ch in chambers]
    basis = kernel_lattice([w])
    restriction = _enumerate_exact([[_dot(n, b) for b in basis] for n in rest], r - 1)
    lifted = {ch.signs: [sum(c * b[i] for c, b in zip(ch.witness, basis)) for i in range(r)]
              for ch in restriction}
    split = []
    for ch in chambers:
        f = lifted.get(ch.signs)
        if f is None:
            side = _dot(w, ch.witness)
            split.append(Chamber(signs=ch.signs + ((side > 0) - (side < 0),),
                                 witness=ch.witness))
            continue
        for s in (1, -1):
            split.append(Chamber(signs=ch.signs + (s,),
                                 witness=_split_witness(rest, f, [s * x for x in w])))
    return split


def _split_witness(walls, f, d):
    """f/|f| + p/|p| (sup norms, f/|f| = 0 at f = 0), inside the chamber on
    the d side of a wall: f lies on the wall's hyperplane and strictly on
    its chamber's side of each of ``walls``, and p is where the ray f + t d
    first meets one of them, or d if it meets none, so the sum is a positive
    multiple of a point strictly between f and p."""
    hits = [-_dot(n, f) / _dot(n, d) for n in walls if _dot(n, d)]
    t = min((x for x in hits if x > 0), default=None)
    p = d if t is None else [x + t * y for x, y in zip(f, d)]
    top_f, top_p = max(abs(x) for x in f) or 1, max(abs(x) for x in p)
    return tuple(Fraction(x) / top_f + Fraction(y) / top_p for x, y in zip(f, p))


def find_regular_element(arrangement: ChamberArrangement, chamber: Chamber):
    """Primitive integer vector strictly inside the chamber: its witness,
    whose signs are certified, scaled."""
    return primitive_vector(chamber.witness)


# ---------------------------------------------------------------------------
# Maximal-intersection certificates
# ---------------------------------------------------------------------------


def check_maximal_intersections(arrangement: ChamberArrangement) -> dict:
    """Certify the maximal-intersection hypothesis for each coarse space.

    For each coarse space E_H: exhibit a nonzero wall element
    (``_wall_element``), and integer elements b_1..b_r, chamber witnesses,
    whose negative-sign functional sets intersect exactly in the members of
    H.  Signs are read from the certified arrangement, not decided again:
    at chamber ch's witness, the functional i = c_i * normal of wall w_i has
    the sign of c_i times ch.signs[w_i].  The ergodicity clause is
    explicitly NOT verified here; reports say so.
    """
    grouping = arrangement.grouping
    if grouping.k < 2:
        raise RankTooLow("k = 1: Lyapunov walls contain no nonzero elements")
    wall_of = {i: (w_idx, 1 if c > 0 else -1)
               for w_idx, wall in enumerate(grouping.walls) for i, c in wall.members}
    nonzero_idx = sorted(wall_of)

    report = {"k": grouping.k, "spaces": [], "pass": True,
              "ergodicity_clause": "NOT verified combinatorially; supply the "
                                   "weak-mixing certificate or assert it"}
    for space in grouping.coarse_spaces:
        members = set(space.halfspace.member_functionals)
        w_bot, o_bot = wall_of[space.bottom]
        wall_elt, wall_exact = _wall_element(grouping.coeffs[space.bottom],
                                             arrangement.kernels[w_bot])
        b_set = []
        covered, inter = set(members), set(nonzero_idx)
        for phi in nonzero_idx:
            if phi in covered:
                continue
            w_phi, o_phi = wall_of[phi]
            ch = next((ch for ch in arrangement.chambers
                       if o_bot * ch.signs[w_bot] == -1 and o_phi * ch.signs[w_phi] == 1),
                      None)
            if ch is None:
                report["pass"] = False
                continue
            b_set.append(find_regular_element(arrangement, ch))
            signs = {i: o * ch.signs[w] for i, (w, o) in wall_of.items()}
            covered |= {i for i, s in signs.items() if s > 0}
            inter &= {i for i, s in signs.items() if s < 0}
        ok = inter == members
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


def _wall_element(bottom_coeffs, kernel):
    """Nonzero element of ker(chi), exact whenever one is known.

    If some coordinate of chi vanishes (exactly), the corresponding basis
    vector works and is an exact integer certificate.  Otherwise the pair
    vector (chi_j, -chi_i) in coordinates (i, j) is annihilated identically;
    it is rational exactly when chi is.  An irrational chi with a nonzero
    verified kernel (``kernel``, its wall's) gives the kernel's first basis
    vector instead, an exact integer element.
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
    if kernel:
        return list(kernel[0]), True
    vec = [0.0] * k
    vec[i], vec[j] = _mid(cj), -_mid(ci)
    return vec, False
