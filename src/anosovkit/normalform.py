"""Truncated polynomial self-maps graded by spectral blocks, and the
sub-resonance normal form of a contraction.

A map is stored as sparse coefficients {(output coordinate, exponent
tuple): value} up to a truncation degree, over the variable grading given
by a SpectrumBands.  With rational input the whole pipeline is exact:
composition and inversion are exact truncated algebra, and the
normalization solves each homological equation as an exact linear system.

Normalization convention: non-sub-resonance terms are eliminated degree by
degree, sub-resonance terms are transported into the normal form unchanged.
Other normal forms differ from this one by a sub-resonance-generated
change of coordinates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exact import mat_inv, solve_sparse
from .intpoly import charpoly, is_semisimple_matrix, squarefree_part
from .resonance import (
    NotNarrowBand,
    SpectrumBands,
    _compositions,
    degree_bound,
    enumerate_subresonance,
    is_narrow_band,
)


class BandMismatch(ValueError):
    """Operands disagree on bands or truncation degree."""


class SingularLinearPart(ValueError):
    """Inversion requested for a map with singular linear part."""


class ResonantDenominator(ArithmeticError):
    """A homological equation was singular on a non-sub-resonance subspace.

    Cannot occur when the linear part's moduli sit inside narrow bands;
    raised with diagnostics as a defect otherwise.
    """


class NotCommuting(ValueError):
    """Centralizer check precondition failed; carries the residual."""

    def __init__(self, residual, terms):
        self.residual = residual
        self.terms = terms
        super().__init__(f"maps do not commute: residual {residual} on {terms[:4]}")


@dataclass(frozen=True)
class BlockedPolynomialMap:
    bands: SpectrumBands
    truncation_degree: int
    coeffs: tuple  # sorted tuple of ((coord, exponents), value)

    # -- construction --------------------------------------------------------

    @staticmethod
    def make(bands: SpectrumBands, degree: int, entries) -> "BlockedPolynomialMap":
        n = bands.total_dim
        clean = {}
        for (coord, expo), val in (entries.items() if isinstance(entries, dict)
                                   else entries):
            expo = tuple(int(e) for e in expo)
            if len(expo) != n or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent tuple {expo}")
            total = sum(expo)
            if total == 0:
                raise ValueError("constant terms are not allowed (origin preserved)")
            if total > degree:
                raise ValueError(f"term {expo} exceeds truncation degree {degree}")
            if not 0 <= coord < n:
                raise ValueError(f"coordinate {coord} out of range")
            val = Fraction(val) if isinstance(val, (int, str)) else val
            if val != 0:
                clean[(coord, expo)] = clean.get((coord, expo), 0) + val
        items = tuple(sorted((k, v) for k, v in clean.items() if v != 0))
        return BlockedPolynomialMap(bands=bands, truncation_degree=degree,
                                    coeffs=items)

    @staticmethod
    def identity(bands: SpectrumBands, degree: int) -> "BlockedPolynomialMap":
        n = bands.total_dim
        return BlockedPolynomialMap.make(
            bands, degree,
            {(c, tuple(int(v == c) for v in range(n))): Fraction(1) for c in range(n)})

    @staticmethod
    def from_linear(bands: SpectrumBands, degree: int, matrix) -> "BlockedPolynomialMap":
        n = bands.total_dim
        entries = {}
        for c in range(n):
            for v in range(n):
                if matrix[c][v]:
                    entries[(c, tuple(int(w == v) for w in range(n)))] = matrix[c][v]
        return BlockedPolynomialMap.make(bands, degree, entries)

    # -- views ----------------------------------------------------------------

    @property
    def nvars(self) -> int:
        return self.bands.total_dim

    def coeff_dict(self) -> dict:
        return dict(self.coeffs)

    def linear_part(self):
        n = self.nvars
        mat = [[Fraction(0)] * n for _ in range(n)]
        for (c, expo), val in self.coeffs:
            if sum(expo) == 1:
                mat[c][expo.index(1)] = val
        return mat

    def var_block(self, v: int) -> int:
        acc = 0
        for i, d in enumerate(self.bands.block_dims):
            acc += d
            if v < acc:
                return i
        raise IndexError(v)

    def block_multidegree(self, expo) -> tuple:
        s = [0] * self.bands.blocks
        for v, e in enumerate(expo):
            if e:
                s[self.var_block(v)] += e
        return tuple(s)

    def max_abs_coeff(self):
        return max((abs(v) for _, v in self.coeffs), default=Fraction(0))

    def evaluate(self, point):
        n = self.nvars
        out = [0] * n
        for (c, expo), val in self.coeffs:
            term = val
            for v, e in enumerate(expo):
                for _ in range(e):
                    term = term * point[v]
            out[c] = out[c] + term
        return out

    def to_json(self) -> dict:
        from .exact import format_rational

        terms = []
        for (c, expo), val in self.coeffs:
            sval = format_rational(val) if isinstance(val, Fraction) else float(val)
            terms.append({"coord": c, "exponents": list(expo), "value": sval})
        return {"bands": self.bands.to_json(),
                "degree": self.truncation_degree, "terms": terms}

    @staticmethod
    def from_json(obj: dict) -> "BlockedPolynomialMap":
        from .exact import parse_rational

        bands = SpectrumBands.from_json(obj["bands"])
        entries = {}
        for t in obj["terms"]:
            entries[(t["coord"], tuple(t["exponents"]))] = parse_rational(t["value"])
        return BlockedPolynomialMap.make(bands, obj["degree"], entries)


# ---------------------------------------------------------------------------
# Truncated polynomial arithmetic
# ---------------------------------------------------------------------------


def _pmul(a: dict, b: dict, degree: int) -> dict:
    out = {}
    for ea, va in a.items():
        da = sum(ea)
        for eb, vb in b.items():
            if da + sum(eb) > degree:
                continue
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + va * vb
    return {e: v for e, v in out.items() if v != 0}


def _ppow(base: dict, k: int, degree: int, n: int) -> dict:
    result = {tuple([0] * n): Fraction(1)}
    for _ in range(k):
        result = _pmul(result, base, degree)
    return result


def compose(f: BlockedPolynomialMap, g: BlockedPolynomialMap) -> BlockedPolynomialMap:
    """Coefficients of f(g(x)) truncated at the shared degree; exact."""
    if f.bands != g.bands or f.truncation_degree != g.truncation_degree:
        raise BandMismatch("compose requires identical bands and degree")
    n, degree = f.nvars, f.truncation_degree
    g_comp = [dict() for _ in range(n)]
    for (c, expo), val in g.coeffs:
        g_comp[c][expo] = g_comp[c].get(expo, 0) + val
    power_cache: dict = {}

    def gpow(v: int, k: int) -> dict:
        key = (v, k)
        if key not in power_cache:
            power_cache[key] = _ppow(g_comp[v], k, degree, n)
        return power_cache[key]

    entries: dict = {}
    for (c, expo), val in f.coeffs:
        term = {tuple([0] * n): Fraction(1)}
        for v, e in enumerate(expo):
            if e:
                term = _pmul(term, gpow(v, e), degree)
                if not term:
                    break
        for e, tv in term.items():
            if sum(e) == 0:
                continue  # cannot occur: g preserves the origin
            key = (c, e)
            entries[key] = entries.get(key, 0) + val * tv
    return BlockedPolynomialMap.make(f.bands, degree, entries)


def map_sub(f: BlockedPolynomialMap, g: BlockedPolynomialMap) -> BlockedPolynomialMap:
    if f.bands != g.bands or f.truncation_degree != g.truncation_degree:
        raise BandMismatch("subtraction requires identical bands and degree")
    entries = dict(f.coeffs)
    for key, val in g.coeffs:
        entries[key] = entries.get(key, 0) - val
    return BlockedPolynomialMap.make(f.bands, f.truncation_degree, entries)


def invert(f: BlockedPolynomialMap) -> BlockedPolynomialMap:
    """g with f(g(x)) == g(f(x)) == x through the truncation degree."""
    n, degree = f.nvars, f.truncation_degree
    lin = f.linear_part()
    try:
        lin_inv = mat_inv(lin)
    except ZeroDivisionError:
        raise SingularLinearPart("linear part is singular") from None
    l_inv = BlockedPolynomialMap.from_linear(f.bands, degree, lin_inv)
    ident = BlockedPolynomialMap.identity(f.bands, degree)
    f_nl = map_sub(f, BlockedPolynomialMap.from_linear(f.bands, degree, lin))
    g = l_inv
    for _ in range(degree):
        g = compose(l_inv, map_sub(ident, compose(f_nl, g)))
    return g


# ---------------------------------------------------------------------------
# Sub-resonance structure
# ---------------------------------------------------------------------------


def allowed_support(bands: SpectrumBands) -> set:
    """Set of (1-based block, multidegree) pairs admissible for SR-type maps."""
    return {(r.target_block, r.exponents) for r in enumerate_subresonance(bands)}


def is_subresonance_type(f: BlockedPolynomialMap):
    """(verdict, violating (coord, exponents) list) against f's bands."""
    allowed = allowed_support(f.bands)
    violators = []
    for (c, expo), _val in f.coeffs:
        key = (f.var_block(c) + 1, f.block_multidegree(expo))
        if key not in allowed:
            violators.append((c, expo))
    return (not violators), violators


def sr_generated_support(bands: SpectrumBands) -> set:
    """Monomial support closure of compositions of SR-type maps.

    Composition may leave the SR class but stays inside this closure, which
    is finite because the total degree is capped by the SR degree bound.
    """
    bound = degree_bound(bands)
    l = bands.blocks
    support = allowed_support(bands)
    changed = True
    while changed:
        changed = False
        for (i, s), subs in itertools.product(list(support), list(support)):
            # substitute a block-subs[0] monomial for one factor of that block
            j, t = subs
            jz = j - 1
            if s[jz] == 0:
                continue
            new = list(s)
            new[jz] -= 1
            combined = tuple(a + b for a, b in zip(new, t))
            if sum(combined) > bound:
                continue
            key = (i, combined)
            if key not in support:
                support.add(key)
                changed = True
    return support


def is_subresonance_generated(f: BlockedPolynomialMap):
    closure = sr_generated_support(f.bands)
    violators = []
    for (c, expo), _val in f.coeffs:
        key = (f.var_block(c) + 1, f.block_multidegree(expo))
        if key not in closure:
            violators.append((c, expo))
    return (not violators), violators


# ---------------------------------------------------------------------------
# Normal form of a contraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalFormResult:
    change: BlockedPolynomialMap   # h, tangent to the identity
    normal: BlockedPolynomialMap   # N, sub-resonance type
    residual: object               # max |coeff| of h∘F - N∘h (0 when exact)

    def to_json(self) -> dict:
        res = (str(self.residual) if isinstance(self.residual, Fraction)
               else float(self.residual))
        return {"change": self.change.to_json(), "normal": self.normal.to_json(),
                "residual": res}


def _check_linear_part(f: BlockedPolynomialMap):
    """f's linear part, after checking it is block-diagonal and semisimple
    within each block (both exact)."""
    lin = f.linear_part()
    n = f.nvars
    for c in range(n):
        for v in range(n):
            if lin[c][v] != 0 and f.var_block(c) != f.var_block(v):
                raise ValueError("linear part must be block-diagonal for "
                                 "normalization")
    offset = 0
    for d in f.bands.block_dims:
        if not is_semisimple_matrix([row[offset:offset + d]
                                     for row in lin[offset:offset + d]]):
            raise ValueError("linear part must be semisimple within each block")
        offset += d
    return lin


def _check_block_moduli(f: BlockedPolynomialMap, lin, band_tol: float):
    """Advisory gate: block eigenvalue log-moduli within [lambda_i, mu_i].

    Band endpoints are user-supplied decimals, so membership is tested with
    a tolerance; exact solvability of each homological equation is checked
    separately during the solve.  A zero eigenvalue is decided exactly (zero
    constant term of the characteristic polynomial); the moduli are roots of
    its squarefree part, whose roots are simple.
    """
    import mpmath

    offset = 0
    for i, d in enumerate(f.bands.block_dims):
        block = [[Fraction(x) for x in row[offset:offset + d]]
                 for row in lin[offset:offset + d]]
        p = charpoly(block)
        if p[-1] == 0:
            raise SingularLinearPart("zero eigenvalue in a block")
        lam, mu = (float(f.bands.intervals[i][0]), float(f.bands.intervals[i][1]))
        for ev in mpmath.polyroots(squarefree_part(p), maxsteps=200, extraprec=60):
            lg = float(mpmath.log(abs(ev)))
            if not (lam - band_tol <= lg <= mu + band_tol):
                # rounded first so that a tiny negative value prints as 0.000000
                raise ValueError(
                    f"block {i + 1} eigenvalue log-modulus {round(lg, 6) + 0.0:.6f} "
                    f"outside band [{lam}, {mu}] (tol {band_tol})")
        offset += d


def _monomials_of_shape(f: BlockedPolynomialMap, s: tuple):
    """All exponent tuples with the given per-block degrees."""
    n = f.nvars
    per_block_vars = []
    acc = 0
    for d in f.bands.block_dims:
        per_block_vars.append(list(range(acc, acc + d)))
        acc += d

    choices = [list(_compositions(sj, len(v))) for v, sj in zip(per_block_vars, s)]
    results = []
    for combo in itertools.product(*choices):
        expo = [0] * n
        for bvars, be in zip(per_block_vars, combo):
            for v, e in zip(bvars, be):
                expo[v] = e
        results.append(tuple(expo))
    return sorted(results)


def _substitute_linear(monos, lin, degree: int, n: int) -> dict:
    """{e: (L x)^e as {exponent: coeff}} for each e in monos; exact."""
    unit = [tuple(int(u == w) for u in range(n)) for w in range(n)]
    powers: dict = {}  # (v, k) -> (L_v x)^k, shared between monomials
    out = {}
    for expo in monos:
        term = {tuple([0] * n): Fraction(1)}
        for v, e in enumerate(expo):
            if e:
                if (v, e) not in powers:
                    form = {unit[w]: x for w, x in enumerate(lin[v]) if x != 0}
                    powers[(v, e)] = _ppow(form, e, degree, n)
                term = _pmul(term, powers[(v, e)], degree)
        out[expo] = term
    return out


def _homological_solve(f: BlockedPolynomialMap, lins, block_i, shape_s, errs, what):
    """Solve g_{t+1}∘L_t - L_t∘g_t = -errs[t] around a cycle of p = len(lins)
    fibers (t mod p; p = 1 is g∘L - L∘g = -err) on the (block_i, shape_s)
    subspace; exact.

    Unknowns are (fiber t) x (coordinate c in block_i) x (monomials of shape
    s), assembled straight into sparse rows.  Returns per-fiber dicts of the
    nonzero solution coefficients; raises ResonantDenominator (message
    prefixed by ``what``) when the operator is singular.
    """
    n, degree, p = f.nvars, f.truncation_degree, len(lins)
    coords = [c for c in range(n) if f.var_block(c) == block_i - 1]
    monos = _monomials_of_shape(f, shape_s)
    pairs = [(c, e) for c in coords for e in monos]
    index = {pr: i for i, pr in enumerate(pairs)}
    size = len(pairs)
    rows = [{} for _ in range(size * p)]
    for t, lin in enumerate(lins):
        base, next_base = t * size, (t + 1) % p * size
        subst = _substitute_linear(monos, lin, degree, n)
        for col, (c, e) in enumerate(pairs):
            # + g_{t+1} ∘ L_t
            for e2, coeff in subst[e].items():
                row = rows[base + index[(c, e2)]]
                row[next_base + col] = row.get(next_base + col, 0) + coeff
            # - L_t ∘ g_t
            for c2 in coords:
                if lin[c2][c] != 0:
                    row = rows[base + index[(c2, e)]]
                    row[base + col] = row.get(base + col, 0) - lin[c2][c]
        for pr, val in errs[t].items():
            rows[base + index[pr]][size * p] = -val
    rows = [{j: Fraction(x) for j, x in row.items() if x} for row in rows]
    try:
        sol = solve_sparse(rows, size * p)
    except (ZeroDivisionError, ValueError) as exc:
        raise ResonantDenominator(
            f"{what} singular on block {block_i}, shape {shape_s}: {exc}") from None
    return [{pr: sol[t * size + i][size * p] for i, pr in enumerate(pairs)
             if size * p in sol[t * size + i]} for t in range(p)]


def _normalize_cycle(maps, lins, what):
    """Changes h_t and normal forms N_t with h_{t+1}∘F_t = N_t∘h_t around a
    cycle of p = len(maps) fiber maps (t mod p; p = 1 is one contraction).

    Degree by degree, the sub-resonance part of each error moves into N_t
    and the rest is removed by one homological solve per (block, shape).
    """
    p, f = len(maps), maps[0]
    bands, degree = f.bands, f.truncation_degree
    allowed = allowed_support(bands)
    hs = [BlockedPolynomialMap.identity(bands, degree) for _ in range(p)]
    ns = [BlockedPolynomialMap.from_linear(bands, degree, lin) for lin in lins]
    for d in range(2, degree + 1):
        groups = [{} for _ in range(p)]
        for t in range(p):
            err = map_sub(compose(hs[(t + 1) % p], maps[t]), compose(ns[t], hs[t]))
            for (c, expo), val in err.coeffs:
                if sum(expo) == d:
                    key = (f.var_block(c) + 1, f.block_multidegree(expo))
                    groups[t].setdefault(key, {})[(c, expo)] = val
        n_new = [dict(n.coeffs) for n in ns]
        h_new = [dict(h.coeffs) for h in hs]
        for key in sorted(set().union(*groups)):
            errs = [g.get(key, {}) for g in groups]
            if key in allowed:
                parts, target = errs, n_new
            else:
                parts, target = _homological_solve(f, lins, *key, errs, what), h_new
            for t in range(p):
                for k, v in parts[t].items():
                    target[t][k] = target[t].get(k, 0) + v
        ns = [BlockedPolynomialMap.make(bands, degree, x) for x in n_new]
        hs = [BlockedPolynomialMap.make(bands, degree, x) for x in h_new]
    return hs, ns


def normalize_contraction(f: BlockedPolynomialMap, degree: int | None = None,
                          band_tol: float = 0.05) -> NormalFormResult:
    """Sub-resonance normal form h∘F = N∘h through the truncation degree.

    h is tangent to the identity; N keeps exactly the sub-resonance terms.
    Exact with rational coefficients: the residual is the zero fraction.
    The orbit of one fiber: ``normalize_periodic_orbit([f])``.
    """
    return normalize_periodic_orbit([f], degree=degree, band_tol=band_tol)[0]


def verify_centralizer(g: BlockedPolynomialMap, normal: BlockedPolynomialMap,
                       tol=Fraction(0)):
    """Check G commutes with the normal form, then test SR-generated support.

    Returns {"commutes", "verdict", "violators", "commutation_residual"}.
    Raises NotCommuting when the commutation residual exceeds ``tol``.
    """
    if g.bands != normal.bands or g.truncation_degree != normal.truncation_degree:
        raise BandMismatch("centralizer check requires identical bands/degree")
    comm = map_sub(compose(g, normal), compose(normal, g))
    residual = comm.max_abs_coeff()
    if residual > tol:
        raise NotCommuting(residual, [k for k, _ in comm.coeffs])
    verdict, violators = is_subresonance_generated(g)
    return {"commutes": True, "commutation_residual": residual,
            "verdict": verdict, "violators": violators}


def normalize_periodic_orbit(maps, degree: int | None = None,
                             band_tol: float = 0.05):
    """Joint normal forms along a periodic orbit of fiber maps.

    maps[t] sends fiber t to fiber t+1 (mod p); returns per-fiber results
    with h_{t+1} ∘ F_t = N_t ∘ h_t and every N_t of sub-resonance type.
    Solved degree by degree as one exact linear system around the cycle.
    p = 1 is a single contraction, h∘F = N∘h.
    """
    p = len(maps)
    if p == 0:
        raise ValueError("empty orbit")
    bands = maps[0].bands
    if any(m.bands != bands for m in maps):
        raise BandMismatch("all fiber maps must share bands")
    if not is_narrow_band(bands):
        raise NotNarrowBand("normalization requires narrow band spectrum")
    work_degree = degree if degree is not None else max(
        max(m.truncation_degree for m in maps), degree_bound(bands))
    maps = [BlockedPolynomialMap.make(bands, work_degree,
                                      {k: v for k, v in m.coeffs
                                       if sum(k[1]) <= work_degree})
            for m in maps]
    lins = [_check_linear_part(m) for m in maps]
    cycle = maps[0]
    for m in maps[1:]:
        cycle = compose(m, cycle)
    _check_block_moduli(cycle, cycle.linear_part(),
                        band_tol=band_tol * p + (p - 1) * 2.0)
    hs, ns = _normalize_cycle(maps, lins, "homological operator" if p == 1
                              else "cycle homological operator")
    results = []
    for t in range(p):
        res = map_sub(compose(hs[(t + 1) % p], maps[t]),
                      compose(ns[t], hs[t])).max_abs_coeff()
        ok, viol = is_subresonance_type(ns[t])
        if not ok:
            raise ResonantDenominator(
                f"normal form retained non-SR terms {viol}" if p == 1
                else f"fiber {t} normal form kept non-SR terms {viol}")
        results.append(NormalFormResult(change=hs[t], normal=ns[t], residual=res))
    return results


def smoothness_metadata(bands: SpectrumBands) -> dict:
    """Which finite-differentiability regime this spectrum demands.

    Metadata only: strictly narrow spectra admit a C^2 linear normal form
    for C^4 data; the two-block 2:1 resonance case needs C^6 data for a
    C^3 sub-resonance form.
    """
    lam1 = bands.intervals[0][0]
    mu_l = bands.intervals[-1][1]
    nontrivial = [r for r in enumerate_subresonance(bands) if not r.trivial]
    if lam1 > 2 * mu_l:
        assert not nontrivial
        return {"regime": "linear (no nontrivial sub-resonance relations)",
                "finite_smoothness": "C2 normal form for C4 data"}
    if (bands.blocks == 2
            and all(r.exponents == (0, 2) and r.target_block == 1
                    for r in nontrivial)):
        return {"regime": "2:1 quadratic resonance",
                "finite_smoothness": "C3 normal form for C6 data"}
    return {"regime": "general narrow-band" if is_narrow_band(bands)
            else "not narrow-band",
            "finite_smoothness": "unspecified"}
