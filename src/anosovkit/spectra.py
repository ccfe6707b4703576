"""Exact spectral analysis of commuting unimodular integer matrices.

A Z^k action on T^n is given by k commuting integer matrices with
determinant +-1.  This module computes the joint spectrum (simultaneous
eigenvalue classes with rigorous log-modulus enclosures), merges classes
into Lyapunov functionals, and decides the hypotheses that the rigidity
statements consume: semisimplicity, existence of Anosov elements, weak
mixing (no root-of-unity eigenvalues), and the kernel-sublattice criterion
for rank-two rigidity.

The joint spectrum is one primary decomposition: the first combination
T = sum_g c_g A_g, in a fixed order, on whose kernels ker f(T) (f an
irreducible factor of charpoly(T)) every generator is a polynomial in T.
Such a T separates the joint eigenvalues, and a semisimple action always
has one among a number of candidates bounded by n and k; an action with
none raises ``JointSpectrumUnsupported``.

The rigidity check decides its two searches with finite bounds: an Anosov
element lies in the box of radius ceil(m/2) for m nonzero functionals, and
the elements with a root-of-unity eigenvalue form one torsion lattice per
block, whose rank a nonzero interval minor of the block's log-modulus
matrix certifies (Kronecker and Dirichlet).

All yes/no answers are exact.  Enclosures only ever *separate* values;
equality and zero decisions escalate to algebraic certificates
(factorization, power-sum constructions, cyclotomic divisibility).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from . import chambers, intpoly
from .algnum import (
    _EPS_SCHEDULE,
    _REAL,
    CBox,
    EnclosureTooWide,
    LogValue,
    RealAlgebraic,
    UndecidedSign,
    eval_poly_box,
    identify_root,
    root_box,
    roots,
)
from .exact import (  # noqa: F401  (the action types are re-exported)
    ActionSpec,
    ActionValidationError,
    RInt,
    det,
    identity,
    lattice_intersection,
    mat_mul,
    mat_pow,
    nullspace,
    primitive_vector,
    saturate_lattice,
    solve_linear,
    validate_action,
)
from .intpoly import (
    composed_product_pair,
    is_semisimple_matrix,
    poly_of_matrix,
    power_poly,
    values_poly,
)


class JointSpectrumUnsupported(Exception):
    """No candidate combination separates the joint eigenvalues: the action
    is not semisimple, and outside the supported range."""


class UndecidedEquality(Exception):
    """An exact equality escalation ran out of budget (should not occur)."""


# ---------------------------------------------------------------------------
# Joint spectrum machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JointEigenvalueClass:
    index: int
    moduli_log: tuple          # one LogValue per generator
    dimension: int
    minimal_polynomial: tuple  # descending integer coeffs, first generator's eigenvalue

    def enclosures(self, tol: float = 1e-12):
        return tuple(lv.interval(tol) for lv in self.moduli_log)


@dataclass(frozen=True)
class LyapunovFunctional:
    coeffs: tuple              # one LogValue per generator
    multiplicity: int
    classes: tuple             # merged JointEigenvalueClass indices

    def is_zero_functional(self) -> bool:
        return all(lv.is_zero() for lv in self.coeffs)


class _Block:
    """One irreducible factor f of charpoly(T): the generators on K = ker f(T).

    On K every generator is q_g(T) with deg q_g < deg f, so each root of f
    is one joint eigenvalue (q_g(root))_g and its class dimension is f's
    multiplicity in charpoly(T).
    """

    __slots__ = ("fT_key", "t_k", "restr", "qs", "class_dim", "croots")

    def __init__(self, fT_key, t_k, restr, qs, class_dim):
        self.fT_key = fT_key
        self.t_k = t_k              # T restricted to K
        self.restr = restr          # per generator, its restriction to K
        self.qs = qs                # per generator, descending Fraction coeffs
        self.class_dim = class_dim
        self.croots = roots(fT_key)


def _restrict(cols, m):
    """Restriction m' of m to the column span: m @ cols == cols @ m'."""
    return solve_linear(cols, mat_mul(m, cols))


def _columns(basis_vectors):
    """Column-vector list -> matrix with those columns."""
    n = len(basis_vectors[0])
    return [[basis_vectors[j][i] for j in range(len(basis_vectors))] for i in range(n)]


def _combinations(n: int, k: int):
    """Coefficients c of the candidates T = sum_g c_g A_g, in the order tried.

    Each generator, (1,...,1), (1,...,k), (3^g), ((-1)^g), then the moment
    curve (m^g) for m = 2, 3, ...  Two distinct joint eigenvalues agree
    under T at no more than k - 1 points of the moment curve, and there are
    at most n(n - 1)/2 pairs, so (k - 1) n(n - 1)/2 + 1 moment points always
    include a T that separates them all.  Repeats are dropped.
    """
    combos = [tuple(int(g == h) for h in range(k)) for g in range(k)]
    combos += [(1,) * k, tuple(range(1, k + 1)), tuple(3 ** g for g in range(k)),
               tuple((-1) ** g for g in range(k))]
    combos += [tuple(m ** g for g in range(k))
               for m in range(2, (k - 1) * n * (n - 1) // 2 + 3)]
    return list(dict.fromkeys(combos))


def _link(gens, c):
    """The blocks of T = sum_g c_g A_g, one per irreducible factor of
    charpoly(T), or None when on some K = ker f(T) a generator is not a
    polynomial in T (then T does not separate the joint eigenvalues)."""
    n = len(gens[0])
    t = [[sum(cg * g[i][j] for cg, g in zip(c, gens)) for j in range(n)]
         for i in range(n)]
    parts = []
    for fkey, e in intpoly.factor(intpoly.charpoly(t)):
        cols = _columns(nullspace(poly_of_matrix(fkey, t)))
        t_k = _restrict(cols, t)
        restr = [_restrict(cols, g) for g in gens]
        try:
            qs = [_solve_poly_in(t_k, r, len(fkey) - 1) for r in restr]
        except ValueError:
            return None
        parts.append((fkey, t_k, restr, qs, e))
    return [_Block(*part) for part in parts]


def _solve_poly_in(t_k, r_k, deg):
    """Coefficients (descending) of q with q(t_k) == r_k, deg q < deg."""
    m = len(t_k)
    powers = [identity(m)]
    for _ in range(deg - 1):
        powers.append(mat_mul(powers[-1], t_k))
    rows = []
    rhs = []
    for i in range(m):
        for j in range(m):
            rows.append([powers[p][i][j] for p in range(deg)])
            rhs.append(r_k[i][j])
    sol = solve_linear(rows, rhs)  # raises on inconsistency
    return list(reversed(sol))  # ascending -> descending


def _power_product(mats, a):
    """prod_g mats[g]^a_g over Q, or None when a = 0."""
    acc = None
    for m, ag in zip(mats, a):
        if ag:
            p = mat_pow(m, int(ag))
            acc = p if acc is None else mat_mul(acc, p)
    return acc


def _element_poly(block: _Block, a):
    """q_a with q_a(t_k) = sigma(a) restricted to the block's K, descending."""
    r_a = _power_product(block.restr, a)
    if r_a is None:
        return [Fraction(1)]
    return _solve_poly_in(block.t_k, r_a, len(block.fT_key) - 1)


class _Analysis:
    """Joint-spectrum working data for one ActionSpec (cached).

    The blocks are those of the first candidate of ``_combinations`` that
    ``_link`` accepts; classes, functionals and the chamber geometry are
    computed from them on demand and memoized.
    """

    def __init__(self, action: ActionSpec):
        self.action = action
        gens = [action.generator(i) for i in range(action.k)]
        for c in _combinations(action.dim, action.k):
            blocks = _link(gens, c)
            if blocks:
                break
        else:
            raise JointSpectrumUnsupported(
                "no combination of the generators separates the joint "
                "eigenvalues (the action is not semisimple)")
        self.blocks = blocks
        self._classes = None
        self._functionals = None
        self._geometry = {}
        self._logcache = {}
        self._element_cache = {}

    # -- log-modulus values ------------------------------------------------

    def class_entries(self):
        """Yield (block_idx, root_idx) in deterministic order."""
        for b, block in enumerate(self.blocks):
            for j in range(len(block.croots)):
                yield (b, j)

    def logvalue(self, b: int, j: int, g: int) -> LogValue:
        key = (b, j, g)
        if key not in self._logcache:
            block = self.blocks[b]
            self._logcache[key] = _make_logvalue(block.fT_key, block.croots[j],
                                                 block.qs[g])
        return self._logcache[key]

    def element_logvalue(self, b: int, j: int, a) -> LogValue:
        """LogValue of |eigenvalue of sigma(a)| on class (b, j); exact."""
        key = (b, j, tuple(int(x) for x in a))
        if key not in self._element_cache:
            block = self.blocks[b]
            lv = LogValue.zero()
            if any(key[2]):
                lv = _make_logvalue(block.fT_key, block.croots[j],
                                    _element_poly(block, key[2]))
            self._element_cache[key] = lv
        return self._element_cache[key]

    # -- public products ----------------------------------------------------

    def classes(self):
        if self._classes is not None:
            return self._classes
        entries = []
        for b, j in self.class_entries():
            block = self.blocks[b]
            lvs = tuple(self.logvalue(b, j, g) for g in range(self.action.k))
            minpoly = _first_gen_minpoly(block, j)
            sort_key = (tuple(lv.interval(1e-12)[0] for lv in lvs), minpoly, j, b)
            entries.append((sort_key, b, j, lvs, block.class_dim, minpoly))
        entries.sort(key=lambda e: e[0])
        classes = []
        self._class_locator = []
        for idx, (_, b, j, lvs, dim, minpoly) in enumerate(entries):
            classes.append(JointEigenvalueClass(index=idx, moduli_log=lvs,
                                                dimension=dim,
                                                minimal_polynomial=minpoly))
            self._class_locator.append((b, j))
        self._classes = classes
        assert sum(c.dimension for c in classes) == self.action.dim
        return classes

    def locator(self, class_index: int):
        self.classes()
        return self._class_locator[class_index]

    def functionals(self):
        if self._functionals is not None:
            return self._functionals
        classes = self.classes()
        k = self.action.k
        groups = []
        for cls in classes:
            placed = False
            for grp in groups:
                rep = grp[0]
                try:
                    same = all(cls.moduli_log[g].equals(rep.moduli_log[g])
                               for g in range(k))
                except EnclosureTooWide as exc:
                    raise UndecidedEquality(
                        f"classes {rep.index} and {cls.index}: {exc}") from exc
                if same:
                    grp.append(cls)
                    placed = True
                    break
            if not placed:
                groups.append([cls])
        funcs = [LyapunovFunctional(coeffs=grp[0].moduli_log,
                                    multiplicity=sum(c.dimension for c in grp),
                                    classes=tuple(sorted(c.index for c in grp)))
                 for grp in groups]

        import functools

        def cmp(f1, f2):
            for a, b in zip(f1.coeffs, f2.coeffs):
                c = a.cmp(b)
                if c:
                    return c
            return 0

        funcs.sort(key=functools.cmp_to_key(cmp))
        self._functionals = funcs
        assert sum(f.multiplicity for f in funcs) == self.action.dim
        return funcs

    def _geometry_step(self, name, compute):
        """compute() once; an undecided outcome is kept as well and raised
        again, as the same exception, on every later call."""
        if name not in self._geometry:
            try:
                self._geometry[name] = (compute(), None)
            except (UndecidedSign, chambers.UndecidedProportionality,
                    EnclosureTooWide) as exc:
                self._geometry[name] = (None, exc)
        value, exc = self._geometry[name]
        if exc is not None:
            raise exc
        return value

    def grouping(self):
        """The functionals grouped into walls and coarse spaces."""
        return self._geometry_step(
            "grouping", lambda: chambers.group_functionals(self.functionals()))

    def chamber_arrangement(self):
        """The Weyl chambers of the grouping, or None when it has no walls."""
        def compute():
            grouping = self.grouping()
            return chambers.weyl_chambers(grouping) if grouping.walls else None

        return self._geometry_step("chambers", compute)


def _eigenvalue_refiner(croot, q_coeffs, enclose=lambda box: box):
    """refiner(eps): an enclosure of width <= eps of enclose(q(croot)).

    q(croot) is the eigenvalue of q(T) at the root croot of f_T; enclose
    maps its complex box to the wanted quantity (itself, or the box of its
    squared modulus).
    """
    q = [Fraction(c) for c in q_coeffs]

    def refiner(eps):
        for delta in _EPS_SCHEDULE:
            box = enclose(eval_poly_box(q, root_box(croot, delta)))
            if box.width <= eps:
                return box
        raise EnclosureTooWide("eigenvalue refinement failed")

    return refiner


def _make_logvalue(fT_key, croot, q_coeffs) -> LogValue:
    a_poly = values_poly(fT_key, q_coeffs)
    vanishing = (power_poly(a_poly, 2) if croot.is_real
                 else composed_product_pair(a_poly, a_poly))
    refiner = _eigenvalue_refiner(croot, q_coeffs, lambda box: CBox(box.modsq(), _REAL))
    return LogValue(RealAlgebraic(identify_root(vanishing, refiner, real=True)))


def _first_gen_minpoly(block: _Block, j: int) -> tuple:
    q1 = block.qs[0]
    return identify_root(values_poly(block.fT_key, q1),
                         _eigenvalue_refiner(block.croots[j], q1)).key


_ANALYSES: dict = {}


def analyze(action: ActionSpec) -> _Analysis:
    if action not in _ANALYSES:
        _ANALYSES[action] = _Analysis(action)
    return _ANALYSES[action]


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def joint_spectrum(action: ActionSpec):
    """Simultaneous eigenvalue classes with rigorous log-modulus enclosures."""
    return analyze(action).classes()


def lyapunov_functionals(action: ActionSpec):
    """Classes merged by proven-equal log-modulus vectors, sorted lex."""
    return analyze(action).functionals()


def is_semisimple(action: ActionSpec):
    """Per-generator squarefree-minimal-polynomial verdicts plus overall.

    Exact: the squarefree part of the characteristic polynomial annihilates
    the matrix iff the minimal polynomial is squarefree.
    """
    per = [is_semisimple_matrix(action.generator(i)) for i in range(action.k)]
    return {"per_generator": per, "overall": all(per)}


def is_anosov_element(action: ActionSpec, a) -> bool:
    """True iff sigma(a) has no eigenvalue on the unit circle; exact.

    The zero vector is not Anosov.  A Lyapunov exponent of sigma(a)
    vanishes iff its characteristic polynomial has a root of modulus 1,
    which ``intpoly.has_unit_circle_root`` decides in integer arithmetic;
    the conjugacy solver's NotAnosov gate makes the same test.
    """
    a = [int(x) for x in a]
    if len(a) != action.k:
        raise ValueError("element length must equal the action rank")
    if all(x == 0 for x in a):
        return False
    return not intpoly.has_unit_circle_root(intpoly.charpoly(sigma_of(action, a)))


def is_weak_mixing(matrix) -> bool:
    """Parry criterion: no eigenvalue is a root of unity; exact.

    Decided by scanning cyclotomic polynomials Phi_n with phi(n) <= dim for
    exact divisibility of the characteristic polynomial (each Phi_n is
    irreducible over Q, so divisibility is equivalent to sharing a root).
    """
    rows = [[int(x) for x in row] for row in matrix]
    p = intpoly.charpoly(rows)
    det = (-1) ** (len(p) - 1) * p[-1]
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return not intpoly.has_root_of_unity(p)


def sigma_of(action: ActionSpec, a):
    """Integer matrix of the action element sigma(a) = prod A_g^{a_g}."""
    acc = _power_product(action.generators, a) or identity(action.dim)
    return [[int(x) for x in row] for row in acc]


def functional_kernel_lattice(action: ActionSpec, functional: LyapunovFunctional,
                              dps_schedule=(50, 120, 250), maxcoeff=10**8):
    """Saturated basis of {n in Z^k : chi(n) = 0}, with search metadata.

    Candidate relations come from PSLQ at escalating precision; every
    candidate is verified exactly (the eigenvalue of sigma(n) on the class
    has squared modulus exactly 1) before being admitted, and the verified
    set is saturated.  An unverifiable candidate is reported, not used.
    """
    an = analyze(action)
    k = action.k
    b, j = an.locator(functional.classes[0])
    coeffs = functional.coeffs

    def chi_is_zero(n):
        return an.element_logvalue(b, j, n).sign() == 0

    zero_rels = [[int(g == h) for h in range(k)] for g in range(k)
                 if coeffs[g].is_zero()]
    live = [g for g in range(k) if not coeffs[g].is_zero()]
    meta = {"method": "pslq", "dps": 0, "maxcoeff": maxcoeff, "unverified": []}
    rels = list(zero_rels)
    if len(live) == 1:
        pass  # a single nonzero log admits no relation
    elif live:
        # rows of C express current coordinates as rational combos of originals
        c_rows = [[Fraction(int(g == h)) for h in range(k)] for g in live]
        while len(c_rows) >= 2:
            found = None
            for dps in dps_schedule:
                meta["dps"] = max(meta["dps"], dps)
                with mpmath.workdps(dps):
                    vals = [sum(mpmath.mpf(r.numerator) / r.denominator
                                * coeffs[g].mpf(dps) for g, r in enumerate(row) if r)
                            for row in c_rows]
                    # a row that vanishes to PSLQ's own tolerance is itself
                    # the candidate relation (PSLQ refuses such input)
                    tiny = mpmath.mpf(2) ** -(mpmath.mp.prec * 3 // 4)
                    zero = next((i for i, v in enumerate(vals) if abs(v) < tiny), None)
                    rel = ([int(i == zero) for i in range(len(vals))] if zero is not None
                           else mpmath.pslq(vals, maxcoeff=maxcoeff, maxsteps=int(1e4)))
                if rel is None:
                    continue
                cand = [sum(Fraction(m) * row[g] for m, row in zip(rel, c_rows))
                        for g in range(k)]
                cand = primitive_vector(cand)
                if chi_is_zero(cand):
                    found = (rel, cand)
                    break
                meta["unverified"].append(list(cand))
            if found is None:
                break
            rel, cand = found
            rels.append(cand)
            pivot = max(range(len(rel)), key=lambda i: abs(rel[i]))
            piv_row = c_rows[pivot]
            pv = Fraction(rel[pivot])
            c_rows = [[row[g] - Fraction(rel[i]) / pv * piv_row[g] for g in range(k)]
                      for i, row in enumerate(c_rows) if i != pivot]
    basis = saturate_lattice(rels, k) if rels else []
    for vec in basis:
        if not chi_is_zero(vec):
            raise UndecidedSign(f"saturated kernel vector {vec} failed verification")
    return basis, meta


def check_rigidity_hypotheses(action: ActionSpec) -> dict:
    """Decide the rank-two rigidity hypotheses for a toral Z^k action.

    Checks a semisimple linear part, an Anosov element, and that no nonzero
    element of a Lyapunov kernel {n : chi(n) = 0} has a root-of-unity
    eigenvalue.  Every answer is exact or certified; a block whose torsion
    lattice has no rank certificate makes the verdict inconclusive.

    Anosov element.  sigma(v) is Anosov iff chi(v) != 0 for every
    functional.  A nonzero chi vanishes on at most (2r + 1)^(k-1) points of
    the box of radius r, so m nonzero functionals cannot cover it once
    2r + 1 > m: the sorted max-norm shells r = 1 ... ceil(m/2) are walked
    with the exact ``is_anosov_element`` and the first hit is kept.  A zero
    functional means there is none.

    Roots of unity, per block b (one irreducible factor f of charpoly(T),
    with roots tau_j).  On it sigma(n) has the eigenvalues
    lambda_b(n)(tau_j) = prod_g q_g(tau_j)^(n_g), units of Q(tau).  By
    Kronecker lambda_b(n) is a root of unity iff all of them have modulus 1,
    so the bad n form T_b = ker_Z L_b with L_b[g][j] = log|q_g(tau_j)|.  T_b
    lies in the kernel of every class of b, so a violation exists iff some
    T_b != {0}.  S_b, the intersection of the verified kernel lattices of
    b's classes, is a saturated sublattice of T_b, and
    rank T_b <= k - rank_R L_b (with equality by Dirichlet's unit theorem).
    So a (k - rank S_b)-minor of L_b whose interval determinant excludes 0
    certifies S_b = T_b.
    """
    if action.k < 2:
        raise ValueError("the rigidity hypotheses require k >= 2")
    an = analyze(action)
    k = action.k
    report: dict = {"k": k, "dim": action.dim}
    report["semisimple"] = is_semisimple(action)
    funcs = an.functionals()

    anosov = {"found": False, "vector": None, "method": "zero-functional"}
    if not any(f.is_zero_functional() for f in funcs):
        bound = (len(funcs) + 1) // 2
        shells = (v for r in range(1, bound + 1)
                  for v in sorted(itertools.product(range(-r, r + 1), repeat=k))
                  if max(abs(x) for x in v) == r)
        hit = next((v for v in shells if is_anosov_element(action, v)), None)
        if hit is None:
            raise RuntimeError(f"{len(funcs)} nonzero functionals cover the box "
                               f"of radius {bound}")
        anosov = {"found": True, "vector": list(hit), "method": "box"}
    report["anosov_element"] = anosov

    per_functional = []
    owner = {}
    for fi, func in enumerate(funcs):
        basis, meta = functional_kernel_lattice(action, func)
        owner.update((c, basis) for c in func.classes)
        per_functional.append({"functional_index": fi, "kernel_rank": len(basis),
                               "kernel_basis": [list(v) for v in basis],
                               "relation_search": meta})
    per_block = []
    violations = {}
    for b in range(len(an.blocks)):
        classes = [c for c in range(len(an.classes())) if an.locator(c)[0] == b]
        torsion = lattice_intersection([owner[c] for c in classes], k)
        per_block.append({"classes": classes, "torsion_rank": len(torsion),
                          "torsion_basis": torsion,
                          "rank_certificate": _rank_certificate(an, classes,
                                                                k - len(torsion))})
        for n in torsion:
            if tuple(n) in violations or tuple(-x for x in n) in violations:
                continue
            cyc = intpoly.cyclotomic_divisors(intpoly.charpoly(sigma_of(action, n)))
            if not cyc:
                raise RuntimeError(f"torsion element {n} of block {b} has no "
                                   "root-of-unity eigenvalue")
            violations[tuple(n)] = {"element": n, "cyclotomic_indices": cyc}
    report["roots_of_unity"] = {"per_functional": per_functional,
                                "per_block": per_block,
                                "violations": list(violations.values()),
                                "pass": not violations}

    failures = []
    if not report["semisimple"]["overall"]:
        failures.append("linear part not semisimple")
    if not anosov["found"]:
        failures.append("no Anosov element found")
    if violations:
        failures.append("kernel-lattice element with root-of-unity eigenvalue")
    report["failures"] = failures
    if failures:
        report["verdict"] = "fail"
    elif any(e["rank_certificate"] is None for e in per_block):
        report["verdict"] = "inconclusive"
    else:
        report["verdict"] = "pass"
    return report


def _rank_certificate(an: _Analysis, classes, size: int):
    """A size x size minor of L_b (rows: generators, columns: the block's
    classes, entries log|q_g| at the class's root) whose interval
    determinant excludes 0, which proves rank_R L_b >= size; None if no
    minor is certified at the finest tolerance."""
    if size == 0:
        return {"size": 0, "generators": [], "classes": []}
    minors = [(rows, cols)
              for rows in itertools.combinations(range(an.action.k), size)
              for cols in itertools.combinations(classes, size)]
    for tol in (1e-12, 1e-30, 1e-60):
        for rows, cols in minors:
            d = det([[RInt(*(Fraction(x) for x in an.logvalue(*an.locator(c), g)
                             .interval(tol))) for c in cols] for g in rows])
            if d.lo > 0 or d.hi < 0:
                return {"size": size, "generators": list(rows), "classes": list(cols)}
    return None
