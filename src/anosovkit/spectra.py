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
none raises ``JointSpectrumUnsupported``.  Any nonzero v in ker f(T) is a
cyclic vector of T there, so one exact solve against A_g v finds the only
candidate polynomial for A_g.

On the block of f an action element sigma(n) is q_n(T), q_n = prod_g
q_g^(n_g) in Q[x]/(f) (H. Cohen, GTM 138, ch. 4), so its Anosov and
root-of-unity tests read values_poly(f, q_n); no matrix power is formed.
The same arithmetic gives the log-moduli: chi(n) on the class of a root tau
of f is the LogValue log|q_n(tau)|.  Classes merge into functionals where
``LogValue.equals`` proves every log-modulus equal, and a class's minimal
polynomial is the squarefree part of values_poly(f, q_1).

The rigidity check decides its two searches with finite bounds: an Anosov
element lies in the box of radius ceil(m/2) for m nonzero functionals, and
the elements with a root-of-unity eigenvalue form one torsion lattice per
block, whose rank a nonzero interval minor of the block's log-modulus
matrix certifies (Kronecker and Dirichlet).

All yes/no answers are exact.  Enclosures only ever *separate* values;
equality and zero decisions are algebraic (power-sum constructions, gcds
and Sturm counts, cyclotomic divisibility).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from . import chambers, intpoly
from .algnum import (  # noqa: F401  (EnclosureTooWide is re-exported)
    _EPS_SCHEDULE,
    EnclosureTooWide,
    LogValue,
    UndecidedSign,
    roots,
)
from .exact import (  # noqa: F401  (the action types are re-exported)
    ActionSpec,
    ActionValidationError,
    det,
    lattice_intersection,
    mat_vec,
    nullspace,
    primitive_vector,
    solve_linear,
    validate_action,
)
from .intpoly import is_semisimple_matrix, poly_of_matrix, values_poly

_PSLQ_MAXCOEFF = 10**8   # bound on the coefficients of a PSLQ relation


class JointSpectrumUnsupported(Exception):
    """No candidate combination separates the joint eigenvalues: the action
    is not semisimple, and outside the supported range."""


# ---------------------------------------------------------------------------
# Joint spectrum machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JointEigenvalueClass:
    index: int
    moduli_log: tuple          # log|q_g(tau)|, one LogValue per generator
    dimension: int
    minimal_polynomial: tuple  # descending integer coeffs, first generator's eigenvalue

    def enclosures(self, tol: float = 1e-12):
        return tuple(lv.interval(Fraction(tol)) for lv in self.moduli_log)


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

    __slots__ = ("fT_key", "qs", "class_dim", "croots")

    def __init__(self, fT_key, qs, class_dim):
        self.fT_key = fT_key
        self.qs = qs                # per generator, descending Fraction coeffs
        self.class_dim = class_dim
        self.croots = roots(fT_key)


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
    polynomial in T (then T does not separate the joint eigenvalues).

    The first basis vector v of K has T-minimal polynomial f, which is
    irreducible, so v, Tv, ..., T^(d-1) v (d = deg f) are independent: the
    coefficients of q_g solve sum_i q_i T^i v = A_g v, and q_g is kept only
    if q_g(T) w = A_g w for every basis vector w of K.
    """
    n = len(gens[0])
    t = [[sum(cg * g[i][j] for cg, g in zip(c, gens)) for j in range(n)]
         for i in range(n)]
    blocks = []
    for fkey, e in intpoly.factor(intpoly.charpoly(t)):
        basis = nullspace(poly_of_matrix(fkey, t))
        krylov = [basis[0]]
        for _ in range(len(fkey) - 2):
            krylov.append(mat_vec(t, krylov[-1]))
        cols = [list(row) for row in zip(*krylov)]
        qs = []
        for g in gens:
            try:
                q = solve_linear(cols, mat_vec(g, basis[0]))[::-1]
            except ValueError:
                return None
            if any(_apply(q, t, w) != mat_vec(g, w) for w in basis):
                return None
            qs.append(q)
        blocks.append(_Block(fkey, qs, e))
    return blocks


def _apply(q, t, w):
    """q(t) w by Horner's rule, q descending."""
    acc = [q[0] * x for x in w]
    for c in q[1:]:
        acc = [y + c * x for y, x in zip(mat_vec(t, acc), w)]
    return acc


class _Analysis:
    """Joint-spectrum working data for one ActionSpec, for one run.

    The blocks are those of the first candidate of ``_combinations`` that
    ``_link`` accepts; classes, functionals, kernel lattices and the chamber
    geometry are computed from them on demand and kept on this object, so
    they live exactly as long as it does.
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
        self._kernels = {}

    # -- classes and action elements ----------------------------------------

    def element_values(self, a):
        """Per block, the polynomial of sigma(a)'s eigenvalues q_a(tau_j) on it;
        charpoly(sigma(a)) is their product to the class dimensions."""
        return [values_poly(block.fT_key, intpoly.power_product(block.qs, a, block.fT_key))
                for block in self.blocks]

    def is_anosov(self, a) -> bool:
        """True iff sigma(a) has no eigenvalue on the unit circle; exact."""
        return not any(map(intpoly.has_unit_circle_root, self.element_values(a)))

    # -- public products ----------------------------------------------------

    def classes(self):
        """Simultaneous eigenvalue classes with rigorous log-modulus
        enclosures: the joint spectrum.  Also sets ``block_classes``, the
        ascending class indices of each block."""
        if self._classes is not None:
            return self._classes
        # the values q_1(tau_j) over the roots of the irreducible f_b are
        # conjugates, so values_poly is a power of their minimal polynomial
        minpolys = [intpoly.squarefree_part(values_poly(block.fT_key, block.qs[0]))
                    for block in self.blocks]
        entries = []
        for b, block in enumerate(self.blocks):
            for j, root in enumerate(block.croots):
                lvs = tuple(LogValue(block.fT_key, root, q) for q in block.qs)
                sort_key = (tuple(lv.mid() for lv in lvs), minpolys[b], j, b)
                entries.append((sort_key, b, lvs, block.class_dim, minpolys[b]))
        entries.sort(key=lambda e: e[0])
        classes = []
        self.block_classes = [[] for _ in self.blocks]
        for idx, (_, b, lvs, dim, minpoly) in enumerate(entries):
            classes.append(JointEigenvalueClass(index=idx, moduli_log=lvs,
                                                dimension=dim,
                                                minimal_polynomial=minpoly))
            self.block_classes[b].append(idx)
        self._classes = classes
        assert sum(c.dimension for c in classes) == self.action.dim
        return classes

    def functionals(self):
        """Classes merged by proven-equal log-modulus vectors, sorted lex."""
        if self._functionals is not None:
            return self._functionals
        # each class joins the first representative whose log-moduli all equal
        # its own, or represents a new functional
        groups = {}
        for cls in self.classes():
            rep = next((r for r in groups
                        if all(map(LogValue.equals, r.moduli_log, cls.moduli_log))), cls)
            groups.setdefault(rep, []).append(cls)
        funcs = [LyapunovFunctional(coeffs=grp[0].moduli_log,
                                    multiplicity=sum(c.dimension for c in grp),
                                    classes=tuple(sorted(c.index for c in grp)))
                 for grp in groups.values()]

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

    def kernel(self, index: int):
        """``functional_kernel_lattice`` of functional ``index``, computed
        once: the chambers and the rigidity check both read it."""
        if index not in self._kernels:
            self._kernels[index] = functional_kernel_lattice(
                self, self.functionals()[index])
        return self._kernels[index]

    @functools.cached_property
    def grouping(self):
        """The functionals grouped into walls and coarse spaces."""
        return chambers.group_functionals(self.functionals())

    @functools.cached_property
    def chamber_arrangement(self):
        """The Weyl chambers of the grouping, or None when it has no walls."""
        grouping = self.grouping
        if not grouping.walls:
            return None
        return chambers.weyl_chambers(
            grouping, [self.kernel(wall.members[0][0])[0] for wall in grouping.walls])


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def analyze(action: ActionSpec) -> _Analysis:
    """A fresh analysis of the action, for one run: its ``classes()`` and
    ``functionals()``, and the functions below that take it, read one joint
    spectrum."""
    return _Analysis(action)


def is_semisimple(action: ActionSpec):
    """Per-generator squarefree-minimal-polynomial verdicts plus overall.

    Exact: the squarefree part of the characteristic polynomial annihilates
    the matrix iff the minimal polynomial is squarefree.
    """
    per = [is_semisimple_matrix(action.generator(i)) for i in range(action.k)]
    return {"per_generator": per, "overall": all(per)}


def is_anosov_element(action: ActionSpec, a) -> bool:
    """``analyze(action).is_anosov(a)``: True iff sigma(a) has no eigenvalue
    on the unit circle (the zero vector is not Anosov); like ``analyze``, it
    raises ``JointSpectrumUnsupported`` when the action is not semisimple."""
    if len(a) != action.k:
        raise ValueError("element length must equal the action rank")
    return analyze(action).is_anosov(a)


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


def _pslq_dps(m: int) -> int:
    """Digits for one PSLQ search among m numbers: finding or ruling out a
    relation with coefficients up to _PSLQ_MAXCOEFF takes about
    m * log10(_PSLQ_MAXCOEFF) of them (Ferguson, Bailey and Arno, Math. Comp.
    68, 1999); 26 more are margin, and 50 is the floor."""
    return max(50, m * (len(str(_PSLQ_MAXCOEFF)) - 1) + 26)


def functional_kernel_lattice(an: _Analysis, functional: LyapunovFunctional):
    """Saturated basis of {n in Z^k : chi(n) = 0}, with search metadata.

    Candidate relations come from one PSLQ call per deflation step, at the
    precision ``_pslq_dps`` of the live coordinates, on the ends of
    ``LogValue.interval`` enclosures.  Every candidate is verified exactly (the
    eigenvalue of sigma(n) on the class has squared modulus exactly 1)
    before being admitted, and the verified set is saturated; the search
    ends at the first step that finds no relation or an unverifiable one,
    which is reported, not used.  PSLQ does not prove the kernel complete:
    a missed relation leaves the block's rank certificate, or the chamber
    chirotope, undecided, never a wrong verdict.
    """
    k = an.action.k
    coeffs = functional.coeffs

    def chi_is_zero(n):
        return LogValue.combine(coeffs, n).sign() == 0

    rels = [[int(g == h) for h in range(k)] for g in range(k) if coeffs[g].is_zero()]
    live = [g for g in range(k) if not coeffs[g].is_zero()]
    meta = {"method": "pslq", "dps": 0, "maxcoeff": _PSLQ_MAXCOEFF, "unverified": []}
    # rows of C express current coordinates as rational combos of originals;
    # a single nonzero log admits no relation
    c_rows = [[Fraction(int(g == h)) for h in range(k)] for g in live]
    while len(c_rows) >= 2:
        dps = _pslq_dps(len(c_rows))
        meta["dps"] = max(meta["dps"], dps)
        logs = {g: coeffs[g].interval(Fraction(1, 10 ** (dps + 10))).lo for g in live}
        with mpmath.workdps(dps):
            vals = [mpmath.mpf(x.numerator) / x.denominator
                    for x in (sum(r * logs[g] for g, r in enumerate(row) if r)
                              for row in c_rows)]
            # a row that vanishes to PSLQ's own tolerance is itself the
            # candidate relation (PSLQ refuses such input)
            tiny = mpmath.mpf(2) ** -(mpmath.mp.prec * 3 // 4)
            zero = next((i for i, v in enumerate(vals) if abs(v) < tiny), None)
            rel = ([int(i == zero) for i in range(len(vals))] if zero is not None
                   else mpmath.pslq(vals, maxcoeff=_PSLQ_MAXCOEFF, maxsteps=int(1e4)))
        if rel is None:
            break
        cand = primitive_vector([sum(Fraction(m) * row[g] for m, row in zip(rel, c_rows))
                                 for g in range(k)])
        if not chi_is_zero(cand):
            meta["unverified"].append(list(cand))
            break
        rels.append(cand)
        pivot = max(range(len(rel)), key=lambda i: abs(rel[i]))
        piv_row = c_rows[pivot]
        pv = Fraction(rel[pivot])
        c_rows = [[row[g] - Fraction(rel[i]) / pv * piv_row[g] for g in range(k)]
                  for i, row in enumerate(c_rows) if i != pivot]
    basis = lattice_intersection([rels], k)
    verified = {tuple(v) for v in rels} | {tuple(-x for x in v) for v in rels}
    for vec in basis:
        if tuple(vec) not in verified and not chi_is_zero(vec):
            raise UndecidedSign(f"saturated kernel vector {vec} failed verification")
    return basis, meta


def check_rigidity_hypotheses(an: _Analysis) -> dict:
    """Decide the rank-two rigidity hypotheses for the toral Z^k action of
    the analysis ``an``.

    Checks a semisimple linear part, an Anosov element, and that no nonzero
    element of a Lyapunov kernel {n : chi(n) = 0} has a root-of-unity
    eigenvalue.  Every answer is exact or certified; a block whose torsion
    lattice has no rank certificate makes the verdict inconclusive.

    Anosov element.  sigma(v) is Anosov iff chi(v) != 0 for every
    functional.  A nonzero chi vanishes on at most (2r + 1)^(k-1) points of
    the box of radius r, so m nonzero functionals cannot cover it once
    2r + 1 > m: the sorted max-norm shells r = 1 ... ceil(m/2) are walked
    with the exact per-block ``_Analysis.is_anosov`` and the first hit is
    kept.  A zero functional means there is none.

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
    certifies S_b = T_b.  A violation lists the Phi_q dividing some block's
    ``element_values``, which are those dividing charpoly(sigma(n)).
    """
    action = an.action
    if action.k < 2:
        raise ValueError("the rigidity hypotheses require k >= 2")
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
        hit = next((v for v in shells if an.is_anosov(v)), None)
        if hit is None:
            raise RuntimeError(f"{len(funcs)} nonzero functionals cover the box "
                               f"of radius {bound}")
        anosov = {"found": True, "vector": list(hit), "method": "box"}
    report["anosov_element"] = anosov

    per_functional = []
    owner = {}
    for fi, func in enumerate(funcs):
        basis, meta = an.kernel(fi)
        owner.update((c, basis) for c in func.classes)
        per_functional.append({"functional_index": fi, "kernel_rank": len(basis),
                               "kernel_basis": [list(v) for v in basis],
                               "relation_search": meta})
    per_block = []
    violations = {}
    for b, classes in enumerate(an.block_classes):
        torsion = lattice_intersection([owner[c] for c in classes], k)
        per_block.append({"classes": classes, "torsion_rank": len(torsion),
                          "torsion_basis": torsion,
                          "rank_certificate": _rank_certificate(an, classes,
                                                                k - len(torsion))})
        for n in torsion:
            if tuple(n) in violations or tuple(-x for x in n) in violations:
                continue
            cyc = sorted(set().union(*map(intpoly.cyclotomic_divisors,
                                          an.element_values(n))))
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
    minor is certified at the finest width of the schedule."""
    if size == 0:
        return {"size": 0, "generators": [], "classes": []}
    minors = [(rows, cols)
              for rows in itertools.combinations(range(an.action.k), size)
              for cols in itertools.combinations(classes, size)]
    for eps in _EPS_SCHEDULE:
        for rows, cols in minors:
            d = det([[an.classes()[c].moduli_log[g].interval(eps) for c in cols]
                     for g in rows])
            if d.lo > 0 or d.hi < 0:
                return {"size": size, "generators": list(rows), "classes": list(cols)}
    return None
