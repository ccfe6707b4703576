"""Exact rational arithmetic: decimal parsing, Fraction matrices, sparse
elimination and integer lattices, plus the rational intervals and sign
exceptions that the chamber path shares with ``algnum``, and
toral Z^k actions as validated data (``ActionSpec``, ``validate_action``),
which ``spectra`` re-exports and the sympy-free conjugacy lab imports from
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class EnclosureTooWide(Exception):
    """Raised when interval refinement exhausts its precision budget."""


class UndecidedSign(Exception):
    """A required sign could not be certified within the precision budget."""


def parse_rational(value) -> Fraction:
    """Parse a JSON-ish number into an exact Fraction.

    Strings and ints are exact.  Floats are accepted but converted through
    their shortest decimal repr, so ``-1.386`` means -1386/1000 and not the
    nearest binary double.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("boolean is not a number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot parse {value!r} as a rational")


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    assert len(a[0]) == m
    return [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)] for i in range(n)]


def mat_vec(a, v):
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


def identity(n, one=Fraction(1)):
    return [[one if i == j else one * 0 for j in range(n)] for i in range(n)]


def mat_pow(a, k: int):
    """Integer/rational matrix power; negative k uses exact inverse."""
    n = len(a)
    if k < 0:
        a = mat_inv(a)
        k = -k
    result = identity(n, Fraction(1))
    base = [[Fraction(x) for x in row] for row in a]
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def rref(rows, ncols: int):
    """Reduced row echelon form over Q of sparse rows, in place.

    Rows are dicts {column: nonzero Fraction}.  Pivots are taken in columns
    < ncols only (later ones carry an augmented right-hand side), each from
    the first row at or below the current one that is nonzero there.
    Returns the pivot columns; rows from len(pivots) on end up with no
    entry left of ncols.  Work is done only on nonzero entries.
    """
    pivots = []
    n = len(rows)
    r = 0
    for col in range(ncols):
        if r == n:
            break
        piv = next((i for i in range(r, n) if col in rows[i]), None)
        if piv is None:
            continue
        prow = rows[piv]
        rows[piv] = rows[r]
        inv_p = 1 / prow[col]
        if inv_p != 1:
            prow = {c: x * inv_p for c, x in prow.items()}
        rows[r] = prow
        for row in [row for row in rows if col in row and row is not prow]:
            f = row[col]
            for c, y in prow.items():
                x = row.get(c, 0) - f * y
                if x:
                    row[c] = x
                else:
                    del row[c]
        pivots.append(col)
        r += 1
    return pivots


def sparse_rows(a, rhs=()):
    """Dense matrix rows (plus optional right-hand-side rows) as rref input."""
    cols = len(a[0]) if a else 0
    out = [{j: Fraction(x) for j, x in enumerate(row) if x} for row in a]
    for row, extra in zip(out, rhs):
        row.update((cols + j, Fraction(x)) for j, x in enumerate(extra) if x)
    return out


def solve_sparse(rows, ncols: int):
    """Solve augmented sparse rows for their ncols unknowns, in place.

    Returns the first ncols reduced rows: row j holds unknown j in each
    right-hand-side column ncols + k.  Raises ValueError when inconsistent
    (checked first), ZeroDivisionError when singular.
    """
    pivots = rref(rows, ncols)
    if any(rows[i] for i in range(len(pivots), len(rows))):
        raise ValueError("inconsistent linear system")
    if len(pivots) < ncols:
        raise ZeroDivisionError("singular (underdetermined) system")
    return rows[:ncols]


def mat_inv(a):
    n = len(a)
    rows = sparse_rows(a, identity(n))
    if len(rref(rows, n)) < n:
        raise ZeroDivisionError("singular matrix")
    return [[row.get(n + j, Fraction(0)) for j in range(n)] for row in rows]


def solve_linear(a, rhs):
    """Solve a x = rhs exactly over Fractions.

    ``rhs`` may be a vector or a matrix (list of rows).  Raises
    ZeroDivisionError when singular, ValueError when inconsistent
    (overdetermined input is allowed: rows may exceed columns).
    """
    cols = len(a[0]) if a else 0
    vec = not isinstance(rhs[0], (list, tuple))
    b = [[x] for x in rhs] if vec else rhs
    sol = solve_sparse(sparse_rows(a, b), cols)
    sol = [[row.get(cols + k, Fraction(0)) for k in range(len(b[0]))] for row in sol]
    return [row[0] for row in sol] if vec else sol


def lcm_denominators(vec) -> int:
    from math import lcm

    return lcm(*[Fraction(x).denominator for x in vec]) if vec else 1


def nullspace(a):
    """Basis (list of column vectors) of the rational nullspace of a."""
    cols = len(a[0]) if a else 0
    rows = sparse_rows(a)
    pivots = rref(rows, cols)
    pivot_set = set(pivots)
    basis = []
    for fcol in range(cols):
        if fcol in pivot_set:
            continue
        v = [Fraction(0)] * cols
        v[fcol] = Fraction(1)
        for row, pcol in zip(rows, pivots):
            v[pcol] = -row.get(fcol, Fraction(0))
        basis.append(v)
    return basis


def primitive_vector(vec):
    """Scale a rational vector to a primitive integer vector (gcd 1)."""
    from math import gcd

    scale = lcm_denominators(vec)
    ints = [int(Fraction(x) * scale) for x in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return [v // g for v in ints] if g else ints


def hnf_rows(mat):
    """Row-style Hermite normal form of an integer matrix via Euclidean steps.

    Returns (H, U) with U unimodular and U @ mat == H; zero rows of H sink
    to the bottom.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    h = [[int(x) for x in row] for row in mat]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    r = 0
    for col in range(cols):
        piv = None
        for i in range(r, rows):
            if h[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        h[r], h[piv] = h[piv], h[r]
        u[r], u[piv] = u[piv], u[r]
        # euclidean elimination below the pivot
        while True:
            nonzero = [i for i in range(r + 1, rows) if h[i][col] != 0]
            if not nonzero:
                break
            for i in nonzero:
                q = h[i][col] // h[r][col]
                h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                u[i] = [a - q * b for a, b in zip(u[i], u[r])]
                if h[i][col] != 0:
                    h[r], h[i] = h[i], h[r]
                    u[r], u[i] = u[i], u[r]
        if h[r][col] < 0:
            h[r] = [-a for a in h[r]]
            u[r] = [-a for a in u[r]]
        for i in range(r):
            q = h[i][col] // h[r][col]
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                u[i] = [a - q * b for a, b in zip(u[i], u[r])]
        r += 1
        if r == rows:
            break
    return h, u


def kernel_lattice(mat):
    """Basis of {x in Z^k : x . row == 0 for every row of mat} (may be empty).

    Works for rational input rows (cleared to integers first).  Computed by
    row-reducing [mat^T | I] over Z: rows whose mat^T-part vanishes give the
    kernel basis.
    """
    rows = [primitive_vector(row) if any(Fraction(x) != 0 for x in row) else None
            for row in mat]
    rows = [r for r in rows if r is not None]
    k = len(mat[0]) if mat else 0
    if not rows:
        return [[int(i == j) for j in range(k)] for i in range(k)]
    trans = [[rows[j][i] for j in range(len(rows))] for i in range(k)]
    h, u = hnf_rows(trans)
    basis = [u[i] for i in range(k) if all(x == 0 for x in h[i])]
    return basis


def saturate_lattice(basis, k: int):
    """Saturation of the lattice spanned by integer rows inside Z^k.

    Double integer-orthogonal-complement; the saturation is the largest
    sublattice with the same rational span.
    """
    if not basis:
        return []
    comp = kernel_lattice(basis)
    if not comp:
        return [[int(i == j) for j in range(k)] for i in range(k)]
    return kernel_lattice(comp)


def lattice_intersection(bases, k: int):
    """Basis of the intersection of saturated sublattices of Z^k.

    Each lattice is given by a basis (an empty one is {0}) and is the kernel
    of its integer normals, so the intersection is the kernel of all the
    normals stacked; it is saturated too.
    """
    eye = identity(k, 1)
    normals = [n for basis in bases for n in (kernel_lattice(basis) if basis else eye)]
    return kernel_lattice(normals) if normals else eye


def det(rows):
    """Cofactor expansion along the first row, over RInt or Fraction entries
    (exact either way)."""
    if len(rows) == 1:
        return rows[0][0]
    acc = rows[0][0] * det([r[1:] for r in rows[1:]])
    for j in range(1, len(rows)):
        term = rows[0][j] * det([r[:j] + r[j + 1:] for r in rows[1:]])
        acc = acc - term if j % 2 else acc + term
    return acc


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


# ---------------------------------------------------------------------------
# Toral actions: k commuting unimodular integer matrices
# ---------------------------------------------------------------------------


class ActionValidationError(ValueError):
    """Structured rejection: all violated invariants of a would-be action."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self._format(v) for v in violations))

    @staticmethod
    def _format(v):
        kind = v[0]
        if kind == "NonCommuting":
            return f"NonCommuting({v[1]},{v[2]})"
        if kind == "NotUnimodular":
            return f"NotUnimodular({v[1]})"
        return f"ShapeMismatch({v[1:]})" if len(v) > 1 else "ShapeMismatch"


@dataclass(frozen=True)
class ActionSpec:
    """k commuting unimodular integer matrices acting on T^dim."""

    dim: int
    generators: tuple
    labels: tuple

    @property
    def k(self) -> int:
        return len(self.generators)

    def generator(self, i: int):
        return [list(row) for row in self.generators[i]]

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "generators": [[x for row in g for x in row] for g in self.generators],
            "labels": list(self.labels),
        }

    @staticmethod
    def from_json(obj: dict) -> "ActionSpec":
        dim = obj["dim"]
        mats = []
        for flat in obj["generators"]:
            if len(flat) != dim * dim:
                raise ActionValidationError([("ShapeMismatch", len(flat), dim * dim)])
            mats.append([flat[i * dim:(i + 1) * dim] for i in range(dim)])
        return validate_action(mats, labels=obj.get("labels"))


def validate_action(raw, labels=None) -> ActionSpec:
    """Check shapes, integrality, unimodularity and commutativity; all exact.

    Collects every violated invariant before rejecting.
    """
    violations = []
    if not raw:
        raise ActionValidationError([("ShapeMismatch", "empty generator list")])
    n = len(raw[0])
    mats = []
    for i, m in enumerate(raw):
        rows = [list(row) for row in m]
        if len(rows) != n or any(len(r) != len(rows) for r in rows):
            violations.append(("ShapeMismatch", i))
            continue
        if any(not isinstance(x, (int,)) and not float(x).is_integer() for r in rows for x in r):
            violations.append(("ShapeMismatch", i, "non-integer entry"))
            continue
        mats.append([[int(x) for x in r] for r in rows])
    if violations:
        raise ActionValidationError(violations)
    from .intpoly import charpoly   # intpoly imports this module

    for i, m in enumerate(mats):
        p = charpoly(m)
        det = (-1) ** n * p[-1]
        if det not in (1, -1):
            violations.append(("NotUnimodular", i))
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            ab = mat_mul(mats[i], mats[j])
            ba = mat_mul(mats[j], mats[i])
            if ab != ba:
                violations.append(("NonCommuting", i, j))
    if violations:
        raise ActionValidationError(violations)
    labels = tuple(labels) if labels else tuple(f"g{i}" for i in range(len(mats)))
    if len(labels) != len(mats):
        raise ActionValidationError([("ShapeMismatch", "labels", len(labels))])
    gens = tuple(tuple(tuple(row) for row in m) for m in mats)
    return ActionSpec(dim=n, generators=gens, labels=labels)
