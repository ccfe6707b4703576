"""Seeded inputs for the benchmark workloads.

Every op has an id that does not depend on the seed; the seed only picks
the values inside the inputs (units of the real fields, a change of basis,
normal-form coefficients, the frequencies of the JSON perturbation).  The
committed expectation of each op lives in ``expected.json`` under its id.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("spectral", "normal-forms", "grid")


@dataclass
class Op:
    id: str
    command: str                 # CLI subcommand
    args: list                   # CLI arguments after the subcommand
    files: dict = field(default_factory=dict)   # input name -> JSON object
    data: dict = field(default_factory=dict)    # what the oracle needs
    dump: bool = False           # ask the CLI for the binary displacement dump


def _rng(seed: int, op_id: str) -> random.Random:
    return random.Random(f"{seed}:{op_id}")


# -- integer matrices ----------------------------------------------------------

def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def det_int(m) -> int:
    """Bareiss fraction-free determinant of an integer matrix."""
    a = [row[:] for row in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def companion(monic):
    """Companion matrix of x^n + c_1 x^(n-1) + ... + c_n (descending coeffs)."""
    n = len(monic) - 1
    m = [[0] * n for _ in range(n)]
    for i in range(1, n):
        m[i][i - 1] = 1
    for i in range(n):
        m[i][n - 1] = -monic[n - i]
    return m


def direct_sum(a, b):
    n, m = len(a), len(b)
    out = [[0] * (n + m) for _ in range(n + m)]
    for i in range(n):
        out[i][:n] = a[i]
    for i in range(m):
        out[n + i][n:] = b[i]
    return out


def _base_change(rng, n):
    """A unimodular P (two random transvections) and its inverse."""
    p, p_inv = identity(n), identity(n)
    for _ in range(2):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        e, e_inv = identity(n), identity(n)
        e[i][j], e_inv[i][j] = s, -s
        p, p_inv = mat_mul(p, e), mat_mul(e_inv, p_inv)
    return p, p_inv


def _action(op_id, gens, rng):
    n = len(gens[0])
    p, p_inv = _base_change(rng, n)
    mats = [mat_mul(mat_mul(p, g), p_inv) for g in gens]
    obj = {"dim": n, "generators": [[x for row in m for x in row] for m in mats]}
    return Op(op_id, "analyze", ["--input", "{dir}/%s.json" % op_id],
              files={op_id: obj}, data={"generators": mats})


# -- spectral -------------------------------------------------------------------

CAT = [[2, 1], [1, 1]]
T3_M = [[0, 0, -1], [1, 0, 2], [0, 1, 1]]
T3_N = [[x - 2 * (i == j) for j, x in enumerate(row)]
        for i, row in enumerate(mat_mul(T3_M, T3_M))]

# Totally real fields: cyclic cubic, Q(sqrt2, sqrt3), and the maximal real
# subfields of the 11th and 13th cyclotomic fields.
REAL_FIELDS = {
    3: (1, 0, -3, 1),
    4: (1, 0, -4, 0, 1),
    5: (1, 1, -4, -3, 3, 1),
    6: (1, 1, -5, -4, 6, 3, -1),
}
SALEM = (1, -1, -1, -1, 1)
ROOTSYS = (("A", 3), ("BC", 3), ("D", 4), ("C", 3))


def _unit_candidates(poly):
    """Units q(C) of the companion C of ``poly`` with small coefficients
    (|det| = 1, at least two nonzero coefficients): (coefficients, matrix)
    pairs, the 8 with the smallest entries, so that every seed picks units of
    about the same size and the ops cost about the same."""
    c = companion(poly)
    n = len(c)
    span = range(-2, 3) if n <= 4 else range(-1, 2)
    powers = [identity(n)]
    for _ in range(n - 1):
        powers.append(mat_mul(powers[-1], c))
    out = []
    for coeffs in itertools.product(span, repeat=n):
        if sum(1 for x in coeffs if x) < 2:
            continue
        m = [[sum(q * p[i][j] for q, p in zip(coeffs, powers)) for j in range(n)]
             for i in range(n)]
        if abs(det_int(m)) == 1:
            out.append((coeffs, m))
    out.sort(key=lambda cm: (max(abs(x) for row in cm[1] for x in row), cm))
    return out[:8]


def _independent_units(poly, k, rng):
    """C plus k - 1 seed-picked units, multiplicatively independent while the
    unit rank allows it, then dependent ones."""
    import numpy as np

    roots = np.roots(poly)   # one fixed order of the embeddings

    def log_embedding(coeffs):
        return np.log(np.abs(np.polyval(list(coeffs)[::-1], roots)))

    n = len(poly) - 1
    chosen = [(tuple(int(i == 1) for i in range(n)), companion(poly))]
    cands = _unit_candidates(poly)
    rng.shuffle(cands)
    for cm in cands:
        if len(chosen) == k:
            break
        rows = np.array([log_embedding(q) for q, _ in chosen + [cm]])
        if np.linalg.matrix_rank(rows, tol=1e-8) == len(chosen) + 1:
            chosen.append(cm)
    for cm in cands:
        if len(chosen) == k:
            break
        if cm not in chosen:
            chosen.append(cm)
    return [m for _, m in chosen]


def spectral_ops(seed: int) -> list:
    ops = []

    def add(op_id, gens):
        ops.append(_action(op_id, gens, _rng(seed, op_id)))

    add("cat", [CAT])
    add("t3-pair", [T3_M, T3_N])
    for n, poly in REAL_FIELDS.items():
        for k in (1, 2, 3):
            op_id = f"real-d{n}-k{k}"
            add(op_id, _independent_units(poly, k, _rng(seed, op_id + "/units")))
    add("blockdiag-t6", [direct_sum(T3_M, T3_M), direct_sum(T3_N, T3_M)])
    s = companion(SALEM)
    add("salem4-k2", [s, [[x - (i == j) for j, x in enumerate(r)] for i, r in enumerate(s)]])
    add("cat-rotation", [direct_sum(CAT, [[0, -1], [1, 0]])])
    add("phi3", [[[0, -1], [1, -1]]])
    for n in (3, 4, 5):
        c = companion((1,) + (0,) * (n - 2) + (-1, -1))
        units = [c, [[x - (i == j) for j, x in enumerate(r)] for i, r in enumerate(c)],
                 [[x + (i == j) for j, x in enumerate(r)] for i, r in enumerate(c)]]
        for k in (1, 2, 3):
            add(f"offcircle-n{n}-k{k}", units[:k])
    add("shear", [[[1, 1], [0, 1]]])
    power = _rng(seed, "cat-dependent/power").choice((2, 3))
    cat_pow = CAT
    for _ in range(power - 1):
        cat_pow = mat_mul(cat_pow, CAT)
    add("cat-dependent", [CAT, cat_pow])
    for typ, rank in ROOTSYS:
        ops.append(Op(f"rootsys-{typ}{rank}", "rootsys",
                      ["--type", typ, "--rank", str(rank)],
                      data={"type": typ, "rank": rank}))
    return ops


# -- normal forms -----------------------------------------------------------------

# (block dims, truncation degree); the (3,3,3) degree-5 op is the dense-solve one
NF_SHAPES = (((1, 1, 1), 3), ((1, 1, 1), 5), ((2, 1, 1), 4), ((2, 2, 1), 4),
             ((2, 2, 2), 4), ((3, 3, 3), 5))
BASE_RATES = (Fraction(1, 2), Fraction(2, 5), Fraction(3, 5), Fraction(1, 3))


def _log_rational(x: float) -> Fraction:
    return Fraction(round(math.log(x) * 10**6), 10**6)


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _bands_json(lams, dims):
    return {"intervals": [[_fmt(l), _fmt(l)] for l in lams],
            "block_dims": list(dims)}


def _contraction(op_id, seed, dims, degree, r=Fraction(1, 2)):
    """Diagonal rates r^3, r^2, r (exact 3:2:1 log resonances) plus n
    nonlinear terms.  The monomials and the coefficient magnitudes are fixed
    per op and the seed picks every sign: the support sets which homological
    systems get solved, and the magnitudes and the rate set the size of the
    rationals in them, which together make up the cost."""
    rng, shape = _rng(seed, op_id), _rng(0, op_id + "/support")
    lam3 = _log_rational(float(r))
    lams = [3 * lam3, 2 * lam3, lam3]
    rates = [r ** 3, r ** 2, r]
    n = sum(dims)
    terms = []
    coord = 0
    for block, d in enumerate(dims):
        for _ in range(d):
            sign = rng.choice((1, -1)) if d > 1 else 1
            expo = [0] * n
            expo[coord] = 1
            terms.append({"coord": coord, "exponents": expo,
                          "value": _fmt(sign * rates[block])})
            coord += 1
    support = {}
    while len(support) < n:
        expo = [0] * n
        for _ in range(shape.randint(2, degree)):
            expo[shape.randrange(n)] += 1
        support[(shape.randrange(n), tuple(expo))] = Fraction(shape.randint(1, 3),
                                                              shape.randint(1, 3))
    for (c, expo), size in sorted(support.items()):
        terms.append({"coord": c, "exponents": list(expo),
                      "value": _fmt(rng.choice((-1, 1)) * size)})
    return {"bands": _bands_json(lams, dims), "degree": degree, "terms": terms}


def normal_form_ops(seed: int) -> list:
    ops = []
    for dims, degree in NF_SHAPES:
        op_id = "nf-%s-d%d" % ("".join(map(str, dims)), degree)
        obj = _contraction(op_id, seed, dims, degree)
        ops.append(Op(op_id, "normalform",
                      ["--input", "{dir}/%s.json" % op_id, "--degree", str(degree)],
                      files={op_id: obj}, data={"map": obj}))
    rng = _rng(seed, "res-2to1")
    lam2 = _log_rational(float(rng.choice(BASE_RATES)))
    bands = {"res-2to1": _bands_json([2 * lam2, lam2], (1, 1))}
    rng = _rng(seed, "res-3band")
    lam3 = _log_rational(float(rng.choice(BASE_RATES)))
    bands["res-3band"] = _bands_json([3 * lam3, 2 * lam3, lam3],
                                     [rng.randint(1, 3) for _ in range(3)])
    # not narrow: mu_1 + mu_2 >= lambda_1, so the expected verdict is fail
    rng = _rng(seed, "res-wide")
    lo = Fraction(-rng.randint(90, 110), 100)
    bands["res-wide"] = {"intervals": [[_fmt(lo), _fmt(lo / 2)],
                                       [_fmt(lo * 2 / 5), _fmt(lo / 4)]],
                         "block_dims": [1, 1]}
    for op_id, obj in bands.items():
        ops.append(Op(op_id, "resonances", ["--input", "{dir}/%s.json" % op_id],
                      files={op_id: obj}, data={"bands": obj}))
    return ops


# -- grid -------------------------------------------------------------------------

# q of the CLI's psi presets, restated here: for them the exact conjugacy is
# psi = id + eps*q, which the oracle checks the solved field against.
PRESET_Q = {
    "psi-cat": [((1, 0), (0.15, 0.05), (0.2, 0.1)),
                ((1, 1), (0.1, -0.15), (0.0, 0.12))],
    "psi-t3": [((1, 0, 0), (0.08, 0.04, -0.05), (0.1, 0.0, 0.06)),
               ((0, 1, 1), (0.0, 0.06, 0.03), (-0.04, 0.08, 0.0))],
}
GRID_TOL = "1e-13"


def _json_perturbation(rng, terms=24):
    """A k = 1 base on T^3 with ``terms`` seeded frequencies, small enough for
    the solver's smallness gate."""
    freqs = set()
    while len(freqs) < terms:
        f = tuple(rng.randint(-2, 2) for _ in range(3))
        if any(f) and tuple(-x for x in f) not in freqs:
            freqs.add(f)
    out = []
    for f in sorted(freqs):
        out.append({"freq": list(f),
                    "cos": [round(rng.uniform(-1, 1) * 1e-4, 8) for _ in range(3)],
                    "sin": [round(rng.uniform(-1, 1) * 1e-4, 8) for _ in range(3)]})
    return {"base": {"dim": 3, "generators": [[x for row in T3_M for x in row]]},
            "perturbations": [{"terms": out}]}


def grid_ops(seed: int) -> list:
    def preset(op_id, name, grid, *extra, eps=None, dump=False, data=None):
        args = ["--preset", name, "--grid", str(grid), "--tol", GRID_TOL]
        if eps is not None:
            args += ["--eps", str(eps)]
        return Op(op_id, "conjugate", args + list(extra),
                  data=dict(data or {}, preset=name, grid=grid), dump=dump)

    ops = [
        preset("psi-t3-64", "psi-t3", 64, eps=0.005,
               data={"q": PRESET_Q["psi-t3"], "eps": 0.005}),
        preset("control-t3-64", "t3-gen1-only", 64, "--probe", eps=0.005, dump=True,
               data={"eps": 0.005}),
        preset("psi-cat-256", "psi-cat", 256, "--probe",
               data={"q": PRESET_Q["psi-cat"], "eps": 0.01}),
        preset("cat-sin-512-probe", "cat-sin", 512, "--probe", dump=True,
               data={"eps": 0.01}),
        preset("cat-sin-512-transfer", "cat-sin", 512, "--mode", "transfer",
               dump=True, data={"eps": 0.01}),
    ]
    obj = _json_perturbation(_rng(seed, "json-t3-64"))
    ops.append(Op("json-t3-64", "conjugate",
                  ["--input", "{dir}/json-t3-64.json", "--grid", "64", "--tol", GRID_TOL],
                  files={"json-t3-64": obj}, data={"perturbation": obj, "grid": 64},
                  dump=True))
    return ops


def warmup_op(workload: str, ops: list) -> Op:
    """A cheap op that loads what the workload's ops load; run untimed first
    so bytecode and page caches are warm."""
    if workload == "grid":
        return Op("warmup", "conjugate",
                  ["--preset", "psi-cat", "--grid", "32", "--tol", GRID_TOL])
    return ops[0]


def build(workload: str, seed: int) -> list:
    if workload == "spectral":
        return spectral_ops(seed)
    if workload == "normal-forms":
        return normal_form_ops(seed)
    if workload == "grid":
        return grid_ops(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
