"""Independent checks of CLI reports.

No check imports anosovkit.  Each one recomputes what the report claims
from the op's input with its own code: mpmath eigenvalues and an exact
det(M^q - I) scan for ``analyze``, a truncated Fraction composition for
``normalform``, a brute-force relation scan for ``resonances``, closed-form
root counts for ``rootsys``, and, for ``conjugate``, the exact Fourier
coefficients of the psi families or a numpy re-evaluation of the conjugacy
equation on the dumped displacement field.

Each check raises ``OracleError`` on a mismatch and otherwise returns the
largest numeric error it measured against a reference (0.0 when the
output is exact).  ``self_test`` feeds every check deliberately corrupted
copies of a good report and fails unless each one is rejected.
"""

from __future__ import annotations

import copy
import itertools
import math
from fractions import Fraction
from functools import lru_cache

from corpus import CAT, T3_M, T3_N, det_int

EXIT_OF_VERDICT = {"pass": 0, "fail": 2, "inconclusive": 3}
MODULI_TOL = 1e-9
GRID_RESIDUAL_TOL = 1e-9
PSI_FOURIER_TOL = 1e-10


class OracleError(Exception):
    """A report disagrees with the independent reference."""


def _require(cond, msg):
    if not cond:
        raise OracleError(msg)


def check_verdict(report: dict, expected: str, exit_code: int) -> None:
    _require(report.get("verdict") == expected,
             f"verdict {report.get('verdict')!r}, expected {expected!r}")
    _require(exit_code == EXIT_OF_VERDICT[expected],
             f"exit code {exit_code} does not match verdict {expected!r}")


# -- analyze ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def _log_moduli(rows: tuple) -> tuple:
    """Sorted log|eigenvalue| of an integer matrix at 50 significant digits."""
    import mpmath

    with mpmath.workdps(60):
        eigs = mpmath.eig(mpmath.matrix([list(r) for r in rows]), left=False,
                          right=False)
        return tuple(sorted(float(mpmath.log(abs(e))) for e in eigs))


def _matpow(m, q):
    n = len(m)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(q):
        out = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in out]
    return out


def _phi(q: int) -> int:
    return sum(1 for j in range(1, q + 1) if math.gcd(j, q) == 1)


@lru_cache(maxsize=None)
def weak_mixing(rows: tuple) -> bool:
    """No root-of-unity eigenvalue: det(M^q - I) != 0 for every q with
    phi(q) <= dim (the orders a root of unity of degree <= dim can have)."""
    m = [list(r) for r in rows]
    n = len(m)
    for q in range(1, 2 * n * n + 1):   # phi(q) >= sqrt(q / 2)
        if _phi(q) > n:
            continue
        mq = _matpow(m, q)
        if det_int([[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(mq)]) == 0:
            return False
    return True


def check_analyze(report: dict, data: dict, dump=None) -> float:
    res = report["result"]
    gens = data["generators"]
    classes = res["joint_classes"]
    _require(res["dim"] == len(gens[0]) and res["k"] == len(gens), "dim/k mismatch")
    _require(sum(c["dimension"] for c in classes) == res["dim"],
             "class dimensions do not add up to dim")
    worst = 0.0
    for g, m in enumerate(gens):
        claimed = sorted(c["moduli_log"][g] for c in classes for _ in range(c["dimension"]))
        ref = _log_moduli(tuple(tuple(r) for r in m))
        err = max(abs(a - b) for a, b in zip(claimed, ref))
        _require(err <= MODULI_TOL,
                 f"generator {g}: log-moduli off the mpmath reference by {err:.3g}")
        worst = max(worst, err)
        wm = weak_mixing(tuple(tuple(r) for r in m))
        _require(res["weak_mixing_per_generator"][g] == wm,
                 f"generator {g}: weak mixing {res['weak_mixing_per_generator'][g]}, "
                 f"det(M^q - I) oracle says {wm}")
    return worst


# -- rootsys ------------------------------------------------------------------------

ROOT_COUNT = {"A": lambda n: n * (n + 1), "B": lambda n: 2 * n * n,
              "C": lambda n: 2 * n * n, "D": lambda n: 2 * n * (n - 1),
              "BC": lambda n: 2 * n * n + 2 * n}


def check_rootsys(report: dict, data: dict, dump=None) -> float:
    res = report["result"]
    typ, n = data["type"], data["rank"]
    roots = res["system"]["roots"]
    _require(len(roots) == ROOT_COUNT[typ](n), f"{len(roots)} roots for {typ}{n}")
    _require(len({tuple(r) for r in roots}) == len(roots), "duplicate roots")
    coarse = 2 * n * n if typ == "BC" else ROOT_COUNT[typ](n)
    _require(res["weyl_flow"]["coarse_spaces"] == coarse,
             f"{res['weyl_flow']['coarse_spaces']} coarse spaces, expected {coarse}")
    klass = "C6" if typ == "BC" else "C4"
    _require(res["smoothness"]["class"] == klass,
             f"smoothness {res['smoothness']['class']}, expected {klass}")
    return 0.0


# -- normal forms ----------------------------------------------------------------------

def _bands(obj):
    ivs = [(Fraction(a), Fraction(b)) for a, b in obj["intervals"]]
    return ivs, list(obj["block_dims"])


def _poly_map(obj, n):
    """coordinate -> {exponent tuple: Fraction}"""
    comps = [dict() for _ in range(n)]
    for t in obj["terms"]:
        e = tuple(t["exponents"])
        comps[t["coord"]][e] = comps[t["coord"]].get(e, 0) + Fraction(t["value"])
    return [{e: v for e, v in c.items() if v} for c in comps]


def _mul(a, b, degree):
    out = {}
    for ea, va in a.items():
        da = sum(ea)
        for eb, vb in b.items():
            if da + sum(eb) <= degree:
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + va * vb
    return {e: v for e, v in out.items() if v}


def compose(f, g, degree):
    """f(g(x)) truncated at ``degree``."""
    n = len(g)
    powers = {}

    def gpow(v, k):
        if (v, k) not in powers:
            powers[(v, k)] = g[v] if k == 1 else _mul(gpow(v, k - 1), g[v], degree)
        return powers[(v, k)]

    out = []
    for comp in f:
        acc = {}
        for expo, val in comp.items():
            term = {(0,) * n: Fraction(1)}
            for v, e in enumerate(expo):
                if e:
                    term = _mul(term, gpow(v, e), degree)
            for e, tv in term.items():
                acc[e] = acc.get(e, 0) + val * tv
        out.append({e: v for e, v in acc.items() if v})
    return out


def check_normalform(report: dict, data: dict, dump=None) -> float:
    res = report["result"]
    fobj = data["map"]
    degree = fobj["degree"]
    ivs, dims = _bands(fobj["bands"])
    n = sum(dims)
    block_of = [b for b, d in enumerate(dims) for _ in range(d)]
    _require(res["residual"] == "0", f"residual {res['residual']!r}, expected exact 0")
    f = _poly_map(fobj, n)
    h = _poly_map(res["change"], n)
    nf = _poly_map(res["normal"], n)
    for c in range(n):
        lin_h = {e: v for e, v in h[c].items() if sum(e) == 1}
        _require(lin_h == {tuple(int(v == c) for v in range(n)): 1},
                 f"change is not tangent to the identity in coordinate {c}")
        lin_f = {e: v for e, v in f[c].items() if sum(e) == 1}
        lin_n = {e: v for e, v in nf[c].items() if sum(e) == 1}
        _require(lin_f == lin_n, f"normal form changed the linear part of {c}")
        lam_i = ivs[block_of[c]][0]
        for e in nf[c]:
            if sum(e) < 2:
                continue
            s = [0] * len(dims)
            for v, ev in enumerate(e):
                s[block_of[v]] += ev
            _require(lam_i <= sum(sj * mu for sj, (_, mu) in zip(s, ivs)),
                     f"normal form keeps non-sub-resonance term {e} in {c}")
    _require(compose(h, f, degree) == compose(nf, h, degree),
             "h o F != N o h through the truncation degree")
    return 0.0


def check_resonances(report: dict, data: dict, dump=None) -> float:
    res = report["result"]
    ivs, dims = _bands(data["bands"])
    mu_l = ivs[-1][1]
    narrow = all(mu + mu_l < lam for lam, mu in ivs)
    _require(res["narrow_band"] == narrow, f"narrow_band {res['narrow_band']}, expected {narrow}")
    if not narrow:
        _require(res.get("failure_certificate") == "NotNarrowBand", "missing certificate")
        return 0.0
    ratio = ivs[0][0] / mu_l
    bound = ratio.numerator // ratio.denominator
    desc = res["descriptor"]
    _require(desc["degree_bound"] == bound, f"degree bound {desc['degree_bound']} != {bound}")
    want = set()
    blocks = len(ivs)
    for i in range(1, blocks + 1):
        for s in _exponents(blocks, bound):
            if ivs[i - 1][0] <= sum(sj * mu for sj, (_, mu) in zip(s, ivs)):
                want.add((i, s, sum(s) == 1))
    got = {(r["target_block"], tuple(r["exponents"]), r["trivial"]) for r in desc["relations"]}
    _require(got == want, f"relations differ from brute force: {sorted(got ^ want)[:4]}")
    return 0.0


def _exponents(parts, bound):
    for s in itertools.product(range(bound + 1), repeat=parts):
        if 1 <= sum(s) <= bound:
            yield s


# -- conjugate -------------------------------------------------------------------------

def read_dump(path):
    import numpy as np

    with open(path, "rb") as fh:
        raw = fh.read()
    _require(raw[:8] == b"AKFIELD1", "bad dump magic")
    dim = int(np.frombuffer(raw[8:12], "<u4")[0])
    res = int(np.frombuffer(raw[12:16], "<u4")[0])
    u = np.frombuffer(raw[16:], "<f8").reshape(res ** dim, dim)
    return u, dim, res


def trig_eval(terms, points):
    """sum_t cos_t cos(2 pi f.x) + sin_t sin(2 pi f.x); terms as JSON dicts."""
    import numpy as np

    out = np.zeros_like(points)
    for t in terms:
        phase = 2 * np.pi * (points @ np.array(t["freq"], dtype=float))
        out += np.outer(np.cos(phase), np.array(t.get("cos", [0.0] * points.shape[1])))
        out += np.outer(np.sin(phase), np.array(t.get("sin", [0.0] * points.shape[1])))
    return out


def equation_residual(u, dim, res, matrix, terms) -> float:
    """max |u(Ax) - A u(x) - p(x + u(x))| over the grid, with Ax mod 1."""
    import numpy as np

    idx = np.indices((res,) * dim).reshape(dim, -1)
    x = idx.T / res
    a = np.array(matrix, dtype=np.int64)
    img = np.ravel_multi_index((a @ idx) % res, (res,) * dim)
    lhs = u[img]
    rhs = u @ a.T.astype(float) + trig_eval(terms, x + u)
    return float(np.max(np.abs(lhs - rhs)))


def _grid_terms(data, generator):
    if "perturbation" in data:
        return data["perturbation"]["perturbations"][generator]["terms"]
    eps = data["eps"]
    if data["preset"] == "cat-sin":
        return [{"freq": [0, 1], "cos": [0.0, 0.0], "sin": [eps, 0.0]}]
    if data["preset"] == "t3-gen1-only":
        return ([{"freq": [0, 1, 1], "cos": [0.0, eps, 0.0], "sin": [eps, 0.0, eps]}]
                if generator == 0 else [])
    raise KeyError(data["preset"])


def _grid_matrix(data, generator):
    if "perturbation" in data:
        flat = data["perturbation"]["base"]["generators"][generator]
        n = data["perturbation"]["base"]["dim"]
        return [flat[i * n:(i + 1) * n] for i in range(n)]
    if data["preset"].startswith("cat"):
        return CAT
    return (T3_M, T3_N)[generator]


def check_conjugate(report: dict, data: dict, dump=None) -> float:
    res = report["result"]
    inter = res["intertwining"]
    if "q" in data:   # psi family: the exact conjugacy is psi, u = eps*q
        eps = data["eps"]
        truth = {}
        for freq, cosv, sinv in data["q"]:
            for sgn in (1, -1):
                truth[tuple(sgn * f for f in freq)] = [
                    complex(eps * c / 2, -sgn * eps * s / 2) for c, s in zip(cosv, sinv)]
        table = {tuple(e["freq"]): [complex(r, i) for r, i in zip(e["re"], e["im"])]
                 for e in res["fourier_table"]}
        _require(set(truth) <= set(table), "a mode of eps*q is missing from the table")
        worst = 0.0
        for freq, vals in table.items():
            ref = truth.get(freq, [0j] * len(vals))
            worst = max(worst, max(abs(a - b) for a, b in zip(vals, ref)))
        _require(worst <= PSI_FOURIER_TOL,
                 f"Fourier table off eps*q by {worst:.3g}")
        err = res["ground_truth_recovery_error"]
        _require(err <= PSI_FOURIER_TOL, f"recovery error {err:.3g}")
        _require(max(inter["residuals"]) < 1e-6,
                 f"intertwining residuals {inter['residuals']}")
        if "regularity" in res:   # criterion 9: the psi case is at least C1
            for d in res["regularity"]["directions"]:
                _require(d["classification"] in ("C1", "C2 or better"),
                         f"psi direction classified {d['classification']!r}")
        return err
    u, dim, grid = read_dump(dump)
    _require(grid == data["grid"], "dump has the wrong resolution")
    own = [equation_residual(u, dim, grid, _grid_matrix(data, g), _grid_terms(data, g))
           for g in range(len(inter["residuals"]))]
    _require(own[0] < GRID_RESIDUAL_TOL,
             f"solving generator residual {own[0]:.3g} (recomputed)")
    if data.get("preset") == "t3-gen1-only":   # negative control
        _require(own[1] > 1e-3 and inter["residuals"][1] > 1e-3,
                 f"control intertwines generator 1 ({own[1]:.3g})")
    else:
        _require(max(own) < GRID_RESIDUAL_TOL, f"recomputed residuals {own}")
    if data.get("preset") == "cat-sin" and "regularity" in res:
        # criterion 9: a generic rank-one perturbation is Holder, not C1
        _require(res["regularity"]["min_holder_exponent"] < 0.95,
                 "rank-one conjugacy probed as C1")
    return 0.0


def check_kind(op) -> str:
    """The subcommand, split for conjugate into its two kinds of check."""
    if op.command == "conjugate":
        return "conjugate-psi" if "q" in op.data else "conjugate-field"
    return op.command


CHECKS = {"analyze": check_analyze, "rootsys": check_rootsys,
          "normalform": check_normalform, "resonances": check_resonances,
          "conjugate": check_conjugate}


# -- self test ----------------------------------------------------------------------------

def _corruptions(command: str, report: dict, data: dict):
    """(label, corrupted report, corrupted dump or None) triples."""
    def edit(fn):
        bad = copy.deepcopy(report)
        fn(bad["result"])
        return bad

    flip = {"pass": "fail", "fail": "pass", "inconclusive": "pass"}
    bad = copy.deepcopy(report)
    bad["verdict"] = flip[bad["verdict"]]
    yield "flipped verdict", bad, None
    if command == "analyze":
        def modulus(r):
            r["joint_classes"][0]["moduli_log"][0] += 1e-6
        yield "perturbed modulus", edit(modulus), None

        def mixing(r):
            r["weak_mixing_per_generator"][0] = not r["weak_mixing_per_generator"][0]
        yield "flipped weak mixing", edit(mixing), None
    elif command == "normalform":
        yield "nonzero residual", edit(lambda r: r.update(residual="1/7")), None

        def coeff(r):
            terms = r["change"]["terms"]
            t = next((t for t in terms if sum(t["exponents"]) > 1), None)
            if t is None:
                expo = [0] * len(terms[0]["exponents"])
                expo[0] = 2
                terms.append({"coord": 0, "exponents": expo, "value": "1"})
            else:
                t["value"] = str(Fraction(t["value"]) + 1)
        yield "changed coefficient of h", edit(coeff), None
    elif command == "resonances":
        def narrow(r):
            r["narrow_band"] = not r["narrow_band"]
        yield "flipped narrow band", edit(narrow), None
        if report["result"].get("descriptor"):
            yield "dropped relation", edit(
                lambda r: r["descriptor"]["relations"].pop()), None
    elif command == "rootsys":
        def klass(r):
            r["smoothness"]["class"] = "C4" if r["smoothness"]["class"] == "C6" else "C6"
        yield "flipped smoothness class", edit(klass), None
        yield "dropped root", edit(lambda r: r["system"]["roots"].pop()), None
    elif command == "conjugate":
        if "q" in data:
            def mode(r):
                r["fourier_table"][0]["re"][0] += 1e-6
            yield "perturbed Fourier mode", edit(mode), None
            yield "recovery error", edit(
                lambda r: r.update(ground_truth_recovery_error=1e-6)), None
        else:
            yield "perturbed field", report, 1e-6


def self_test(command: str, op, report: dict, dump, exit_code: int, expected: str) -> list:
    """Labels of corruptions the check failed to reject (empty when sound)."""
    missed = []
    for label, bad, field_shift in _corruptions(command, report, op.data):
        bad_dump = dump
        if field_shift is not None:
            bad_dump = dump + ".corrupt"
            u, dim, grid = read_dump(dump)
            with open(dump, "rb") as fh:
                header = fh.read(16)
            with open(bad_dump, "wb") as fh:
                fh.write(header + (u + field_shift).astype("<f8").tobytes())
        try:
            check_verdict(bad, expected, exit_code)
            CHECKS[command](bad, op.data, bad_dump)
        except (OracleError, KeyError, IndexError, TypeError, ValueError):
            continue
        missed.append(label)
    return missed
