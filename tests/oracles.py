"""Independent oracles that the tests compare the package against.

Each one recomputes a result by brute force and shares no helper with the
code under test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from anosovkit.resonance import SpectrumBands, SubResonanceRelation, degree_bound


def reflection_closure_oracle(type_label: str, rank: int):
    """Brute-force root generation by reflection closure from simple roots.

    Independent oracle for tests (rank <= 4): reflect the simple-root set
    repeatedly in all known roots until closed, in the natural Euclidean
    realization (A_n in R^{n+1}); A-type results are converted to the
    simple-root coordinates used by build_root_system.  BC is not generated
    by reflections alone (non-reduced); it is the reflection closure of B
    plus the doubles of the short roots, by definition of the type.
    """
    type_label = type_label.upper()
    base = "B" if type_label == "BC" else type_label
    simple = _simple_roots_natural(base, rank)
    roots = set(simple) | {tuple(-x for x in r) for r in simple}
    changed = True
    while changed:
        changed = False
        for alpha in list(roots):
            aa = sum(x * x for x in alpha)
            for beta in list(roots):
                scal = 2 * sum(a * b for a, b in zip(alpha, beta))
                coeff = Fraction(scal, aa)
                refl = tuple(b - coeff * a for a, b in zip(alpha, beta))
                if refl not in roots:
                    roots.add(refl)
                    changed = True
    if type_label == "BC":
        roots |= {tuple(2 * x for x in r) for r in roots
                  if sum(1 for x in r if x != 0) == 1
                  and max(abs(x) for x in r) == 1}
    if type_label == "A":
        # epsilon realization -> simple-root coordinates via partial sums
        roots = {tuple(sum(r[:t + 1]) for t in range(rank)) for r in roots}
    return sorted(roots)


def _simple_roots_natural(type_label: str, rank: int):
    n = rank

    def vec(entries):
        return tuple(Fraction(x) for x in entries)

    if type_label == "A":
        return [vec([int(t == i) - int(t == i + 1) for t in range(n + 1)])
                for i in range(n)]
    simple = []
    for i in range(n - 1):
        simple.append(vec([int(t == i) - int(t == i + 1) for t in range(n)]))
    if type_label == "B":
        simple.append(vec([int(t == n - 1) for t in range(n)]))
    elif type_label == "C":
        simple.append(vec([2 * int(t == n - 1) for t in range(n)]))
    elif type_label == "D":
        simple.append(vec([int(t == n - 2) + int(t == n - 1) for t in range(n)]))
    return simple


def brute_force_relations(bands: SpectrumBands, extra_degree: int = 2):
    """Oracle: scan ALL multi-indices with 1 <= |s| <= degree_bound + extra_degree.

    Used by tests to confirm the degree bound loses nothing; the margin must
    produce no additional relations.  A plain scan of the whole box
    {0..bound}^l with the inequality written out, so it shares no helper
    with ``enumerate_subresonance``.
    """
    bound = degree_bound(bands) + extra_degree
    mus = [mu for _, mu in bands.intervals]
    out = []
    for i, (lam_i, _) in enumerate(bands.intervals, start=1):
        for s in itertools.product(range(bound + 1), repeat=len(mus)):
            if 1 <= sum(s) <= bound and lam_i <= sum(sj * mu for sj, mu in zip(s, mus)):
                out.append(SubResonanceRelation(target_block=i, exponents=s,
                                                trivial=sum(s) == 1))
    out.sort(key=lambda r: (r.target_block, r.exponents))
    return out


def svd_rank(rows) -> int:
    """Numerical rank of float rows: the singular values above 1e-9."""
    import numpy as np

    return int((np.linalg.svd(np.array(rows, dtype=float), compute_uv=False) > 1e-9).sum())


def zaslavsky_region_count(normals, rank=svd_rank) -> int:
    """Regions of the central arrangement of the hyperplanes with these
    nonzero normals (repeats allowed), by Zaslavsky's theorem: the sum over
    subsets S of (-1)^(|S| - rank S).  A plain subset scan that shares no
    helper with the chamber enumeration."""
    total = 0
    for size in range(len(normals) + 1):
        for subset in itertools.combinations(normals, size):
            total += (-1) ** (size - (rank(subset) if subset else 0))
    return total


def report_region_count(result: dict) -> int:
    """``zaslavsky_region_count`` of the nonzero functionals of an ``analyze``
    report, from their float coefficients."""
    return zaslavsky_region_count([f["coeffs"] for f in result["lyapunov_functionals"]
                                   if any(f["coeffs"])])


def reference_cycle_conjugacy(pert, generator: int, resolution: int, tol: float,
                              max_iter: int = 100):
    """Displacement u of the grid conjugacy by the complex per-eigencomponent
    cycle solve the solver used to run.

    Each outer step freezes P = p(x + u), maps it to the eigen-coordinates of
    A in complex128, and solves w_e(Ax) = lam_e w_e(x) + q_e(x) one component
    at a time along every permutation cycle (Horner's sum for the start
    value, then the recursion: forward for |lam| < 1, backward for
    |lam| > 1).  The grid, the permutation, the cycles and the eigendata are
    rebuilt here from numpy primitives and a plain Python cycle walk.
    """
    import numpy as np

    a_int = np.array(pert.base.generator(generator), dtype=np.int64)
    n = a_int.shape[0]
    idx = np.indices((resolution,) * n).reshape(n, -1)
    x = (idx.T / resolution).astype(np.float64)
    perm = np.ravel_multi_index((a_int @ idx) % resolution, (resolution,) * n)
    lam, v_mat = np.linalg.eig(a_int.astype(np.float64))
    v_mat = v_mat.astype(np.complex128)
    w_mat = np.linalg.inv(v_mat)
    cycles = []
    seen = np.zeros(perm.shape[0], dtype=bool)
    for s in range(perm.shape[0]):
        cyc = []
        j = s
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = perm[j]
        if cyc:
            cycles.append(cyc)
    groups = {}
    for cyc in cycles:
        groups.setdefault(len(cyc), []).append(cyc)
    groups = [np.array(rows, dtype=np.int64) for _, rows in sorted(groups.items())]

    def cycle_solve(lam_e, q):
        w = np.empty_like(q)
        for idxmat in groups:
            qm = q[idxmat]
            length = qm.shape[1]
            acc = np.zeros(qm.shape[0], dtype=q.dtype)
            wm = np.empty_like(qm)
            if abs(lam_e) < 1.0:
                for t in range(length):
                    acc = lam_e * acc + qm[:, t]
                wm[:, 0] = acc / (1.0 - lam_e ** length)
                for t in range(length - 1):
                    wm[:, t + 1] = lam_e * wm[:, t] + qm[:, t]
            else:
                inv = 1.0 / lam_e
                for t in range(length - 1, -1, -1):
                    acc = inv * (acc - qm[:, t])
                wm[:, 0] = acc / (1.0 - inv ** length)
                for t in range(length - 1, -1, -1):
                    wm[:, t] = inv * (wm[:, (t + 1) % length] - qm[:, t])
            w[idxmat] = wm
        return w

    u = np.zeros_like(x)
    for _ in range(max_iter):
        p_val = pert.p_eval(generator, x + u)
        if np.max(np.abs(u @ a_int.T.astype(np.float64) + p_val - u[perm])) < tol:
            return u
        q_all = p_val.astype(np.complex128) @ w_mat.T
        w_new = np.empty_like(q_all)
        for e in range(n):
            w_new[:, e] = cycle_solve(complex(lam[e]), q_all[:, e])
        u = np.ascontiguousarray((w_new @ v_mat.T).real)
    raise RuntimeError(f"reference solve did not reach {tol} in {max_iter} steps")
