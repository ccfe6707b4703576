"""Independent oracles that the tests compare the package against.

Each one recomputes a result by brute force and shares no helper with the
code under test, except where its docstring names one.
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


def sigma_matrix(action, n):
    """The action element sigma(n) = prod_g A_g^(n_g) as a sympy integer
    matrix, by sympy's matrix powers (a negative one inverts A_g).
    ``action``: an ``ActionSpec`` or its list of generator matrices."""
    import sympy

    gens = getattr(action, "generators", action)
    m = sympy.eye(len(gens[0]))
    for g, x in zip(gens, n):
        m *= sympy.Matrix(g) ** int(x)
    return m


def root_of_unity_elements(action, radius: int):
    """The n != 0 of the box of radius ``radius``, one of each pair +-n, with
    det(sigma(n)^q - I) = 0 for some q with phi(q) <= dim: those where
    sigma(n) has a root-of-unity eigenvalue (of degree <= dim, so of such an
    order q).  sigma(-n) = sigma(n)^-1 has the same roots of unity."""
    import sympy
    from sympy.polys.matrices import DomainMatrix

    gens = getattr(action, "generators", action)
    dim = len(gens[0])
    orders = [q for q in range(1, 2 * dim * dim + 1) if sympy.totient(q) <= dim]
    one = DomainMatrix.eye(dim, sympy.ZZ)
    found = []
    for n in itertools.product(range(-radius, radius + 1), repeat=len(gens)):
        if n > (0,) * len(n):
            s = DomainMatrix.from_Matrix(sigma_matrix(gens, n))
            if any((s ** q - one).det() == 0 for q in orders):
                found.append(n)
    return found


def mp_eigenvalues(m):
    """The eigenvalues of the integer matrix m by mpmath, at 60 digits more
    than its largest entry has."""
    import mpmath

    digits = max(len(str(abs(x))) for row in m for x in row)
    with mpmath.workdps(60 + digits):
        return mpmath.eig(mpmath.matrix(m), left=False, right=False)


def near_root_of_unity(z, dim):
    """Whether z is within 1e-30 of a root of unity of degree <= dim."""
    # such a root has order q with phi(q) <= dim, so q <= 2 dim^2
    return any(abs(z ** q - 1) < 1e-30 for q in range(1, 2 * dim * dim + 1))


def lapack_eigendata(matrix):
    """(lam, V, V^-1) of a semisimple integer matrix by LAPACK
    (``numpy.linalg.eig`` and ``inv``), in the solver's order and scaling:
    ascending (|lam| at 12 significant digits, arg lam), each eigenvector's
    last coordinate above 1e-10 of its largest made 1."""
    import numpy as np

    vals, vecs = np.linalg.eig(np.array(matrix, dtype=np.float64))
    vals = vals.astype(np.complex128)
    mods = np.abs(vals)
    mods = np.array([float(f"{x:.11e}") for x in mods])
    order = np.lexsort((np.arctan2(vals.imag + 0.0, vals.real), mods))
    v_mat = vecs.astype(np.complex128)[:, order]
    for e in range(v_mat.shape[1]):
        mag = np.abs(v_mat[:, e])
        v_mat[:, e] /= v_mat[np.flatnonzero(mag > 1e-10 * mag.max())[-1], e]
    return vals[order], v_mat, np.linalg.inv(v_mat)


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


def maximal_intersections_by_exact_signs(arrangement):
    """The maximal-intersection report with every functional's sign at every
    stable-intersection element decided afresh by ``exact_sign_at``, the
    reference for ``check_maximal_intersections``, which reads those signs
    from the chambers' sign vectors.  The wall element and the choice of
    chamber are the code's own; only the sign decisions are independent."""
    from anosovkit.chambers import _wall_element, exact_sign_at, find_regular_element

    grouping = arrangement.grouping
    coeffs = grouping.coeffs
    wall_of = {i: (w_idx, 1 if c > 0 else -1)
               for w_idx, wall in enumerate(grouping.walls) for i, c in wall.members}
    nonzero_idx = sorted(wall_of)
    report = {"k": grouping.k, "spaces": [], "pass": True,
              "ergodicity_clause": "NOT verified combinatorially; supply the "
                                   "weak-mixing certificate or assert it"}
    for space in grouping.coarse_spaces:
        members = set(space.halfspace.member_functionals)
        w_bot, o_bot = wall_of[space.bottom]
        wall_elt, wall_exact = _wall_element(coeffs[space.bottom],
                                             arrangement.kernels[w_bot])
        b_set = []
        covered = set(members)
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
        inter = set(nonzero_idx)
        for b in b_set:
            inter &= {i for i in nonzero_idx if exact_sign_at(coeffs[i], b) < 0}
        ok = (inter == members) if b_set else (set(nonzero_idx) == members)
        report["spaces"].append({
            "bottom": space.bottom,
            "members": sorted(members),
            "wall_element": [float(x) for x in wall_elt],
            "wall_element_exact": wall_exact,
            "stable_intersection_elements": [list(b) for b in b_set],
            "intersection_equals_members": bool(ok),
        })
        if not ok:
            report["pass"] = False
    return report
