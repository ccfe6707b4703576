"""Exact rational linear programming for chamber feasibility.

The only LP shape the arrangement code needs: given rational row vectors
n_i and target signs s_i, decide whether some a satisfies
s_i * <n_i, a> > 0 for all i, and produce a rational witness.  By
homogeneity this is equivalent to s_i * <n_i, a> >= 1, which phase-1
simplex (Bland's rule, Fraction arithmetic) settles exactly.
"""

from __future__ import annotations

from fractions import Fraction


def strict_sign_witness(normals, signs):
    """Rational a with signs[i] * <normals[i], a> >= 1 for all i, or None."""
    m, k = len(normals), len(normals[0])
    rows = [[Fraction(signs[i]) * Fraction(x) for x in normals[i]] for i in range(m)]
    # variables: a+ (k), a- (k), surplus (m), artificial (m)
    ncols = 2 * k + 2 * m
    tab = []
    for i in range(m):
        row = rows[i] + [-x for x in rows[i]] + [Fraction(0)] * (2 * m)
        row[2 * k + i] = Fraction(-1)
        row[2 * k + m + i] = Fraction(1)
        row.append(Fraction(1))  # rhs
        tab.append(row)
    basis = [2 * k + m + i for i in range(m)]
    # objective: minimize sum of artificials -> reduced-cost row
    obj = [Fraction(0)] * (ncols + 1)
    for i in range(m):
        obj = [o + t for o, t in zip(obj, tab[i])]

    def pivot(r, c):
        piv = tab[r][c]
        tab[r] = [x / piv for x in tab[r]]
        for i in range(m):
            if i != r and tab[i][c] != 0:
                f = tab[i][c]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[r])]
        nonlocal obj
        if obj[c] != 0:
            f = obj[c]
            obj = [x - f * y for x, y in zip(obj, tab[r])]
        basis[r] = c

    while True:
        # artificial columns never re-enter (Bland's rule on the rest)
        col = next((c for c in range(2 * k + m) if obj[c] > 0), None)
        if col is None:
            break
        ratios = [(tab[i][ncols] / tab[i][col], basis[i], i)
                  for i in range(m) if tab[i][col] > 0]
        if not ratios:
            break  # unbounded in phase 1 cannot happen, defensive
        _, _, row = min(ratios)
        pivot(row, col)

    if obj[ncols] != 0:
        return None  # artificials remain: infeasible
    sol = [Fraction(0)] * ncols
    for i, b in enumerate(basis):
        sol[b] = tab[i][ncols]
    a = [sol[j] - sol[k + j] for j in range(k)]
    assert all(s * sum(n_j * a_j for n_j, a_j in zip(n, a)) >= 1
               for n, s in zip(normals, signs))
    return a
