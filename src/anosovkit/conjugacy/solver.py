"""Grid solver for the conjugacy equation u(Ax) = A u(x) + p(x + u(x)).

The unimodular integer matrix A permutes the N^n grid (j -> A j mod N), so
restricting the functional equation to grid points gives a finite system
whose unique small solution is the true conjugacy displacement sampled at
those points; machine precision is the only discretization error there.

Two solve modes:

- ``cycle`` (default): each outer step freezes the nonlinearity
  P = p(x + u) and solves the linear twisted equation exactly along the
  permutation cycles (stable eigendirections by forward geometric sums,
  unstable by backward ones).  Outer convergence is governed by the size
  of the perturbation, a handful of iterations in practice.
- ``transfer``: the classical one-step iteration (stable component pushed
  forward, unstable pulled back); linear convergence at the spectral-gap
  rate.  Kept as a cross-check and reference implementation.

The stable/unstable splitting comes from the eigendata of the base
matrix, not from the perturbed map; whether the base is hyperbolic and
semisimple is decided exactly, in integer arithmetic (``intpoly``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .. import intpoly
from ..exact import ActionSpec
from .perturbation import ToralPerturbation, _grid_points


class NotAnosov(ValueError):
    """The solving generator has a unit-modulus eigenvalue (exact test)."""


class Diverged(RuntimeError):
    """Residual failed to decrease (or the smallness gate refused upfront)."""


class ResolutionInsufficient(RuntimeError):
    """Spectral tail indicates the grid cannot represent the displacement."""


# The smallness gate refuses a perturbation whose displacement bound
# sup|p| / (1 - rate) reaches this size.
_SMALLNESS = 0.1


def _round_sig(x, digits: int = 12):
    """x rounded to ``digits`` significant digits (elementwise): equal values
    that differ only by roundoff compare equal after it."""
    x = np.asarray(x, dtype=np.float64)
    scale = 10.0 ** (digits - 1 - np.floor(np.log10(np.where(x > 0, x, 1.0))))
    return np.where(x > 0, np.round(x * scale) / scale, x)


def _eigendata(matrix):
    """Eigendecomposition (lam, V, V^-1) of a semisimple integer matrix.

    Semisimplicity is decided exactly (``intpoly.is_semisimple_matrix``);
    the eigenpairs come from ``numpy.linalg.eig``.  Eigenvalues are in
    ascending (|lam|, arg lam) order, with arg in (-pi, pi] and the moduli
    compared at 12 significant digits so that roundoff cannot reorder equal
    moduli.  Each eigenvector is scaled so that its last nonzero coordinate
    is 1, the convention of an exact nullspace basis, which fixes the signs
    of the real eigen-directions.
    """
    rows = [list(r) for r in matrix]
    if not intpoly.is_semisimple_matrix(rows):
        raise ValueError("solver requires a semisimple (diagonalizable) base")
    vals, vecs = np.linalg.eig(np.array(rows, dtype=np.float64))
    vals = vals.astype(np.complex128)
    mods = _round_sig(np.abs(vals))
    args = np.arctan2(vals.imag + 0.0, vals.real)    # + 0.0 turns -0.0 into 0.0
    order = np.lexsort((args, mods))
    lam = vals[order]
    v_mat = vecs.astype(np.complex128)[:, order]
    for e in range(v_mat.shape[1]):
        mag = np.abs(v_mat[:, e])
        last = np.flatnonzero(mag > 1e-10 * mag.max())[-1]
        v_mat[:, e] /= v_mat[last, e]
    return lam, v_mat, np.linalg.inv(v_mat)


def _permutation(matrix: np.ndarray, size: int) -> np.ndarray:
    n = matrix.shape[0]
    idx = np.indices((size,) * n).reshape(n, -1).astype(np.int64)
    img = (matrix @ idx) % size
    return np.ravel_multi_index(img, (size,) * n)


def _orbit_groups(perm: np.ndarray):
    """Cycle decomposition of the grid permutation ``perm``, grouped by length.

    Returns a list of (L, index_matrix) sorted by L, with index_matrix of
    shape (G, L): row g is one orbit x_0, x_1 = A x_0, ..., x_{L-1}, where
    x_0 is the orbit's smallest index, and rows are in increasing x_0.
    Cycles are found by pointer doubling with min-label propagation: after
    r rounds label[i] is the least index among the 2^r points i, A i, ...,
    and a round that changes no label means every label is its cycle's
    minimum.  That takes log2 of the longest cycle whole-array rounds.
    """
    label = np.arange(perm.shape[0], dtype=np.int64)
    jump = perm
    while True:
        new = np.minimum(label, label[jump])
        if np.array_equal(new, label):
            break
        label = new
        jump = jump[jump]
    starts = np.flatnonzero(label == np.arange(label.shape[0]))
    lengths = np.bincount(label)[starts]
    groups = []
    for length in np.unique(lengths).tolist():
        first = starts[lengths == length]
        idxmat = np.empty((first.shape[0], length), dtype=np.int64)
        idxmat[:, 0] = first
        for t in range(1, length):
            idxmat[:, t] = perm[idxmat[:, t - 1]]
        groups.append((length, idxmat))
    return groups


def _cycle_solve(groups, lam: complex, q: np.ndarray) -> np.ndarray:
    """Solve w(Ax) = lam*w(x) + q(x) along the permutation cycles.

    |lam| < 1: forward geometric sums; |lam| > 1: backward with 1/lam.
    Exact solution of the discrete linear system per cycle (two passes).
    """
    w = np.empty_like(q)
    stable = abs(lam) < 1.0
    inv = 1.0 / lam
    for length, idxmat in groups:
        qm = q[idxmat]  # (G, L)
        g = qm.shape[0]
        if stable:
            acc = np.zeros(g, dtype=q.dtype)
            for t in range(length):
                acc = lam * acc + qm[:, t]
            alpha = lam ** length
            w0 = acc / (1.0 - alpha)
            wm = np.empty_like(qm)
            wm[:, 0] = w0
            for t in range(length - 1):
                wm[:, t + 1] = lam * wm[:, t] + qm[:, t]
        else:
            acc = np.zeros(g, dtype=q.dtype)
            for t in range(length - 1, -1, -1):
                acc = inv * (acc - qm[:, t])
            alpha = inv ** length
            w_last_plus = acc / (1.0 - alpha)  # value at position 0
            wm = np.empty_like(qm)
            wm[:, 0] = w_last_plus
            for t in range(length - 1, -1, -1):
                nxt = wm[:, (t + 1) % length]
                wm[:, t] = inv * (nxt - qm[:, t])
            # position 0 recomputed consistently; keep the refreshed value
        w[idxmat] = wm
    return w


@dataclass(frozen=True)
class ConjugacyField:
    """Displacement u of h = id + u on a regular grid, with certificates.

    ``fourier`` is the spectrum of u, computed on first use and kept: the
    tail fraction, the Fourier table and the regularity probe all read it.
    The field is frozen so that the spectrum cannot go stale.
    """

    base: ActionSpec
    generator: int
    resolution: int
    u: np.ndarray                  # (N^n, n) float64
    residual: float
    iterations: int
    residual_history: list
    mode: str
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.base.dim

    def sup_u(self) -> float:
        return float(np.max(np.abs(self.u))) if self.u.size else 0.0

    def grid_points(self) -> np.ndarray:
        return _grid_points(self.dim, self.resolution)

    @functools.cached_property
    def fourier(self) -> np.ndarray:
        """Fourier coefficients of u, shape (N,) * n + (n,)."""
        return _spectrum(self.u, self.dim, self.resolution)

    def tail_fraction(self) -> float:
        """Sup-norm style weight of frequencies beyond half the Nyquist cube."""
        return _tail_fraction(self.fourier)

    def export_binary(self, path: str):
        """Row-major IEEE-754 doubles with a fixed 16-byte header.

        Layout: magic b"AKFIELD1", uint32 dim, uint32 resolution, then
        resolution^dim * dim float64 values (C order, component fastest).
        """
        with open(path, "wb") as fh:
            fh.write(b"AKFIELD1")
            fh.write(np.uint32(self.dim).tobytes())
            fh.write(np.uint32(self.resolution).tobytes())
            fh.write(np.ascontiguousarray(self.u, dtype="<f8").tobytes())

    def fourier_table(self, top: int = 64) -> list:
        """Largest Fourier modes as JSON-ready entries, deterministic order.

        Modes are sorted by magnitude rounded to 12 significant digits, then
        by flat index, so the equal-magnitude +-f pairs of a real field
        come out in the same order whatever the roundoff.
        """
        n, size = self.dim, self.resolution
        co = self.fourier
        freqs = np.fft.fftfreq(size, d=1.0 / size).astype(int)
        mags = np.abs(co).sum(axis=-1).ravel()
        order = np.argsort(-_round_sig(mags), kind="stable")[:top]
        out = []
        for flat in order:
            if mags[flat] < 1e-15:
                break
            idx = np.unravel_index(flat, (size,) * n)
            entry = {
                "freq": [int(freqs[i]) for i in idx],
                "re": [float(x) for x in co[idx].real],
                "im": [float(x) for x in co[idx].imag],
            }
            out.append(entry)
        return out


def solve_conjugacy(pert: ToralPerturbation, solving_generator: int = 0,
                    resolution: int = 256, tol: float = 1e-10,
                    max_iter: int = 10000, mode: str = "cycle") -> ConjugacyField:
    """Solve f ∘ h = h ∘ A for the chosen generator on an N^n grid.

    Raises NotAnosov (exact spectral test), Diverged (smallness gate or
    non-decreasing residual), ResolutionInsufficient (significant spectral
    tail with a residual plateau).
    """
    base = pert.base
    n = base.dim
    gen = solving_generator
    rows = base.generator(gen)
    if intpoly.has_unit_circle_root(intpoly.charpoly(rows)):
        raise NotAnosov(f"generator {gen} is not Anosov for the base action")
    lam, v_mat, w_mat = _eigendata(rows)
    rate = max(max((abs(l) for l in lam if abs(l) < 1), default=0.0),
               max((1.0 / abs(l) for l in lam if abs(l) > 1), default=0.0))
    c1 = pert.c1_norm_bound()
    # injectivity-scale gate: the displacement u is bounded by
    # sup|p|/(1-rate); refuse when that reaches _SMALLNESS, and refuse
    # when the derivative bound breaks the outer contraction.
    sup_p = max(p.sup_bound() for p in pert.perturbations)
    deriv_p = max(p.deriv_bound() for p in pert.perturbations)
    if sup_p / (1.0 - rate) >= _SMALLNESS or deriv_p >= (1.0 - rate):
        raise Diverged(
            f"perturbation too large for the smallness gate: sup bound "
            f"{sup_p:.3g}, derivative bound {deriv_p:.3g}, contraction rate "
            f"{rate:.3g} (refusing upfront rather than diverging)")
    a_int = np.array(rows, dtype=np.int64)
    a_float = a_int.astype(np.float64)
    x = _grid_points(n, resolution)
    m_pts = x.shape[0]
    perm = _permutation(a_int, resolution)
    groups = _orbit_groups(perm) if mode == "cycle" else None
    u = np.zeros_like(x)
    history = []
    iterations = 0
    stable_mask = np.abs(lam) < 1.0
    inv_perm = np.empty_like(perm)
    inv_perm[perm] = np.arange(m_pts)
    for it in range(1, max_iter + 1):
        iterations = it
        p_val = pert.p_eval(gen, x + u)
        residual = float(np.max(np.abs(u @ a_float.T + p_val - u[perm])))
        history.append(residual)
        if residual < tol:
            break
        if len(history) >= 6 and history[-1] >= history[-6] * 0.999:
            tail = _tail_fraction(_spectrum(u, n, resolution))
            if tail > 1e-6 and residual > tol:
                raise ResolutionInsufficient(
                    f"residual plateau at {residual:.3g} with spectral tail "
                    f"{tail:.3g}; increase the grid")
            raise Diverged(f"residual stopped decreasing at {residual:.3g} "
                           f"after {it} iterations")
        if mode == "cycle":
            q_all = p_val.astype(np.complex128) @ w_mat.T
            w_new = np.empty_like(q_all)
            for e in range(n):
                w_new[:, e] = _cycle_solve(groups, complex(lam[e]), q_all[:, e])
            u = np.ascontiguousarray((w_new @ v_mat.T).real)
        elif mode == "transfer":
            w_cur = u.astype(np.complex128) @ w_mat.T
            q_all = p_val.astype(np.complex128) @ w_mat.T
            w_next = np.empty_like(w_cur)
            for e in range(n):
                if stable_mask[e]:
                    # w(x) = lam*w(A^{-1}x) + q(A^{-1}x)
                    w_next[:, e] = lam[e] * w_cur[inv_perm, e] + q_all[inv_perm, e]
                else:
                    # w(x) = (w(Ax) - q(x)) / lam
                    w_next[:, e] = (w_cur[perm, e] - q_all[:, e]) / lam[e]
            u = np.ascontiguousarray((w_next @ v_mat.T).real)
        else:
            raise ValueError(f"unknown mode {mode!r}")
    field_obj = ConjugacyField(
        base=base, generator=gen, resolution=resolution,
        u=u, residual=history[-1], iterations=iterations,
        residual_history=history, mode=mode,
        meta={"tol": tol, "rate_estimate": rate, "c1_norm_bound": c1})
    if history[-1] >= tol and iterations >= max_iter:
        raise Diverged(f"no convergence after {max_iter} iterations "
                       f"(residual {history[-1]:.3g})")
    return field_obj


def _spectrum(u: np.ndarray, n: int, size: int) -> np.ndarray:
    """Fourier coefficients of a displacement u of shape (size^n, n)."""
    grid = u.reshape(*([size] * n), n)
    return np.fft.fftn(grid, axes=tuple(range(n))) / (size ** n)


def _tail_fraction(co: np.ndarray) -> float:
    """Share of the Fourier weight of the coefficients ``co`` (shape
    (size,) * n + (n,)) beyond half the Nyquist cube."""
    n, size = co.ndim - 1, co.shape[0]
    freqs = np.fft.fftfreq(size, d=1.0 / size).astype(int)
    mags = np.abs(co).sum(axis=-1)
    total = float(mags.sum())
    if total == 0.0:
        return 0.0
    mask = np.zeros((size,) * n, dtype=bool)
    for axis in range(n):
        shape = [1] * n
        shape[axis] = size
        mask |= (np.abs(freqs).reshape(shape) > size // 4)
    return float(mags[mask].sum()) / total
