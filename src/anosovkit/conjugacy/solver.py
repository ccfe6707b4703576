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

The linear step works in the eigen-coordinates w = V^-1 u, where the
frozen equation reads w_e(Ax) = lam_e w_e(x) + q_e(x) with q = V^-1 P:

- The components are split once into a stable side (|lam| < 1) and an
  unstable side, which runs backward as w = w(A .)/lam - q/lam.  Each
  iteration does one matmul P W_side^T per side and sums
  u = sum w_side V_side^T.
- When every eigenvalue of A is real (the cat map, the T^3 pair), lam, V
  and V^-1 are real and the step runs in float64; a complex pair makes the
  same code run in complex128.  The dtype follows V^-1.  Either way the sum
  u = Re sum w_side V_side^T is a real matmul written into a float64
  buffer: a complex w is read as its interleaved real and imaginary parts.
- The solve keeps a fixed set of whole-grid arrays: the points x, the
  iterate u, one buffer that holds x + u while p is evaluated and then
  receives the next iterate, the values of p, and the permutation with its
  cycle plan.  Nothing else of grid size outlives the step that made it.
- ``cycle`` builds one plan per solve: the cycles in position-major order
  for each cycle length, so row t of a length group holds x_t of every
  orbit and each recursion step reads and writes one contiguous row.  Each
  side is gathered into that order with one ``np.take`` and back with
  another; ``np.take`` along axis 0 is several times faster than fancy
  indexing of (M, n) rows.
- The points x + u at which p is evaluated stay in grid order.  numpy's
  cos and sin take about 16 ns per element on the smooth arguments of the
  grid against about 28 ns in cycle order (64^3 grid, 2-vCPU Xeon), so
  relabelling the whole grid into cycle order would slow the trig
  evaluation by more than the gathers it saves.

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

# Rows per block of _defect_sup: its defect and gathered rows stay small
# whatever the grid size.
_DEFECT_ROWS = 1 << 14


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


def _defect_sup(u: np.ndarray, p_val: np.ndarray, a_float: np.ndarray,
                perm: np.ndarray) -> float:
    """sup over the grid of |A u(x) + p(x + u(x)) - u(Ax)|, with p_val the
    values of p at x + u and perm the grid permutation of A.  The defect is
    taken ``_DEFECT_ROWS`` rows at a time, so no whole-grid defect is
    allocated."""
    worst = 0.0
    for lo in range(0, u.shape[0], _DEFECT_ROWS):
        hi = lo + _DEFECT_ROWS
        defect = u[lo:hi] @ a_float.T
        defect += p_val[lo:hi]
        defect -= np.take(u, perm[lo:hi], axis=0)
        worst = max(worst, float(np.max(np.abs(defect, out=defect))))
    return worst


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


def _cycle_plan(perm: np.ndarray):
    """Position-major cycle order of the grid permutation ``perm``.

    Returns (order, inverse, segments), with inverse[order] = arange.  Each
    length group of ``_orbit_groups`` (G orbits of length L) is one segment
    (start, L, G): rows start .. start + L*G of ``order`` read as an (L, G)
    block whose row t holds x_t of every orbit, so a recursion along the
    cycles reads and writes one contiguous row per step.
    """
    groups = _orbit_groups(perm)
    order = np.concatenate([idx.T.ravel() for _, idx in groups])
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.shape[0])
    segments, start = [], 0
    for length, idx in groups:
        segments.append((start, length, idx.shape[0]))
        start += idx.size
    return order, inverse, segments


def _sweep(block: np.ndarray, kappa: np.ndarray, lagged: bool):
    """Solve w_t = kappa w_{t-1} + d_t (``lagged``: + d_{t-1}) in place.

    Row t of ``block`` (L, R) holds d_t for R cycle-component pairs, each
    with its factor in ``kappa`` (R,), |kappa| < 1; indices run mod L.
    Horner's pass gives w_{L-1} (lagged: w_0) as acc / (1 - kappa^L), and
    a second pass runs the recursion from there: the exact solution of
    each cycle's linear system.
    """
    length = block.shape[0]
    acc = np.zeros_like(block[0])
    for row in block:
        acc *= kappa
        acc += row
    cur = acc / (1.0 - kappa ** length)
    for row in block:
        nxt = kappa * cur
        nxt += row
        row[...] = cur if lagged else nxt
        cur = nxt


def _cycle_solve(plan, kappa: np.ndarray, d: np.ndarray, stable: bool) -> np.ndarray:
    """Solve one side of the frozen linear system along the cycles.

    ``d`` (M, s) is in grid order, and so is the result.  Stable side
    (kappa = lam): w(x_{t+1}) = kappa w(x_t) + d(x_t), swept forward.
    Unstable side (kappa = 1/lam, d = -q/lam): w(x_t) = kappa w(x_{t+1}) +
    d(x_t), swept backward.
    """
    order, inverse, segments = plan
    w = np.take(d, order, axis=0)
    del d          # the caller passes a temporary: free it before the sweeps
    for start, length, count in segments:
        block = w[start:start + length * count].reshape(length, -1)
        _sweep(block if stable else block[::-1], np.tile(kappa, count), lagged=stable)
    return np.take(w, inverse, axis=0)


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
        come out in the same order whatever the roundoff.  Only the modes at
        or above the top-th rounded magnitude, ties included, are sorted.
        """
        n, size = self.dim, self.resolution
        co = self.fourier
        freqs = np.fft.fftfreq(size, d=1.0 / size).astype(int)
        mags = np.abs(co).sum(axis=-1).ravel()
        keys = -_round_sig(mags)
        cut = np.partition(keys, min(top, keys.size) - 1)[min(top, keys.size) - 1]
        kept = np.flatnonzero(keys <= cut)
        order = kept[np.argsort(keys[kept], kind="stable")][:top]
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
    if mode not in ("cycle", "transfer"):
        raise ValueError(f"unknown mode {mode!r}")
    if not lam.imag.any():
        lam, v_mat, w_mat = lam.real, v_mat.real, w_mat.real
    # (stable, kappa, drive, W rows, back) per side, with u = Re w @ back;
    # the unstable side runs backward, w = kappa w o A + d with kappa =
    # 1/lam and d = -q/lam
    sides = []
    for stable in (True, False):
        mask = (np.abs(lam) < 1.0) == stable
        kappa = lam[mask] if stable else 1.0 / lam[mask]
        drive = w_mat[mask] if stable else -kappa[:, None] * w_mat[mask]
        back = v_mat[:, mask].T                     # (s, n)
        if np.iscomplexobj(back):
            # Re(w V^T) = [Re w, Im w] [Re V^T; -Im V^T], rows interleaved
            # as in w.view(float64)
            back = np.stack([back.real, -back.imag], axis=1).reshape(-1, n)
        sides.append((stable, kappa, drive, w_mat[mask], back))
    a_int = np.array(rows, dtype=np.int64)
    a_float = a_int.astype(np.float64)
    x = _grid_points(n, resolution)
    perm = _permutation(a_int, resolution)
    if mode == "cycle":
        plan = _cycle_plan(perm)
    else:
        plan = np.empty_like(perm)          # the inverse permutation
        plan[perm] = np.arange(perm.shape[0])
    u = np.zeros(x.shape)
    xu = np.empty(x.shape)          # x + u, then the next iterate
    history = []
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        p_val = pert.p_eval(gen, np.add(x, u, out=xu))
        residual = _defect_sup(u, p_val, a_float, perm)
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
        _linear_step(sides, mode, plan, perm, p_val, u, out=xu)
        u, xu = xu, u
        del p_val      # not alive while the next p is evaluated
    field_obj = ConjugacyField(
        base=base, generator=gen, resolution=resolution,
        u=u, residual=history[-1], iterations=iterations,
        residual_history=history, mode=mode,
        meta={"tol": tol, "rate_estimate": rate, "c1_norm_bound": c1})
    if history[-1] >= tol and iterations >= max_iter:
        raise Diverged(f"no convergence after {max_iter} iterations "
                       f"(residual {history[-1]:.3g})")
    return field_obj


def _linear_step(sides, mode: str, plan, perm: np.ndarray, p_val: np.ndarray,
                 u: np.ndarray, out: np.ndarray):
    """Write into ``out`` the next iterate: u solving the linear equation
    frozen at p_val.

    ``plan`` is the cycle plan in ``cycle`` mode and the inverse
    permutation in ``transfer`` mode.  Each side's drive and solution are
    freed before the next side starts.
    """
    for i, (stable, kappa, drive, w_rows, back) in enumerate(sides):
        if mode == "cycle":
            w = _cycle_solve(plan, kappa, p_val @ drive.T, stable)
        elif stable:
            # w(x) = lam w(A^-1 x) + q(A^-1 x)
            w = np.take(kappa * (u @ w_rows.T) + p_val @ drive.T, plan, axis=0)
        else:
            # w(x) = (w(Ax) - q(x)) / lam
            w = kappa * np.take(u @ w_rows.T, perm, axis=0) + p_val @ drive.T
        if np.iscomplexobj(w):
            w = w.view(np.float64)
        if i == 0:
            np.matmul(w, back, out=out)
        else:
            out += w @ back
        del w


def _spectrum(u: np.ndarray, n: int, size: int) -> np.ndarray:
    """Fourier coefficients of a displacement u of shape (size^n, n)."""
    grid = u.reshape(*([size] * n), n)
    co = np.fft.fftn(grid, axes=tuple(range(n)))
    co /= size ** n
    return co


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
