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
  unstable side, which runs backward as w = w(A .)/lam - q/lam.  Since the
  eigenvalues ascend in modulus, the stable components come first.
- When every eigenvalue of A is real (the cat map, the T^3 pair), lam, V
  and V^-1 are real and the step runs in float64; a complex pair makes the
  same code run in complex128.  The dtype follows V^-1.
- Each iteration is one blocked pass over the grid (``_defect_pass``), then
  the linear solve, then the write-back.  For each block of about
  ``_ROWS`` rows the pass makes the grid points from the row indices,
  evaluates p at x + u, takes the block's sup of the defect
  |A u(x) + p(x + u) - u(Ax)|, and writes the eigen-coordinate drive
  d = V^-1 p (-V^-1 p / lam on the unstable side) into one buffer of
  n N^n numbers, an (N^n, width) block per side, straight to where the
  linear step reads it.  ``cycle`` writes it in cycle order, through the
  inverse of the cycle plan; ``transfer`` adds lam w on the stable side and
  writes it at the image points Ax, and adds w(Ax)/lam on the unstable
  side in place.  After the pass, ``cycle`` sweeps the drive in place
  along the cycles, and both modes write u = V w back over u one block at
  a time.
- The solve therefore holds u, the drive buffer, and the permutation and
  (in ``cycle`` mode) the inverse cycle plan as int32 index arrays: about
  2.3 fields on T^3.  The grid points, the values of p and every gathered
  row exist one block at a time.  The pass hands each block's rows of u
  to p, whose psi inversion (``ConjugatedPerturbation``) starts there at
  the grid point x, psi^-1(x + u) once u is the conjugacy.
- The cycle plan puts the cycles in position-major order for each cycle
  length, so row t of a length group holds x_t of every orbit and each
  recursion step reads and writes one contiguous row of the drive.
- The points x + u at which p is evaluated stay in grid order.  numpy's
  cos and sin take about 16 ns per element on the smooth arguments of the
  grid against about 28 ns in cycle order (64^3 grid, 2-vCPU Xeon), so
  the pass reads the grid in order and scatters the drive instead.

The field's spectrum (``ConjugacyField.fourier``) is its half spectrum: u is
real, so a real-input FFT along the last grid axis keeps the frequency
indices 0 .. N/2 there, about half the numbers of the full complex
spectrum, and its readers stand each interior last-axis column for f and -f.

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
from .perturbation import ToralPerturbation, _grid_index, _grid_points


class NotAnosov(ValueError):
    """The solving generator has a unit-modulus eigenvalue (exact test)."""


class Diverged(RuntimeError):
    """Residual failed to decrease (or the smallness gate refused upfront)."""


class ResolutionInsufficient(RuntimeError):
    """Spectral tail indicates the grid cannot represent the displacement."""


# The smallness gate refuses a perturbation whose displacement bound
# sup|p| / (1 - rate) reaches this size.
_SMALLNESS = 0.1

# Rows per block of every blocked pass over the grid (the solver's pass,
# the intertwining check, the permutation, the probe's multipliers, the
# spectrum's magnitudes and the recovery error), rounded to whole slabs
# of the leading axis (``_blocks``): a block's temporaries stay small
# whatever the grid size, and the trig kernels are called on enough
# points to amortise their per-call setup.
_ROWS = 1 << 14


def _slabs(count: int, per: int) -> list:
    """Slices of the leading axis of an array of ``count`` slabs of ``per``
    rows each, covering it in order, each about ``_ROWS`` rows."""
    step = max(1, _ROWS // per)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _blocks(n: int, size: int) -> list:
    """Row slices that cover the size^n grid in order, each about
    ``_ROWS`` rows of whole leading-axis slabs (size^(n-1) rows each)."""
    per = size ** (n - 1)
    return [slice(s.start * per, s.stop * per) for s in _slabs(size, per)]


def _as_rows(a: np.ndarray) -> np.ndarray:
    """A C-contiguous 2-d array as a 1-d array of one opaque item per row,
    so that ``np.put`` moves whole rows (about 1.5x faster than assigning
    to fancy-indexed rows for two-column rows at 64^3)."""
    return a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).reshape(-1)


def _round_sig(x, digits: int = 12):
    """x rounded to ``digits`` significant digits (elementwise): equal values
    that differ only by roundoff compare equal after it."""
    x = np.asarray(x, dtype=np.float64)
    scale = 10.0 ** (digits - 1 - np.floor(np.log10(np.where(x > 0, x, 1.0))))
    return np.where(x > 0, np.round(x * scale) / scale, x)


def _sup_abs(x: np.ndarray) -> float:
    """max |x| without a temporary array of |x|."""
    return max(float(x.max()), -float(x.min()))


def _eigendata(matrix):
    """Eigendecomposition (lam, V, V^-1) of a semisimple integer matrix A,
    with no LAPACK call.

    Semisimplicity is decided exactly (``intpoly.is_semisimple_matrix``).
    The squarefree decomposition of the characteristic polynomial gives
    each distinct eigenvalue with its multiplicity r: the roots of its
    part of multiplicity r (``intpoly.double_roots``), real ones exactly
    real and the others in exactly conjugate pairs.  Eigenvalues are in
    ascending (|lam|, arg lam) order, with arg in (-pi, pi] and the moduli
    compared at 12 significant digits so that roundoff cannot reorder equal
    moduli, each repeated r times.

    The eigenvectors of lam are a basis of the null space of A - lam I, of
    dimension r (``_null_basis``), and a conjugate eigenvalue takes the
    conjugates of its partner's.  Each eigenvector is scaled so that its
    last nonzero coordinate is 1, the convention of an exact nullspace
    basis, which fixes the signs of the real eigen-directions.  V^-1 is
    inverted in Python arithmetic (``_inverse``).
    """
    rows = [list(r) for r in matrix]
    if not intpoly.is_semisimple_matrix(rows):
        raise ValueError("solver requires a semisimple (diagonalizable) base")
    found = [(z, r) for part, r in intpoly._squarefree_decomposition(list(intpoly.charpoly(rows)))
             for z in intpoly.double_roots(part)]
    vals = np.array([z for z, _ in found])
    mods = _round_sig(np.abs(vals))
    args = np.arctan2(vals.imag + 0.0, vals.real)    # + 0.0 turns -0.0 into 0.0
    n, lam, cols, bases = len(rows), [], [], {}
    for k in np.lexsort((args, mods)):
        z, r = found[k]
        if z.conjugate() in bases:
            basis = [[x.conjugate() for x in v] for v in bases[z.conjugate()]]
        else:
            basis = _null_basis([[x - z * (i == j) for j, x in enumerate(row)]
                                 for i, row in enumerate(rows)], n - r)
            for v in basis:
                tiny = max(abs(x) for x in v) * 1e-10
                last = v[max(i for i, x in enumerate(v) if abs(x) > tiny)]
                v[:] = [x / last for x in v]
        bases[z] = basis
        cols += basis
        lam += [z] * r
    v_mat = np.array(cols, dtype=np.complex128).T
    return (np.array(lam, dtype=np.complex128), v_mat,
            np.array(_inverse(v_mat.tolist()), dtype=np.complex128))


def _null_basis(m: list, rank: int) -> list:
    """A basis of the null space of the square matrix m (nested lists) of
    the given rank, one list per vector, by Gaussian elimination with
    complete pivoting for ``rank`` steps: each column left without a pivot
    gives the vector with a 1 there, 0 at the other such columns, and the
    pivot coordinates by back-substitution."""
    n = len(m)
    work = [list(row) for row in m]
    free_rows, free_cols, pivots = list(range(n)), list(range(n)), []
    for _ in range(rank):
        i, j = max(((i, j) for i in free_rows for j in free_cols),
                   key=lambda ij: abs(work[ij[0]][ij[1]]))
        free_rows.remove(i)
        free_cols.remove(j)
        pivots.append((i, j))
        for k in free_rows:
            f = work[k][j] / work[i][j]
            work[k] = [x - f * y for x, y in zip(work[k], work[i])]
            work[k][j] = 0
    basis = []
    for f in free_cols:
        x = [0] * n
        x[f] = 1
        for i, j in reversed(pivots):
            x[j] = -sum(w * y for w, y in zip(work[i], x)) / work[i][j]
        basis.append(x)
    return basis


def _inverse(m: list) -> list:
    """The inverse of a small invertible square matrix (nested lists), by
    Gauss-Jordan elimination with partial pivoting in Python arithmetic."""
    n = len(m)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(rows[i][k]))
        rows[k], rows[piv] = rows[piv], rows[k]
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    for k in reversed(range(n)):
        rows[k] = [x / rows[k][k] for x in rows[k]]
        for i in range(k):
            f = rows[i][k]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return [row[n:] for row in rows]


def _permutation(matrix: np.ndarray, size: int) -> np.ndarray:
    """Grid index of A j mod size for every grid index j (C order), built
    one block of ``_blocks`` at a time.

    The indices, and those of the cycle plan made from them, are int32: a
    grid of 2^31 points or more is refused (at 8 bytes per coordinate its
    field alone would take 32 GiB on T^2).
    """
    n = matrix.shape[0]
    if size ** n > np.iinfo(np.int32).max:
        raise ValueError(f"a {size}^{n} grid has 2^31 points or more")
    place = size ** np.arange(n - 1, -1, -1, dtype=np.int64)
    perm = np.empty(size ** n, dtype=np.int32)
    for rows in _blocks(n, size):
        img = _grid_index(n, size, rows.start, rows.stop) @ matrix.T
        img %= size
        np.matmul(img, place, out=perm[rows])
    return perm


def _defect_pass(u: np.ndarray, pert: ToralPerturbation, gen: int, perm: np.ndarray,
                 size: int, visit=None) -> float:
    """sup over the grid of |A u(x) + p(x + u(x)) - u(Ax)| for generator
    ``gen`` of ``pert``, with perm the grid permutation of its matrix A.

    The grid is read one block of ``_blocks`` at a time: a block's points
    x come from its row indices, and p is evaluated at x + u there, with
    u as the displacement hint of ``ToralPerturbation.p_eval``.
    ``visit(rows, p, image)``, when given, receives each block's row slice,
    the values of p and the gathered rows u(Ax).
    """
    n = u.shape[1]
    a_t = pert.matrix(gen).T.astype(np.float64)
    worst = 0.0
    for rows in _blocks(n, size):
        own = u[rows]
        xu = _grid_points(n, size, rows.start, rows.stop)
        xu += own
        p_val = pert.p_eval(gen, xu, own)
        image = np.take(u, perm[rows], axis=0)
        if visit is not None:
            visit(rows, p_val, image)
        defect = own @ a_t
        defect += p_val
        defect -= image
        worst = max(worst, float(np.max(np.abs(defect, out=defect))))
    return worst


def _take_into(a: np.ndarray, idx: np.ndarray, out: np.ndarray):
    """out[...] = a[idx] for 1-d arrays, ``_ROWS`` indices at a time:
    ``np.take`` casts int32 indices to intp, a copy of twice their bytes,
    and with an ``out`` and mode "raise" it would buffer one more (the
    indices are in range, so "wrap" does not change them)."""
    for lo in range(0, idx.shape[0], _ROWS):
        np.take(a, idx[lo:lo + _ROWS], out=out[lo:lo + _ROWS], mode="wrap")


def _orbit_starts(perm: np.ndarray):
    """The cycles of the grid permutation ``perm``: (starts, lengths), the
    least index of each cycle, in increasing order, and its length.

    Cycles are found by pointer doubling with min-label propagation: after
    r rounds label[i] is the least index among the 2^r points i, A i, ...,
    and a round that changes no label means every label is its cycle's
    minimum.  That takes log2 of the longest cycle whole-array rounds, in
    four index arrays of perm's dtype allocated once (``_take_into``).  A
    cycle's least index is the one
    whose label is itself, and the lengths, int32 like perm, come from a
    walk of all cycles at once from there.
    """
    m = perm.shape[0]
    label, new = np.arange(m, dtype=perm.dtype), np.empty_like(perm)
    jump, nxt = perm.copy(), np.empty_like(perm)
    while True:
        _take_into(label, jump, new)
        np.minimum(new, label, out=new)
        if np.array_equal(new, label):
            break
        label, new = new, label
        _take_into(jump, jump, nxt)
        jump, nxt = nxt, jump
    del new, jump, nxt
    starts = np.flatnonzero(label == np.arange(m, dtype=label.dtype))
    del label
    # walk every cycle at once from its least index, retiring each when it
    # returns there: steps of all cycles together, no array of the grid's size
    lengths = np.empty(starts.shape[0], dtype=np.int32)
    live, cur, step = np.arange(starts.shape[0]), perm[starts], 1
    while live.size:
        back = cur == starts[live]
        lengths[live[back]] = step
        live, cur = live[~back], perm[cur[~back]]
        step += 1
    return starts, lengths


def _cycle_plan(perm: np.ndarray):
    """Position-major cycle order of the grid permutation ``perm``.

    Returns (inverse, segments): grid index j sits at position inverse[j]
    of the cycle order.  The cycles of each length L, G of them in
    increasing order of their least index x_0, form one segment (start, L,
    G): positions start .. start + L*G read as an (L, G) block whose row t
    holds x_t = A^t x_0 of every orbit, so a recursion along the cycles
    reads and writes one contiguous row per step.
    """
    starts, lengths = _orbit_starts(perm)
    inverse = np.empty_like(perm)
    segments, start = [], 0
    # sorted(set(...)), not np.unique, which imports numpy.ma (about 12 ms)
    for length in sorted(set(lengths.tolist())):
        cur = starts[lengths == length]
        count = cur.shape[0]
        pos = np.arange(start, start + count)
        for _ in range(length):
            inverse[cur] = pos
            pos += count
            cur = perm[cur]
        segments.append((start, length, count))
        start += length * count
    return inverse, segments


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


@dataclass(frozen=True)
class ConjugacyField:
    """Displacement u of h = id + u on a regular grid, with certificates.

    ``fourier`` is the half spectrum of u, computed on first use and kept:
    the tail fraction, the Fourier table and the regularity probe read it.
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
        return _sup_abs(self.u) if self.u.size else 0.0

    def grid_points(self) -> np.ndarray:
        return _grid_points(self.dim, self.resolution)

    def sup_error(self, displacement) -> float:
        """sup over the grid of |u(x) - displacement(x)|, for a function
        ``displacement`` of an (m, dim) array of points, one block of
        ``_blocks`` at a time."""
        worst = 0.0
        for rows in _blocks(self.dim, self.resolution):
            diff = displacement(_grid_points(self.dim, self.resolution, rows.start, rows.stop))
            diff -= self.u[rows]
            worst = max(worst, float(np.max(np.abs(diff, out=diff))))
        return worst

    @functools.cached_property
    def fourier(self) -> np.ndarray:
        """Half spectrum of u (``_spectrum``): the Fourier coefficients of
        the frequencies whose last index is 0 .. N/2, shape
        (N,) * (n - 1) + (N/2 + 1, n).  u is real, so the coefficient at -f
        is the conjugate of the one at f, and these give the rest."""
        return _spectrum(self.u, self.dim, self.resolution)

    def tail_fraction(self) -> float:
        """Sup-norm style weight of frequencies beyond half the Nyquist cube."""
        return _tail_fraction(self.fourier, self.resolution)

    def export_binary(self, path: str):
        """Row-major IEEE-754 doubles with a fixed 16-byte header.

        Layout: magic b"AKFIELD1", uint32 dim, uint32 resolution, then
        resolution^dim * dim float64 values (C order, component fastest).
        """
        with open(path, "wb") as fh:
            fh.write(b"AKFIELD1")
            fh.write(np.uint32(self.dim).tobytes())
            fh.write(np.uint32(self.resolution).tobytes())
            # the buffer of u itself when it is little-endian C order
            fh.write(np.ascontiguousarray(self.u, dtype="<f8").data)

    def fourier_table(self, top: int = 64) -> list:
        """Largest Fourier modes as JSON-ready entries, deterministic order.

        Modes are sorted by magnitude rounded to 12 significant digits, then
        by flat index, so the equal-magnitude +-f pairs of a real field
        come out in the same order whatever the roundoff.  Only the modes at
        or above the top-th rounded magnitude, ties included, are sorted.
        Rounding is monotone and moves a magnitude by less than 5e-12 of
        it, so those modes all lie within 1e-11 of the top-th raw
        magnitude; only the modes above a raw cut a little below that are
        rounded.

        The rule runs on the N^n spectrum, read from the half spectrum
        ``fourier``: a mode f of the half grid stands for itself and, in an
        interior last-axis column (``_interior``), also for -f, with the
        flat index of -f, the same magnitude and the conjugated value.
        The top-th raw magnitude of the N^n spectrum is among the top
        largest of the half grid, so only the modes near it are expanded.
        """
        n, size = self.dim, self.resolution
        co = self.fourier
        freqs = np.fft.fftfreq(size, d=1.0 / size).astype(int)
        mags = _magnitudes(co)
        flat, half = mags.reshape(-1), mags.shape[-1]
        twice = np.zeros(half, dtype=bool)
        twice[_interior(size)] = True
        top = min(top, size ** n)
        head = min(top, flat.size)
        pick = np.argpartition(flat, flat.size - head)[flat.size - head:]
        pick = pick[np.argsort(-flat[pick], kind="stable")]
        raw_cut = np.repeat(flat[pick], np.where(twice[pick % half], 2, 1))[top - 1]
        near = np.flatnonzero(flat >= raw_cut * (1.0 - 1e-10))
        idx = np.unravel_index(near, mags.shape)
        mirror = twice[idx[-1]]
        grid = (size,) * n
        where = np.concatenate([
            np.ravel_multi_index(idx, grid),
            np.ravel_multi_index(tuple(-j[mirror] % size for j in idx), grid)])
        src = np.concatenate([near, near[mirror]])
        keys = -_round_sig(flat[src])
        cut = np.partition(keys, top - 1)[top - 1]
        kept = np.flatnonzero(keys <= cut)
        order = kept[np.lexsort((where[kept], keys[kept]))][:top]
        out = []
        for i in order:
            if flat[src[i]] < 1e-15:
                break
            val = co[np.unravel_index(src[i], mags.shape)]
            if i >= near.size:
                val = val.conj()
            out.append({
                "freq": [int(freqs[j]) for j in np.unravel_index(where[i], grid)],
                "re": [float(x) for x in val.real],
                "im": [float(x) for x in val.imag],
            })
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
    s = int(np.count_nonzero(np.abs(lam) < 1.0))   # the stable side comes first
    perm = _permutation(np.array(rows, dtype=np.int64), resolution)
    m = perm.shape[0]
    if mode == "cycle":
        inverse, segments = _cycle_plan(perm)
    u = np.zeros((m, n))
    # one drive buffer, a contiguous (m, width) block per side.  Per side:
    # (stable, kappa, rows of the drive d = to_drive @ p, rows of V^-1,
    # back with u = Re w @ back, drive block); the unstable side runs
    # backward, w = kappa w o A + d with kappa = 1/lam and d = -q/lam
    buf = np.empty(n * m, dtype=w_mat.dtype)
    sides = []
    for side, stable in ((slice(0, s), True), (slice(s, n), False)):
        kappa = lam[side] if stable else 1.0 / lam[side]
        to_drive = w_mat[side] if stable else -kappa[:, None] * w_mat[side]
        back = v_mat[:, side].T
        if np.iscomplexobj(back):
            # Re(w V^T) = [Re w, Im w] [Re V^T; -Im V^T], rows interleaved
            # as in w.view(float64)
            back = np.stack([back.real, -back.imag], axis=1).reshape(-1, n)
        drive = buf[side.start * m:side.stop * m].reshape(m, -1)
        sides.append((stable, kappa, to_drive, w_mat[side], back, drive))

    def write_drive(rows, p_val, image):
        for stable, kappa, to_drive, w_rows, _, drive in sides:
            d = p_val @ to_drive.T
            if mode == "cycle":
                np.put(_as_rows(drive), inverse[rows], _as_rows(d))
            elif stable:
                # w(Ax) = lam w(x) + q(x)
                d += (u[rows] @ w_rows.T) * kappa
                np.put(_as_rows(drive), perm[rows], _as_rows(d))
            else:
                # w(x) = (w(Ax) - q(x)) / lam
                d += (image @ w_rows.T) * kappa
                drive[rows] = d

    history = []
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        residual = _defect_pass(u, pert, gen, perm, resolution, visit=write_drive)
        history.append(residual)
        if residual < tol:
            break
        if len(history) >= 6 and history[-1] >= history[-6] * 0.999:
            tail = _tail_fraction(_spectrum(u, n, resolution), resolution)
            if tail > 1e-6 and residual > tol:
                raise ResolutionInsufficient(
                    f"residual plateau at {residual:.3g} with spectral tail "
                    f"{tail:.3g}; increase the grid")
            raise Diverged(f"residual stopped decreasing at {residual:.3g} "
                           f"after {it} iterations")
        if mode == "cycle":
            for stable, kappa, _, _, _, drive in sides:
                for start, length, count in segments:
                    block = drive[start:start + length * count].reshape(length, -1)
                    _sweep(block if stable else block[::-1], np.tile(kappa, count),
                           lagged=stable)
        for rows in _blocks(n, resolution):
            for i, (_, _, _, _, back, drive) in enumerate(sides):
                w = np.take(drive, inverse[rows], axis=0) if mode == "cycle" else drive[rows]
                if np.iscomplexobj(w):
                    w = w.view(np.float64)
                if i == 0:
                    np.matmul(w, back, out=u[rows])
                else:
                    u[rows] += w @ back
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
    """Half spectrum of a displacement u of shape (size^n, n): its Fourier
    coefficients at the frequency indices whose last one is 0 .. size/2,
    shape (size,) * (n - 1) + (size/2 + 1, n), in fftfreq's order on every
    axis (the last index size/2 is the frequency -size/2).

    A real-input transform along the last grid axis writes the result,
    which the transforms over the leading axes then update in place: no
    whole-grid temporary besides the result, which holds about half the
    numbers of the full complex spectrum.
    """
    co = np.empty((size,) * (n - 1) + (size // 2 + 1, n), dtype=np.complex128)
    np.fft.rfft(u.reshape((size,) * n + (n,)), axis=n - 1, norm="forward", out=co)
    for axis in range(n - 1):
        np.fft.fft(co, axis=axis, norm="forward", out=co)
    return co


def _interior(size: int) -> slice:
    """The last-axis columns k of a half spectrum whose mirror size - k is
    not a column itself: 0 < k < size/2."""
    return slice(1, (size + 1) // 2)


def _magnitudes(co: np.ndarray) -> np.ndarray:
    """sum over the components of |co|, of shape co.shape[:-1], a few
    leading-axis slabs (``_slabs``) at a time."""
    n = co.shape[-1]
    mags = np.empty(co.shape[:-1])
    for sl in _slabs(mags.shape[0], mags[0].size):
        out = mags[sl]
        np.abs(co[sl, ..., 0], out=out)
        for c in range(1, n):
            out += np.abs(co[sl, ..., c])
    return mags


def _tail_fraction(co: np.ndarray, size: int) -> float:
    """Share of the Fourier weight of the half spectrum ``co`` of a size^n
    grid (``_spectrum``) beyond half the Nyquist cube.  An interior
    last-axis column counts twice: it stands for f and for -f."""
    n = co.ndim - 1
    mags = _magnitudes(co)
    mags[..., _interior(size)] *= 2.0
    total = float(mags.sum())
    if total == 0.0:
        return 0.0
    freqs = np.abs(np.fft.fftfreq(size, d=1.0 / size))
    mask = np.zeros(mags.shape, dtype=bool)
    for axis in range(n):
        shape = [1] * n
        shape[axis] = mags.shape[axis]
        mask |= (freqs[:mags.shape[axis]].reshape(shape) > size // 4)
    return float(mags[mask].sum()) / total
