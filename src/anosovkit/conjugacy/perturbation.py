"""Perturbed toral actions: trig-polynomial data and the built-in
conjugation family.

A perturbed generator is f_i(x) = A_i x + p_i(x) with p_i periodic.  Two
perturbation backends:

- ``TrigPolynomial``: explicit finite Fourier data (the wire format);
- ``ConjugatedPerturbation``: the guaranteed-commuting family
  f_i = psi ∘ A_i ∘ psi^{-1} for a small diffeomorphism psi = id + eps*q,
  evaluated pointwise: psi is inverted by fixed-point iteration one block
  of points at a time, to machine precision and with no truncation.

Arbitrary user perturbations are accepted without a commutativity promise;
``ToralPerturbation.commutativity_defect`` measures how far the perturbed
generators are from commuting, since the rigidity statement assumes they
do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exact import ActionSpec

# Points per block of TrigPolynomial.evaluate and of the psi inversion in
# ConjugatedPerturbation.evaluate: their buffers stay small whatever the
# grid size.
_BLOCK = 1 << 12

# Points per axis of the grid on which commutativity_defect is measured.
_DEFECT_GRID = 32


def _grid_index(n: int, size: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Integer coordinates j of the rows lo .. hi (default: all size^n) of
    the size^n torus grid, as rows in C order.  lo and hi are multiples of
    size^(n-1), so the rows are whole slabs of the leading axis: its
    coordinate is constant along a slab, and the others repeat one slab's
    pattern."""
    per = size ** (n - 1)
    hi = size * per if hi is None else hi
    idx = np.empty((hi - lo, n), dtype=np.int64)
    slabs = idx.reshape(-1, per, n)
    slabs[:, :, 0] = np.arange(lo // per, hi // per)[:, None]
    if n > 1:
        slabs[:, :, 1:] = np.indices((size,) * (n - 1)).reshape(n - 1, per).T
    return idx


def _grid_points(n: int, size: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """The points j/size of the grid rows of ``_grid_index``."""
    return _grid_index(n, size, lo, hi) / size


class TrigPolynomial:
    """p(x) = sum_t cos_t * cos(2 pi f_t . x) + sin_t * sin(2 pi f_t . x).

    ``terms``: list of (freq int tuple, cos vector, sin vector).  A zero
    frequency with a cos vector encodes a constant term; a frequency
    shorter than dim has zeros in the missing coordinates.
    """

    def __init__(self, terms, dim: int):
        self.dim = dim
        norm = []
        for freq, cosv, sinv in terms:
            freq = tuple(int(f) for f in freq)
            cosv = np.asarray(cosv, dtype=float)
            sinv = np.asarray(sinv, dtype=float)
            if cosv.shape != (dim,) or sinv.shape != (dim,):
                raise ValueError("coefficient vectors must have length dim")
            if len(freq) > dim:
                raise ValueError("frequency vectors must have length dim")
            if np.any(cosv) or np.any(sinv):
                norm.append((freq, cosv, sinv))
        self.terms = norm
        # stacked kernel data: frequencies (T, dim) and the cos block over
        # the sin block of coefficients (2T, dim)
        self._freqs = np.zeros((len(norm), dim), dtype=np.int64)
        for t, (freq, _, _) in enumerate(norm):
            self._freqs[t, :len(freq)] = freq
        self._coeffs = np.array([c for _, c, _ in norm] + [s for _, _, s in norm],
                                dtype=float).reshape(2 * len(norm), dim)
        self._axes = np.flatnonzero(self._freqs.any(axis=0))
        t = len(norm)
        self._kmax = np.abs(self._freqs).max(axis=0) if t else np.zeros(dim, dtype=np.int64)
        # the phase matrix path: no more terms than axes in use, or power
        # tables with more rows than the T phasors (large frequencies)
        self._direct = (t <= len(self._axes)
                        or int((2 * self._kmax[self._axes] + 1).sum()) > 2 * t)
        self._phase_freqs = self._freqs.astype(np.float64)
        # that path's cos and sin halves, each kept only when one of its
        # coefficients is nonzero
        halves = [(fn, c) for fn, c in ((np.cos, self._coeffs[:t]), (np.sin, self._coeffs[t:]))
                  if c.any()]
        self._halves = [fn for fn, _ in halves]
        self._half_coeffs = np.concatenate([c for _, c in halves]) if halves else self._coeffs
        self._phasor_coeffs = self._coeffs[:t] - 1j * self._coeffs[t:]     # (T, dim)

    @staticmethod
    def from_json(obj: dict, dim: int) -> "TrigPolynomial":
        terms = []
        if "terms" in obj:
            for t in obj["terms"]:
                terms.append((t["freq"],
                              t.get("cos", [0.0] * dim),
                              t.get("sin", [0.0] * dim)))
        else:
            # flat form: sine convention, optional cosine block
            eps = float(obj.get("epsilon", 1.0))
            freqs = obj["frequencies"]
            sins = obj.get("coefficients", [[0.0] * dim] * len(freqs))
            coss = obj.get("coefficients_cos", [[0.0] * dim] * len(freqs))
            for f, s, c in zip(freqs, sins, coss):
                terms.append((f, [eps * x for x in c], [eps * x for x in s]))
        return TrigPolynomial(terms, dim)

    def to_json(self) -> dict:
        return {"terms": [{"freq": list(f), "cos": list(map(float, c)),
                           "sin": list(map(float, s))}
                          for f, c, s in self.terms]}

    def evaluate(self, points: np.ndarray, displacement=None) -> np.ndarray:
        """p at each row of ``points``, in blocks of at most ``_BLOCK`` points
        (``displacement``, the hint of ``ToralPerturbation.p_eval``, is not
        needed).

        With more terms than axes in use, each term's phasor exp(2 pi i f.x)
        is a product of per-axis power tables z_d^k, k = -K_d..K_d, built
        from one cos and one sin per axis, and p is the real part of one
        complex product with the coefficients cos_t - i sin_t.  Otherwise,
        or when the tables would have more rows than the T phasors (large
        frequencies), the phases of a block are 2 pi F X^T, one cos and one
        sin per term (only the half with a nonzero coefficient when the
        other half's are all zero), stacked into a (2T, block) matrix and
        multiplied once by the stacked cos and sin coefficients.  The path
        and its coefficients are fixed at construction, block buffers are
        allocated once per call, and each block's values are written
        straight into the (m, dim) result.
        """
        points = np.asarray(points, dtype=np.float64)
        m, t = points.shape[0], len(self.terms)
        if not (t and m):
            return np.zeros((m, self.dim))
        out = np.empty((m, self.dim))
        if self._direct:
            block = min(_BLOCK, m)
            phase = np.empty((t, block))
            trig = np.empty((len(self._halves) * t, block))
        else:
            # T phasors per point: a block of _BLOCK * dim / T points keeps
            # the (2, T, block) buffers at the size of dim * _BLOCK phasors
            block = min(max(1, _BLOCK * self.dim // t), _BLOCK, m)
            prod, rows = np.empty((2, t, block), dtype=np.complex128)
            table = np.empty((2 * int(self._kmax.max()) + 1, block), dtype=np.complex128)
            acc = np.empty((block, self.dim), dtype=np.complex128)
        for lo in range(0, m, block):
            x = points[lo:lo + block].T                   # (dim, b)
            b = x.shape[1]
            if self._direct:
                ph = np.matmul(self._phase_freqs, x, out=phase[:, :b])
                ph *= 2.0 * np.pi
                for i, fn in enumerate(self._halves):
                    fn(ph, out=trig[i * t:(i + 1) * t, :b])
                np.matmul(trig[:, :b].T, self._half_coeffs, out=out[lo:lo + b])
            else:
                z = self._phasors(x, prod[:, :b], rows[:, :b], table[:, :b])
                np.matmul(z.T, self._phasor_coeffs, out=acc[:b])
                out[lo:lo + b] = acc[:b].real
        return out

    def _phasors(self, x, prod, rows, table):
        """exp(2 pi i f_t . x) of every term into ``prod`` (T, b), for x of
        shape (dim, b): products over the axes in use of the powers z_d^k of
        z_d = exp(2 pi i x_d), k = -K_d..K_d (all ones with no axis in use,
        the lone constant term)."""
        if not len(self._axes):
            prod.fill(1.0)
        for i, d in enumerate(self._axes):
            kmax = int(self._kmax[d])
            tab = table[:2 * kmax + 1]
            angle = (2.0 * np.pi) * x[d]
            tab[kmax] = 1.0
            np.cos(angle, out=tab[kmax + 1].real)
            np.sin(angle, out=tab[kmax + 1].imag)
            for k in range(kmax + 2, 2 * kmax + 1):
                np.multiply(tab[k - 1], tab[kmax + 1], out=tab[k])
            np.conjugate(tab[2 * kmax:kmax:-1], out=tab[:kmax])
            if i == 0:
                np.take(tab, self._freqs[:, d] + kmax, axis=0, out=prod, mode="clip")
            else:
                np.take(tab, self._freqs[:, d] + kmax, axis=0, out=rows, mode="clip")
                prod *= rows
        return prod

    def sup_bound(self) -> float:
        return float(sum(np.abs(c).max() + np.abs(s).max()
                         for _, c, s in self.terms))

    def deriv_bound(self) -> float:
        return float(sum(2 * np.pi * sum(map(abs, f)) *
                         (np.abs(c).max() + np.abs(s).max())
                         for f, c, s in self.terms))


class ConjugatedPerturbation:
    """p_i(y) = eps*q(A_i w) - eps*A_i q(w) with w = psi^{-1}(y), psi = id + eps*q.

    Exact pointwise evaluation: w solves w = y - eps*q(w) by fixed-point
    iteration (contraction for small eps), so no Fourier truncation enters.
    """

    def __init__(self, matrix, q: TrigPolynomial, eps: float):
        self.matrix = np.asarray(matrix, dtype=float)
        self.q = q
        self.eps = float(eps)
        contraction = abs(eps) * q.deriv_bound()
        if contraction >= 0.5:
            raise ValueError(f"psi inversion not a contraction ({contraction:.3f})")
        self._contraction = contraction

    def evaluate(self, points: np.ndarray, displacement=None) -> np.ndarray:
        """p_i at each row of ``points``, one ``_BLOCK`` of points at a time.

        On a block y, the iteration w <- y - eps*q(w) starts at y, or at
        y - d for the block's rows d of ``displacement`` when given, and
        runs until a step moves no coordinate by 1e-15 or more, or for 80
        steps.  At the fixed point eps*q(w) = y - w, so the last step's
        eps*q stands in for eps*q(w), and p_i(y) = eps*q(A_i w) -
        A_i eps*q(w) takes one more evaluation of q.  That eps*q is kept
        rather than taking y - w, which would lose its low digits to
        cancellation.  Only the result has the size of ``points``.
        """
        points = np.asarray(points, dtype=np.float64)
        out = np.empty(points.shape)
        a_t = self.matrix.T
        for lo in range(0, points.shape[0], _BLOCK):
            y = points[lo:lo + _BLOCK]
            w = y if displacement is None else y - displacement[lo:lo + _BLOCK]
            for _ in range(80):
                eq = self.q.evaluate(w)
                eq *= self.eps
                step = y - eq
                delta = float(np.max(np.abs(step - w)))
                w = step
                if delta < 1e-15:
                    break
            val = self.q.evaluate(w @ a_t)
            val *= self.eps
            val -= eq @ a_t
            out[lo:lo + _BLOCK] = val
        return out

    def sup_bound(self) -> float:
        return 2.0 * abs(self.eps) * self.q.sup_bound() * (
            1.0 + float(np.abs(self.matrix).sum(axis=1).max()))

    def deriv_bound(self) -> float:
        amp = float(np.abs(self.matrix).sum(axis=1).max())
        return 2.0 * abs(self.eps) * self.q.deriv_bound() * (1 + amp) * (
            1.0 / (1.0 - self._contraction))


@dataclass
class ToralPerturbation:
    """Perturbed generators f_i = A_i + p_i of a toral Z^k action."""

    base: ActionSpec
    perturbations: list          # one evaluable per generator
    meta: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return self.base.k

    @property
    def dim(self) -> int:
        return self.base.dim

    def matrix(self, i: int) -> np.ndarray:
        return np.array(self.base.generator(i), dtype=np.int64)

    def p_eval(self, i: int, points: np.ndarray, displacement=None) -> np.ndarray:
        """p_i at each row of ``points``.  ``displacement``, when given, has
        rows u with points = x + u and x near psi^-1(points) for a family
        conjugated by psi (x = psi^-1(points) when u is its conjugacy's
        displacement at x): there the inversion of psi starts at x."""
        return self.perturbations[i].evaluate(points, displacement)

    def f_eval(self, i: int, points: np.ndarray) -> np.ndarray:
        return points @ self.matrix(i).T.astype(float) + self.p_eval(i, points)

    def c1_norm_bound(self) -> float:
        return max(p.sup_bound() + p.deriv_bound() for p in self.perturbations)

    def commutativity_defect(self) -> float:
        """sup |f_i(f_j(x)) - f_j(f_i(x))| over a coarse grid, mod 1.

        The rigidity hypothesis is that the perturbed generators commute;
        arbitrary user data may not, so the defect is measured and reported.
        """
        pts = _grid_points(self.dim, _DEFECT_GRID)
        worst = 0.0
        for i in range(self.k):
            for j in range(i + 1, self.k):
                ij = self.f_eval(i, self.f_eval(j, pts) % 1.0)
                ji = self.f_eval(j, self.f_eval(i, pts) % 1.0)
                diff = ij - ji
                diff -= np.round(diff)
                worst = max(worst, float(np.max(np.abs(diff))))
        return worst

    @staticmethod
    def from_json(obj: dict) -> "ToralPerturbation":
        base = ActionSpec.from_json(obj["base"])
        perts = [TrigPolynomial.from_json(p, base.dim)
                 for p in obj["perturbations"]]
        return ToralPerturbation(base=base, perturbations=perts)


def psi_conjugation(base: ActionSpec, q: TrigPolynomial,
                    eps: float) -> tuple:
    """Built-in commuting family: every generator conjugated by psi = id+eps*q.

    Returns (perturbation, ground_truth) where ground_truth(points) is the
    displacement psi - id on given points; the exact conjugacy of the
    family is h = psi.
    """
    perts = [ConjugatedPerturbation(base.generator(i), q, eps)
             for i in range(base.k)]

    def ground_truth(points: np.ndarray) -> np.ndarray:
        disp = q.evaluate(points)
        disp *= eps
        return disp

    pert = ToralPerturbation(base=base, perturbations=perts,
                             meta={"family": "psi-conjugation", "eps": eps})
    return pert, ground_truth


class _ShiftedPerturbation:
    """p_c(y) = p(y + c) + (A - I) c: the translation-conjugated data."""

    def __init__(self, inner, matrix, c_vec):
        self.inner = inner
        self.matrix = np.asarray(matrix, dtype=float)
        self.c = np.asarray(c_vec, dtype=float)
        n = self.matrix.shape[0]
        const = (self.matrix - np.eye(n)) @ self.c
        # integer parts are trivial torus translations; drop them
        self.const = const - np.round(const)

    def evaluate(self, points: np.ndarray, displacement=None) -> np.ndarray:
        # psi^-1(y + c) = x + c when y = x + u_c(x), u_c = u(. + c)
        return (self.inner.evaluate(points + self.c[None, :], displacement)
                + self.const[None, :])

    def sup_bound(self) -> float:
        return self.inner.sup_bound() + float(np.abs(self.const).sum())

    def deriv_bound(self) -> float:
        return self.inner.deriv_bound()


def shift_perturbation(pert: ToralPerturbation, c_vec) -> ToralPerturbation:
    """Conjugate the whole perturbed action by the translation x -> x + c.

    When (A_i - I) c is integral for every generator, the translated data
    defines the same torus maps up to the coordinate shift, and h_c =
    T_{-c} ∘ h ∘ T_c solves the shifted conjugacy problem.
    """
    perts = [_ShiftedPerturbation(p, pert.base.generator(i), c_vec)
             for i, p in enumerate(pert.perturbations)]
    return ToralPerturbation(base=pert.base, perturbations=perts,
                             meta={**pert.meta, "shifted_by": list(map(float, c_vec))})
