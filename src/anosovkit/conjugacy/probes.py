"""Intertwining verification and directional regularity probes."""

from __future__ import annotations

import numpy as np

from .perturbation import ToralPerturbation
from .solver import ConjugacyField, _defect_sup, _eigendata, _permutation

# A first-difference slope below this classifies a direction as Hölder, not C1.
_C1_THRESHOLD = 0.95


def verify_intertwining(field: ConjugacyField, pert: ToralPerturbation) -> dict:
    """sup |f_i(h(x)) - h(A_i x)| per generator, exact at grid points.

    A single conjugacy solved from one generator intertwines every
    generator exactly when the perturbed family is a genuine commuting
    action; the per-generator residuals are the numerical signature.  An
    interpolation budget (spectral tail of u) bounds the extra sup-norm
    error away from grid points.
    """
    u = field.u
    residuals = []
    for i in range(pert.k):
        if i == field.generator:
            # the solver's last residual is this sup on the same u and points
            residuals.append(field.residual)
            continue
        a_int = np.array(pert.base.generator(i), dtype=np.int64)
        perm = _permutation(a_int, field.resolution)
        residuals.append(_defect_sup(u, pert.p_eval(i, field.grid_points() + u),
                                     a_int.astype(np.float64), perm))
    tail = field.tail_fraction()
    budget = tail * max(field.sup_u(), 1e-300)
    return {
        "residuals": residuals,
        "solving_generator": field.generator,
        "interpolation_budget": budget,
        "spectral_tail_fraction": tail,
        "max_residual": max(residuals),
    }


def _eigen_directions(base, generator: int):
    """Real unit directions spanning the base eigenspaces, with labels.

    Complex pairs contribute their real and imaginary parts (a basis of
    the corresponding invariant plane).
    """
    lam, v_mat, _ = _eigendata(base.generator(generator))
    dirs = []
    seen_conj = set()
    for e, l in enumerate(lam):
        vec = v_mat[:, e]
        if abs(l.imag) < 1e-12:
            d = vec.real
            if np.max(np.abs(d)) < 1e-12:
                d = vec.imag
            dirs.append((d / np.linalg.norm(d), float(abs(l)), "real"))
        else:
            key = round(l.real, 9), round(abs(l.imag), 9)
            if key in seen_conj:
                continue
            seen_conj.add(key)
            for part, tag in ((vec.real, "re"), (vec.imag, "im")):
                if np.linalg.norm(part) > 1e-12:
                    dirs.append((part / np.linalg.norm(part), float(abs(l)), tag))
    return dirs


def regularity_probe(field: ConjugacyField) -> dict:
    """Finite-difference regularity of u along base eigen-directions.

    For each direction v and dyadic scale t (1/8 down to max(4/N, 1/256)):
    first differences sup |u(x + t v) - u(x)| and symmetric second
    differences sup |u(x + t v) + u(x - t v) - 2 u(x)|; slopes of log2(delta)
    against log2(t) estimate the Hölder exponent.  Off-grid values come from
    the trigonometric interpolant (exact when u is a trig polynomial;
    tail-limited otherwise, reported), so each difference is a Fourier
    multiplier on the field's spectrum: exp(i theta) - 1 and
    2 cos(theta) - 2 with theta = 2 pi t f.v, written with sin^2(theta/2)
    to avoid cancellation at small theta.  Both differences of the real
    field are real, so one inverse transform per scale and component
    carries them both (``_paired_multiplier``).
    """
    n, size = field.dim, field.resolution
    # start at 1/8: coarser shifts saturate low-frequency differences
    jmax = min(8, int(np.log2(size)) - 2)
    scales = [2.0 ** (-j) for j in range(3, jmax + 1)]
    directions = _eigen_directions(field.base, field.generator)
    report = {"scales": scales, "directions": [],
              "spectral_tail_fraction": field.tail_fraction()}
    if field.sup_u() < 1e-12:
        for d, mod, tag in directions:
            report["directions"].append({
                "direction": [float(x) for x in d],
                "eigen_modulus": mod, "part": tag,
                "classification": "smooth (zero displacement)",
                "holder_exponent": None, "slope_first": None,
                "slope_second": None, "delta1": [], "delta2": []})
        report["min_holder_exponent"] = None
        return report
    co = field.fourier
    freqs = np.fft.fftfreq(size, d=1.0 / size)
    min_exp = np.inf
    for d, mod, tag in directions:
        d1_list, d2_list = [], []
        for t in scales:
            d1, d2 = _paired_sups(co, _paired_multiplier(freqs, t * d))
            d1_list.append(d1)
            d2_list.append(d2)
        slope1 = _regression_slope(scales, d1_list)
        slope2 = _regression_slope(scales, d2_list)
        if slope1 is None:
            cls = "smooth (no variation along direction)"
            exponent = None
        elif slope1 < _C1_THRESHOLD:
            cls = "Holder (not C1)"
            exponent = slope1
            min_exp = min(min_exp, slope1)
        else:
            exponent = slope1
            min_exp = min(min_exp, slope1)
            cls = "C2 or better" if (slope2 is not None and slope2 >= 1.9) else "C1"
        report["directions"].append({
            "direction": [float(x) for x in d],
            "eigen_modulus": mod, "part": tag,
            "classification": cls,
            "holder_exponent": exponent,
            "slope_first": slope1, "slope_second": slope2,
            "delta1": d1_list, "delta2": d2_list})
    report["min_holder_exponent"] = None if min_exp is np.inf else float(min_exp)
    return report


def _paired_multiplier(freqs, shift):
    """H(m1) + i H(m2) on the (N,) * n frequency grid, for the differences
    m1 = exp(i theta) - 1 and m2 = 2 cos(theta) - 2, theta = 2 pi f.shift.

    H(m)(f) = (m(f) + conj m(-f)) / 2, indices mod N, is Hermitian, so the
    inverse transform of co * H(m) is real for the spectrum co of a real
    field, and equals Re ifftn(co * m).  H changes m only where a
    coordinate of f is the Nyquist index N/2, which is its own negative:
    there conj m(-f) is m at theta', theta with every Nyquist frequency
    -N/2 taken as +N/2 instead.  Elsewhere theta' = theta, and H(m) = m.
    """
    n, size = len(shift), freqs.shape[0]
    alt = freqs.copy()
    alt[size // 2] = -alt[size // 2]

    def phase(fr):
        return 2.0 * np.pi * sum(fr.reshape((size,) + (1,) * (n - 1 - a)) * shift[a]
                                 for a in range(n))

    theta, theta_alt = phase(freqs), phase(alt)
    half = -(np.sin(0.5 * theta) ** 2 + np.sin(0.5 * theta_alt) ** 2)  # Re H(m1)
    mult = np.empty(theta.shape, dtype=np.complex128)
    mult.real = half
    mult.imag = 0.5 * (np.sin(theta) + np.sin(theta_alt)) + 2.0 * half
    return mult


def _paired_sups(co, mult):
    """(sup |ifftn(co H(m1))|, sup |ifftn(co H(m2))|) over the grid and the
    field's components, for mult = H(m1) + i H(m2): both transforms are real,
    so one complex inverse transform per component holds the first in its
    real part and the second in its imaginary part."""
    axes = tuple(range(co.ndim - 1))
    sup1 = sup2 = 0.0
    for c in range(co.shape[-1]):
        v = co[..., c] * mult
        np.fft.ifftn(v, axes=axes, norm="forward", out=v)
        sup1 = max(sup1, float(np.max(np.abs(v.real))))
        sup2 = max(sup2, float(np.max(np.abs(v.imag))))
    return sup1, sup2


def _regression_slope(scales, deltas):
    xs, ys = [], []
    for t, dv in zip(scales, deltas):
        if dv > 1e-14:
            xs.append(np.log2(t))
            ys.append(np.log2(dv))
    if len(xs) < 2:
        return None
    xs, ys = np.array(xs), np.array(ys)
    return float(np.polyfit(xs, ys, 1)[0])
