"""Intertwining verification and directional regularity probes."""

from __future__ import annotations

import numpy as np

from .perturbation import ToralPerturbation
from .solver import (ConjugacyField, _blocks, _defect_pass, _eigendata, _permutation,
                     _sup_abs)

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
    residuals = []
    for i in range(pert.k):
        if i == field.generator:
            # the solver's last residual is this sup on the same u and points
            residuals.append(field.residual)
            continue
        # the permutation is freed before the spectrum below is made
        perm = _permutation(pert.matrix(i), field.resolution)
        residuals.append(_defect_pass(field.u, pert, i, perm, field.resolution))
        del perm
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
    carries them both (``_paired_multiplier``).  That transform runs in
    place in one work array of one component's size, into which the
    multiplier is written afresh for each component.
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
    work = np.empty(co.shape[:-1], dtype=np.complex128)
    min_exp = np.inf
    for d, mod, tag in directions:
        d1_list, d2_list = [], []
        for t in scales:
            d1, d2 = _paired_sups(co, freqs, t * d, work)
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


def _paired_multiplier(freqs, shift, out):
    """Write H(m1) + i H(m2) on the (N,) * n frequency grid into ``out``,
    for the differences m1 = exp(i theta) - 1 and m2 = 2 cos(theta) - 2,
    theta = 2 pi f.shift.

    H(m)(f) = (m(f) + conj m(-f)) / 2, indices mod N, is Hermitian, so the
    inverse transform of co * H(m) is real for the spectrum co of a real
    field, and equals Re ifftn(co * m).  H changes m only where a
    coordinate of f is the Nyquist index N/2, which is its own negative:
    there conj m(-f) is m at theta', theta with every Nyquist frequency
    -N/2 taken as +N/2 instead.  Elsewhere theta' = theta, and H(m) = m.
    The grid is written one block of ``_blocks`` (whole leading-axis
    slabs) at a time, with theta alone, and then each axis's Nyquist plane
    again with theta and theta'.
    """
    n, size = len(shift), freqs.shape[0]
    per = size ** (n - 1)
    alt = freqs.copy()
    alt[size // 2] = -alt[size // 2]
    phases = [freqs * s for s in shift]
    alt_phases = [alt * s for s in shift]
    rest = (slice(None),) * (n - 1)
    for rows in _blocks(n, size):
        slabs = slice(rows.start // per, rows.stop // per)
        _fill_multiplier(out, (slabs,) + rest, phases, None)
    for a in range(n):
        plane = rest[:a] + (slice(size // 2, size // 2 + 1),) + rest[a:]
        _fill_multiplier(out, plane, phases, alt_phases)


def _fill_multiplier(out, sel, phases, alt_phases):
    """``out[sel]`` of ``_paired_multiplier``, with theta the broadcast sum
    over the axes of the per-axis phases f * shift_a (theta' likewise from
    ``alt_phases``; None when theta' = theta on ``sel``)."""
    n = len(sel)

    def theta(ph):
        return 2.0 * np.pi * sum(ph[a][sel[a]].reshape((-1,) + (1,) * (n - 1 - a))
                                 for a in range(n))

    th = theta(phases)
    if alt_phases is None:
        half = np.sin(0.5 * th) ** 2
        half *= -2.0                                      # Re H(m1)
        im = np.sin(th)
    else:
        th_alt = theta(alt_phases)
        half = -(np.sin(0.5 * th) ** 2 + np.sin(0.5 * th_alt) ** 2)
        im = 0.5 * (np.sin(th) + np.sin(th_alt))
    im += 2.0 * half
    block = out[sel]
    block.real = half
    block.imag = im


def _paired_sups(co, freqs, shift, work):
    """(sup |ifftn(co H(m1))|, sup |ifftn(co H(m2))|) over the grid and the
    field's components, for the multiplier H(m1) + i H(m2) of ``shift``
    (``_paired_multiplier``): both transforms are real, so one complex
    inverse transform per component, in place in ``work``, holds the first
    in its real part and the second in its imaginary part."""
    axes = tuple(range(co.ndim - 1))
    sup1 = sup2 = 0.0
    for c in range(co.shape[-1]):
        _paired_multiplier(freqs, shift, work)
        np.multiply(co[..., c], work, out=work)
        np.fft.ifftn(work, axes=axes, norm="forward", out=work)
        sup1 = max(sup1, _sup_abs(work.real))
        sup2 = max(sup2, _sup_abs(work.imag))
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
