"""Intertwining verification and directional regularity probes.

The regularity probe reads the field's half spectrum
(``ConjugacyField.fourier``).  Besides u and that spectrum it holds one
half-grid complex work array and temporaries of a few leading-axis slabs:
each difference multiplier is written from per-axis half-angle phasor
tables into the work array, times the spectrum, and inverse-transformed
there, in place over the leading axes and then along the last axis a few
slabs at a time into a small real buffer.
"""

from __future__ import annotations

import numpy as np

from .perturbation import ToralPerturbation
from .solver import (ConjugacyField, _defect_pass, _eigendata, _permutation, _slabs,
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
    multiplier on the field's half spectrum: exp(i theta) - 1 and
    2 cos(theta) - 2 with theta = 2 pi t f.v, written with sin^2(theta/2)
    to avoid cancellation at small theta.  Both differences of the real
    field are real, and each takes one real inverse transform per scale
    and component (``_difference_sups``): in place over the leading axes
    in one half-grid work array, into which the product of the spectrum
    and the multiplier is written afresh each time, then along the last
    axis a few leading-axis slabs at a time into one real buffer.
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
    work = np.empty(co.shape[:-1], dtype=np.complex128)
    min_exp = np.inf
    for d, mod, tag in directions:
        d1_list, d2_list = [], []
        for t in scales:
            d1, d2 = _difference_sups(co, t * d, work, size)
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


def _half_angle_tables(size: int, shift) -> tuple:
    """Per-axis phasors exp(i pi f shift_a) over the frequencies f of the
    half grid, in fftfreq's order and sign on every axis (the last axis
    stops at index size/2, the frequency -size/2), so that their product
    over the axes is exp(i theta/2), theta = 2 pi f.shift.  Also the same
    tables with the Nyquist frequency taken as +size/2, whose product is
    exp(i theta'/2) (``_write_product``)."""
    freqs = np.fft.fftfreq(size, d=1.0 / size)
    tabs, alts = [], []
    for a, s in enumerate(shift):
        f = freqs if a < len(shift) - 1 else freqs[:size // 2 + 1]
        tab = np.exp((1j * np.pi * s) * f)
        alt = tab.copy()
        alt[size // 2] = alt[size // 2].conj()
        tabs.append(tab)
        alts.append(alt)
    return tabs, alts


def _write_product(out, co_c, tabs, alts, second: bool):
    """Write co_c H(m) over the half grid into ``out``, for m1 =
    exp(i theta) - 1 or, when ``second``, m2 = 2 cos(theta) - 2, theta =
    2 pi f.shift, with the tables of ``_half_angle_tables``.

    H(m)(f) = (m(f) + conj m(-f)) / 2, indices mod N, is Hermitian, so the
    inverse transform of co H(m) is real for the spectrum co of a real
    field, and equals Re ifftn(co m).  H changes m only where a
    coordinate of f is the Nyquist index N/2, which is its own negative:
    there conj m(-f) is m at theta', theta with every Nyquist frequency
    -N/2 taken as +N/2 instead.  Elsewhere theta' = theta, and H(m) = m.
    The grid is written a few leading-axis slabs (``_slabs``) at a time
    with theta alone, and then each axis's Nyquist plane again with theta
    and theta'.
    """
    n, size = out.ndim, tabs[0].shape[0]
    rest = (slice(None),) * (n - 1)
    for slabs in _slabs(out.shape[0], out[0].size):
        _fill_product(out, (slabs,) + rest, co_c, tabs, None, second)
    for a in range(n):
        plane = rest[:a] + (slice(size // 2, size // 2 + 1),) + rest[a:]
        _fill_product(out, plane, co_c, tabs, alts, second)


def _fill_product(out, sel, co_c, tabs, alts, second: bool):
    """``out[sel]`` of ``_write_product``, with exp(i theta/2) the broadcast
    product over the axes of the tables' entries on ``sel`` (theta' likewise
    from ``alts``; None when theta' = theta on ``sel``): sin(theta/2) is its
    imaginary part and sin(theta) twice the product of its parts."""
    n = len(sel)

    def half_angle(tables):
        h = tables[0][sel[0]].reshape((-1,) + (1,) * (n - 1))
        for a in range(1, n):
            h = h * tables[a][sel[a]].reshape((-1,) + (1,) * (n - 1 - a))
        return h

    h = half_angle(tabs)
    if alts is None:
        sq = np.square(h.imag)
        sq *= -2.0                                    # Re H(m1) = H(m2) / 2
        im = None if second else 2.0 * h.imag * h.real
    else:
        h_alt = half_angle(alts)
        sq = -(np.square(h.imag) + np.square(h_alt.imag))
        im = None if second else h.imag * h.real + h_alt.imag * h_alt.real
    block = out[sel]
    if second:
        sq *= 2.0
        np.multiply(co_c[sel], sq, out=block)
    else:
        block.real = sq
        block.imag = im
        block *= co_c[sel]


def _difference_sups(co, shift, work, size: int):
    """(sup |ifftn(co H(m1))|, sup |ifftn(co H(m2))|) over the size^n grid
    and the field's components, for the half spectrum ``co`` and the
    multipliers of ``shift`` (``_write_product``).  Each is a real inverse
    transform: in place in the half-grid array ``work`` over the leading
    axes, then along the last axis one group of leading-axis slabs
    (``_slabs``) at a time into one real buffer of a group's size."""
    n = work.ndim
    tabs, alts = _half_angle_tables(size, shift)
    groups = _slabs(work.shape[0], work[0].size)
    real = np.empty((groups[0].stop,) + (size,) * (n - 1))
    sups = [0.0, 0.0]
    for c in range(co.shape[-1]):
        for second in (False, True):
            _write_product(work, co[..., c], tabs, alts, second)
            for axis in range(n - 1):
                np.fft.ifft(work, axis=axis, norm="forward", out=work)
            for slabs in groups:
                out = real[:slabs.stop - slabs.start]
                np.fft.irfft(work[slabs], n=size, axis=n - 1, norm="forward", out=out)
                sups[second] = max(sups[second], _sup_abs(out))
    return sups[0], sups[1]


def _regression_slope(scales, deltas):
    """Least-squares slope of log2(delta) against log2(t) over the deltas
    above 1e-14, in closed form; None with fewer than two of them."""
    xs, ys = [], []
    for t, dv in zip(scales, deltas):
        if dv > 1e-14:
            xs.append(np.log2(t))
            ys.append(np.log2(dv))
    if len(xs) < 2:
        return None
    xs, ys = np.array(xs), np.array(ys)
    xs -= xs.mean()
    return float(xs @ (ys - ys.mean()) / (xs @ xs))
