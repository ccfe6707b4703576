import dataclasses
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from anosovkit import cli, intpoly, spectra
from anosovkit.conjugacy import solver
from anosovkit.conjugacy.perturbation import _BLOCK, _grid_points
from anosovkit.conjugacy.probes import (_eigen_directions, _half_angle_tables,
                                        _regression_slope, _write_product)
from anosovkit.conjugacy.solver import (
    ConjugacyField,
    _cycle_plan,
    _defect_pass,
    _eigendata,
    _orbit_starts,
    _permutation,
    _spectrum,
    _tail_fraction,
)
from anosovkit.conjugacy import (
    Diverged,
    NotAnosov,
    ToralPerturbation,
    TrigPolynomial,
    psi_conjugation,
    regularity_probe,
    shift_perturbation,
    solve_conjugacy,
    verify_intertwining,
)
from oracles import lapack_eigendata, reference_cycle_conjugacy
from strategies import semisimple_matrices
from test_cli import bench_corpus


def small_cat_pert(eps=0.01):
    p = TrigPolynomial([((0, 1), (0.0, 0.0), (eps, 0.0))], 2)
    cat = spectra.validate_action([[[2, 1], [1, 1]]])
    return ToralPerturbation(base=cat, perturbations=[p])


def psi_cat(eps=0.01):
    cat = spectra.validate_action([[[2, 1], [1, 1]]])
    q = TrigPolynomial([((1, 0), (0.15, 0.05), (0.2, 0.1)),
                        ((1, 1), (0.1, -0.15), (0.0, 0.12))], 2)
    return psi_conjugation(cat, q, eps)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def test_zero_perturbation_trivial(cat_action):
    pert = ToralPerturbation(base=cat_action,
                             perturbations=[TrigPolynomial([], 2)])
    field = solve_conjugacy(pert, resolution=32, tol=1e-12)
    assert field.iterations == 1
    assert field.residual == 0.0
    assert np.all(field.u == 0.0)


def test_cat_converges_small_grid():
    field = solve_conjugacy(small_cat_pert(), resolution=128, tol=1e-10)
    assert field.residual < 1e-10
    assert field.sup_u() < 0.05


def test_modes_agree():
    f1 = solve_conjugacy(small_cat_pert(), resolution=64, tol=1e-11)
    f2 = solve_conjugacy(small_cat_pert(), resolution=64, tol=1e-11,
                         mode="transfer")
    assert np.max(np.abs(f1.u - f2.u)) < 1e-9


# companion of x^3 - x - 1: eigenvalues 1.3247 and -0.662 +- 0.562i
X3_X_1 = [[0, 0, 1], [1, 0, 1], [0, 1, 0]]
# the T^3 pair M, N = M^2 - 2I of the t3_action fixture
T3_PAIR = [[[0, 0, -1], [1, 0, 2], [0, 1, 1]], [[-2, -1, -1], [0, 0, 1], [1, 1, 1]]]


def three_term_pert(generators, eps):
    """The action with these generators, each perturbed by the same
    three-term trig polynomial with coefficients of size eps."""
    base = spectra.validate_action(generators)
    n = base.dim
    e1, en, ones = np.eye(n, dtype=int)[0], np.eye(n, dtype=int)[-1], np.ones(n, dtype=int)
    p = TrigPolynomial([(e1, eps * np.r_[1.0, 0.5, np.zeros(n - 2)], 0.3 * eps * ones),
                        (en, np.zeros(n), eps * np.r_[1.0, np.full(n - 1, 0.2)]),
                        (ones - 2 * en, 0.4 * eps * e1, 0.6 * eps * np.eye(n)[1])], n)
    return ToralPerturbation(base=base, perturbations=[p] * base.k)


@pytest.mark.parametrize("generators, gen, size", [
    ([X3_X_1], 0, 16),
    ([[[2, 1], [1, 1]]], 0, 32),
    (T3_PAIR, 0, 16),
    (T3_PAIR, 1, 16),
], ids=["x3-x-1", "cat", "t3-M", "t3-N"])
def test_solver_matches_complex_cycle_reference(generators, gen, size):
    # the real (or batched complex) two-sided step against the per-component
    # complex cycle solve it replaced, both driven to a 1e-17 residual
    pert = three_term_pert(generators, 1e-3)
    want = reference_cycle_conjugacy(pert, gen, size, tol=1e-17)
    assert np.max(np.abs(want)) > 1e-3
    for mode in ("cycle", "transfer"):
        field = solve_conjugacy(pert, solving_generator=gen, resolution=size,
                                tol=1e-17, mode=mode)
        assert np.max(np.abs(field.u - want)) <= 1e-15, mode


def test_contraction_certificate():
    field = solve_conjugacy(small_cat_pert(), resolution=64, tol=1e-11,
                            mode="transfer")
    hist = field.residual_history
    bound = field.meta["rate_estimate"] + 0.15
    for a, b in zip(hist[1:-1], hist[2:]):
        assert b <= a * bound + 1e-14


def test_not_anosov_refused(phi3_action):
    pert = ToralPerturbation(base=phi3_action,
                             perturbations=[TrigPolynomial([], 2)])
    with pytest.raises(NotAnosov):
        solve_conjugacy(pert, resolution=16)


SALEM4 = [[0, 0, 0, -1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]


def test_salem_base_not_anosov():
    # companion of x^4 - x^3 - x^2 - x + 1: two real eigenvalues off the
    # unit circle and a conjugate pair on it, none a root of unity
    base = spectra.validate_action([SALEM4])
    assert spectra.is_weak_mixing(SALEM4)
    p = TrigPolynomial([((0, 1, 0, 0), (0.0,) * 4, (1e-3, 0.0, 0.0, 0.0))], 4)
    pert = ToralPerturbation(base=base, perturbations=[p])
    with pytest.raises(NotAnosov):
        solve_conjugacy(pert, resolution=8)


def test_eigendata_order_and_scaling(t3_action):
    for key in [((2, 1), (1, 1))] + list(t3_action.generators):
        lam, v_mat, w_mat = _eigendata(key)
        a = np.array(key, dtype=float)
        assert np.allclose(a @ v_mat, v_mat * lam[None, :], atol=1e-12)
        assert np.allclose(w_mat @ v_mat, np.eye(len(lam)), atol=1e-12)
        mods = np.abs(lam)
        assert np.all(np.diff(mods) > 0)       # distinct moduli, ascending
        for e in range(len(lam)):
            nonzero = np.flatnonzero(np.abs(v_mat[:, e]) > 1e-12)
            assert abs(v_mat[nonzero[-1], e] - 1.0) < 1e-15


def _decomposition_errors(matrix, lam, v_mat, w_mat):
    """(max |V Lam W - A| / max |A|, max |W V - I|)."""
    a = np.array(matrix, dtype=float)
    return (np.abs((v_mat * lam) @ w_mat - a).max() / max(1.0, np.abs(a).max()),
            np.abs(w_mat @ v_mat - np.eye(len(lam))).max())


def test_eigendata_accurate_on_presets_and_corpus_bases(t3_action):
    # every semisimple generator of the preset bases and of the spectral
    # benchmark corpus, up to dimension 6 with real and complex spectra
    bases = [((2, 1), (1, 1))] + list(t3_action.generators)
    for op in bench_corpus("spectral"):
        for obj in op.files.values():
            d = obj["dim"]
            bases += [[g[i * d:(i + 1) * d] for i in range(d)] for g in obj["generators"]]
    checked = 0
    for key in bases:
        if not intpoly.is_semisimple_matrix(key):
            continue
        recon, inverse = _decomposition_errors(key, *_eigendata(key))
        assert recon <= 1e-14 and inverse <= 1e-14, (key, recon, inverse)
        checked += 1
    assert checked > 40


@settings(max_examples=80)
@given(semisimple_matrices())
def test_eigendata_matches_lapack(matrix):
    # complex pairs and repeated eigenvalues: the same order, signs and
    # scaling as LAPACK's eigendata; a repeated eigenvalue's eigenvectors
    # are a basis of its eigenspace, so there its spectral projector V W is
    # compared instead
    lam, v_mat, w_mat = _eigendata(matrix)
    ref_lam, ref_v, ref_w = lapack_eigendata(matrix)
    recon, inverse = _decomposition_errors(matrix, lam, v_mat, w_mat)
    assert recon <= 1e-10 and inverse <= 1e-10
    assert np.abs(lam - ref_lam).max() <= 1e-8 * max(1.0, np.abs(ref_lam).max())
    n, start = len(lam), 0
    while start < n:
        stop = start + 1
        while stop < n and lam[stop] == lam[start]:
            stop += 1
        if stop - start == 1:
            assert np.abs(v_mat[:, start] - ref_v[:, start]).max() <= \
                1e-8 * max(1.0, np.abs(ref_v[:, start]).max())
        proj = v_mat[:, start:stop] @ w_mat[start:stop]
        ref = ref_v[:, start:stop] @ ref_w[start:stop]
        assert np.abs(proj - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max())
        start = stop


@pytest.mark.parametrize("argv, code", [
    (["--preset", "psi-cat", "--grid", "64"], 0),
    (["--preset", "t3-gen1-only", "--grid", "32", "--eps", "0.005"], 2),
], ids=["psi-cat", "t3-gen1-only"])
def test_conjugate_calls_no_lapack(monkeypatch, tmp_path, argv, code):
    # the solve, the intertwining check and the probe, with its eigen
    # directions and slopes, run with numpy's LAPACK entry points raising
    def lapack(*args, **kwargs):
        raise AssertionError("LAPACK called")

    for name in ("eig", "eigvals", "inv", "solve", "lstsq", "svd"):
        monkeypatch.setattr(np.linalg, name, lapack)
    monkeypatch.setattr(np, "polyfit", lapack)
    out = tmp_path / "out.json"
    assert cli.main(["conjugate", *argv, "--probe", "--tol", "1e-13",
                     "--output", str(out)]) == code
    result = json.loads(out.read_text())["result"]
    assert "error" not in result and result["regularity"]["directions"]


def test_regression_slope_matches_polyfit():
    rng = np.random.default_rng(3)
    scales = [2.0 ** -j for j in range(3, 9)]
    for _ in range(20):
        deltas = list(rng.uniform(0.1, 1.0, len(scales)) * np.array(scales) ** rng.uniform(0, 2))
        want = np.polyfit(np.log2(scales), np.log2(deltas), 1)[0]
        assert abs(_regression_slope(scales, deltas) - want) <= 1e-12
    assert _regression_slope(scales, [1.0] + [0.0] * 5) is None


def test_oversized_refused(cat_action):
    p = TrigPolynomial([((0, 1), (0.0, 0.0), (0.5, 0.0))], 2)
    pert = ToralPerturbation(base=cat_action, perturbations=[p])
    with pytest.raises(Diverged):
        solve_conjugacy(pert, resolution=32)


def test_solver_working_set_bounded():
    # psi-t3 at 64^3: the whole-grid psi inversion and the solver's stale
    # temporaries peaked at 11x the field, the whole-array iteration at
    # about 7x, the blocked pass with int64 plans at 3.1x; with int32 plans
    # it peaks at 2.8x
    pert, _ = cli._build_preset("psi-t3", 0.005)
    tracemalloc.start()
    try:
        field = solve_conjugacy(pert, resolution=64, tol=1e-13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field.residual < 1e-13
    assert peak < 3.2 * field.u.nbytes


def test_defect_sup_blocks_match_whole_grid(monkeypatch):
    # a block that does not divide the grid, and is a multiple of the trig
    # kernel's block so that p is evaluated on the same point sets: the
    # max over the blocked pass is the whole-grid max, bit for bit
    monkeypatch.setattr(solver, "_ROWS", 3 * _BLOCK)
    size = 32
    pert = three_term_pert(T3_PAIR, 1e-3)
    u = 1e-3 * np.random.default_rng(7).normal(size=(size ** 3, 3))
    x = _grid_points(3, size)
    for gen in range(pert.k):
        a_int = pert.matrix(gen)
        perm = _permutation(a_int, size)
        whole = np.max(np.abs(u @ a_int.T.astype(np.float64) + pert.p_eval(gen, x + u)
                              - u[perm]))
        assert _defect_pass(u, pert, gen, perm, size) == whole


def test_permutation_blocks_match_whole_grid(monkeypatch):
    # the permutation built in blocks that do not divide the grid against
    # the whole-grid index arrays it replaced
    monkeypatch.setattr(solver, "_ROWS", 1000)
    for key, size in [(T3_PAIR[0], 16), (T3_PAIR[1], 16), ([[2, 1], [1, 1]], 64)]:
        a_int = np.array(key, dtype=np.int64)
        n = a_int.shape[0]
        idx = np.indices((size,) * n).reshape(n, -1)
        want = np.ravel_multi_index((a_int @ idx) % size, (size,) * n)
        assert np.array_equal(_permutation(a_int, size), want)


@pytest.mark.parametrize("generators, gen, size", [
    ([X3_X_1], 0, 16),
    ([[[2, 1], [1, 1]]], 0, 32),
    (T3_PAIR, 1, 16),
], ids=["x3-x-1", "cat", "t3-N"])
def test_streamed_solve_with_ragged_blocks(monkeypatch, generators, gen, size):
    # the blocked pass with a row block that does not divide N^n: the last
    # block is short, in both modes, and the result is still the reference
    # cycle solve's
    monkeypatch.setattr(solver, "_ROWS", 1000)
    blocks = solver._blocks(len(generators[0]), size)
    assert len(blocks) > 1 and blocks[-1].stop - blocks[-1].start < blocks[0].stop
    pert = three_term_pert(generators, 1e-3)
    want = reference_cycle_conjugacy(pert, gen, size, tol=1e-17)
    for mode in ("cycle", "transfer"):
        field = solve_conjugacy(pert, solving_generator=gen, resolution=size,
                                tol=1e-17, mode=mode)
        assert np.max(np.abs(field.u - want)) <= 1e-15, mode


@pytest.mark.parametrize("preset, eps", [("psi-cat", 0.01), ("psi-t3", 0.005)])
@pytest.mark.parametrize("count", [1000, _BLOCK, 2 * _BLOCK + 37])
def test_conjugated_perturbation_inversion_free_oracle(monkeypatch, preset, eps, count):
    # at y = psi(x) = x + eps q(x), f_i = psi A_i psi^-1 gives
    # p_i(y) = eps q(A_i x) - eps A_i q(x), with no inversion of psi; with
    # the displacement eps q(x) as the hint the inversion starts at x, and
    # each block takes one step and one more evaluation of q
    pert, _ = cli._build_preset(preset, eps)
    q = pert.perturbations[0].q
    x = np.random.default_rng(count).random((count, pert.dim))
    disp = eps * q.evaluate(x)
    y = x + disp
    calls = []
    evaluate = q.evaluate

    def counting(points):
        calls.append(1)
        return evaluate(points)

    for i in range(pert.k):
        a_mat = pert.matrix(i).astype(np.float64)
        want = eps * q.evaluate(x @ a_mat.T) - eps * (q.evaluate(x) @ a_mat.T)
        assert np.max(np.abs(pert.p_eval(i, y) - want)) <= 1e-14
        monkeypatch.setattr(q, "evaluate", counting)
        assert np.max(np.abs(pert.p_eval(i, y, disp) - want)) <= 1e-14
        monkeypatch.undo()
        assert len(calls) == 2 * -(-count // _BLOCK)
        calls.clear()


def test_psi_recovery_and_uniqueness():
    pert, truth = psi_cat()
    field = solve_conjugacy(pert, resolution=128, tol=1e-11)
    err = np.max(np.abs(field.u - truth(field.grid_points())))
    assert err < 1e-8


def test_recovery_stable_across_resolutions():
    # grid values are exact samples, so the error stays at solver-tolerance
    # scale at every resolution instead of decaying with a scheme order
    pert, truth = psi_cat()
    for res in (64, 128, 256):
        field = solve_conjugacy(pert, resolution=res, tol=1e-11)
        err = np.max(np.abs(field.u - truth(field.grid_points())))
        assert err < 1e-9, res


def test_equivariance_generator_vs_square(cat_action):
    # the same psi conjugates A and A^2; both solves recover it
    q = TrigPolynomial([((1, 0), (0.1, 0.05), (0.12, 0.06))], 2)
    pert1, truth = psi_conjugation(cat_action, q, 0.01)
    a2 = np.array([[2, 1], [1, 1]]) @ np.array([[2, 1], [1, 1]])
    sq = spectra.validate_action([a2.tolist()])
    pert2, _ = psi_conjugation(sq, q, 0.01)
    f1 = solve_conjugacy(pert1, resolution=64, tol=1e-11)
    f2 = solve_conjugacy(pert2, resolution=64, tol=1e-11)
    assert np.max(np.abs(f1.u - f2.u)) < 1e-9


def test_translation_gauge():
    # base with |det(A - I)| = 2: the half-period c = (0, 1/2) satisfies
    # (A - I) c integral, so conjugating the data by the translation keeps
    # the equation solvable and h_c(x) = h(x + c) - c
    base = spectra.validate_action([[[3, 2], [1, 1]]])
    c = np.array([0.0, 0.5])
    a_mat = np.array([[3, 2], [1, 1]])
    assert np.allclose(((a_mat - np.eye(2)) @ c) % 1.0, 0.0)
    p = TrigPolynomial([((0, 1), (0.005, 0.0), (0.008, 0.004)),
                        ((1, 1), (0.0, 0.006), (0.004, 0.0))], 2)
    pert = ToralPerturbation(base=base, perturbations=[p])
    field = solve_conjugacy(pert, resolution=64, tol=1e-11)
    shifted = shift_perturbation(pert, c)
    field_c = solve_conjugacy(shifted, resolution=64, tol=1e-11)
    # u_c(x) = u(x + c): compare by rolling the grid half a period in x2
    u = field.u.reshape(64, 64, 2)
    u_c = field_c.u.reshape(64, 64, 2)
    assert np.max(np.abs(u_c - np.roll(u, -32, axis=1))) < 1e-9


# ---------------------------------------------------------------------------
# intertwining
# ---------------------------------------------------------------------------


def test_intertwining_k1_matches_solver_residual():
    pert = small_cat_pert()
    field = solve_conjugacy(pert, resolution=64, tol=1e-11)
    rep = verify_intertwining(field, pert)
    assert rep["residuals"][0] == field.residual


def test_intertwining_commuting_t3(t3_action):
    q = TrigPolynomial([((1, 0, 0), (0.08, 0.04, -0.05), (0.1, 0.0, 0.06))], 3)
    pert, truth = psi_conjugation(t3_action, q, 0.004)
    field = solve_conjugacy(pert, resolution=32, tol=1e-10)
    rep = verify_intertwining(field, pert)
    assert rep["residuals"][1] < 1e-8
    err = np.max(np.abs(field.u - truth(field.grid_points())))
    assert err < 1e-8


def test_intertwining_negative_control(t3_action):
    eps = 0.005
    p1 = TrigPolynomial([((0, 1, 1), (0.0, eps, 0.0), (eps, 0.0, eps))], 3)
    pert = ToralPerturbation(base=t3_action,
                             perturbations=[p1, TrigPolynomial([], 3)])
    assert pert.commutativity_defect() > 1e-4
    field = solve_conjugacy(pert, resolution=32, tol=1e-10)
    rep = verify_intertwining(field, pert)
    assert rep["residuals"][0] < 1e-9
    assert rep["residuals"][1] > 1e-3


# ---------------------------------------------------------------------------
# regularity probe
# ---------------------------------------------------------------------------


def test_probe_zero_displacement(cat_action):
    pert = ToralPerturbation(base=cat_action,
                             perturbations=[TrigPolynomial([], 2)])
    field = solve_conjugacy(pert, resolution=64)
    rep = regularity_probe(field)
    assert all("smooth" in d["classification"] for d in rep["directions"])


def test_probe_psi_case_at_least_c1():
    pert, _ = psi_cat()
    field = solve_conjugacy(pert, resolution=256, tol=1e-11)
    rep = regularity_probe(field)
    for d in rep["directions"]:
        assert d["classification"] in ("C1", "C2 or better",
                                       "smooth (zero displacement)")


def shifted_interpolant_deltas(field, scales):
    """Reference: the probe's differences as the sup of u(x + t v) - u(x) and
    u(x + t v) + u(x - t v) - 2 u(x), with the shifted fields built from the
    trigonometric interpolant in real space (the formula the probe used
    before it applied difference multipliers to the spectrum)."""
    n, size = field.dim, field.resolution
    ug = field.u.reshape((size,) * n + (n,))
    co = np.fft.fftn(ug, axes=tuple(range(n))) / size ** n
    freqs = np.fft.fftfreq(size, d=1.0 / size).astype(int)
    mesh = np.meshgrid(*([freqs] * n), indexing="ij")
    out = []
    for d, _, _ in _eigen_directions(field.base, field.generator):
        d1, d2 = [], []
        for t in scales:
            phase = np.zeros((size,) * n)
            for axis in range(n):
                phase = phase + mesh[axis] * (t * d[axis])
            rot = np.exp(2j * np.pi * phase)
            up = np.fft.ifftn(co * rot[..., None] * size ** n,
                              axes=tuple(range(n))).real
            um = np.fft.ifftn(co * np.conj(rot)[..., None] * size ** n,
                              axes=tuple(range(n))).real
            d1.append(np.max(np.abs(up - ug)))
            d2.append(np.max(np.abs(up + um - 2 * ug)))
        out.append((d1, d2))
    return out


@pytest.mark.parametrize("preset, eps, grid", [
    ("cat-sin", 0.01, 128),
    ("t3-gen1-only", 0.005, 32),
])
def test_probe_matches_shifted_interpolant(preset, eps, grid):
    pert, _ = cli._build_preset(preset, eps)
    field = solve_conjugacy(pert, resolution=grid, tol=1e-10)
    rep = regularity_probe(field)
    want = shifted_interpolant_deltas(field, rep["scales"])
    assert len(rep["directions"]) == len(want) > 0
    for got, (d1, d2) in zip(rep["directions"], want):
        assert np.max(np.abs(np.array(got["delta1"]) - d1)) <= 1e-12 * field.sup_u()
        assert np.max(np.abs(np.array(got["delta2"]) - d2)) <= 1e-12 * field.sup_u()


def two_transform_deltas(field, scales):
    """Reference: the probe's differences as sup |Re ifftn(co m)| with one
    inverse transform of all components per multiplier m, exp(i theta) - 1
    and 2 cos(theta) - 2 (the formula before the paired transform)."""
    n, size = field.dim, field.resolution
    co = np.fft.fftn(field.u.reshape((size,) * n + (n,)), axes=tuple(range(n))) / size ** n
    freqs = np.fft.fftfreq(size, d=1.0 / size)
    out = []
    for d, _, _ in _eigen_directions(field.base, field.generator):
        d1, d2 = [], []
        for t in scales:
            theta = 2.0 * np.pi * sum(
                freqs.reshape((size,) + (1,) * (n - 1 - a)) * (t * d[a])
                for a in range(n))
            half = -2.0 * np.sin(0.5 * theta) ** 2
            for mult, sups in ((half + 1j * np.sin(theta), d1), (2.0 * half, d2)):
                v = np.fft.ifftn(co * mult[..., None], axes=tuple(range(n)),
                                 norm="forward")
                sups.append(np.max(np.abs(v.real)))
        out.append((d1, d2))
    return out


def test_probe_matches_two_transform_reference():
    # a rough field with Nyquist content: the paired transform needs the
    # Hermitian symmetrization of its multipliers to match
    pert, _ = cli._build_preset("t3-gen1-only", 0.005)
    field = solve_conjugacy(pert, resolution=32, tol=1e-10)
    rep = regularity_probe(field)
    want = two_transform_deltas(field, rep["scales"])
    assert len(rep["directions"]) == len(want) > 0
    for got, (d1, d2) in zip(rep["directions"], want):
        np.testing.assert_allclose(got["delta1"], d1, rtol=1e-12, atol=0)
        np.testing.assert_allclose(got["delta2"], d2, rtol=1e-12, atol=0)


def paired_multiplier(size, shift):
    """Reference: H(m1) + i H(m2) on the full (N,) * n grid, the multiplier
    of the probe's paired complex transform, from the definition
    H(m)(f) = (m(f) + conj m(-f)) / 2 with fftfreq's frequencies."""
    n = len(shift)
    freqs = np.fft.fftfreq(size, d=1.0 / size)
    theta = 2.0 * np.pi * sum(freqs.reshape((size,) + (1,) * (n - 1 - a)) * shift[a]
                              for a in range(n))
    theta = np.broadcast_to(theta, (size,) * n)
    neg = np.ix_(*[-np.arange(size) % size] * n)

    def herm(m):
        return 0.5 * (m + np.conj(m[neg]))

    return herm(np.exp(1j * theta) - 1.0) + 1j * herm(2.0 * np.cos(theta) - 2.0)


@pytest.mark.parametrize("n, size", [(2, 2), (2, 16), (3, 2), (3, 8)])
def test_half_grid_multiplier_matches_full_grid(n, size):
    # the half grid's H(m1) and H(m2) are the full grid's on the frequency
    # indices with last index 0 .. N/2, Nyquist planes and the entries with
    # two or three Nyquist coordinates included: the last index N/2 is the
    # frequency -N/2, as on every other axis
    rng = np.random.default_rng(size + n)
    ones = np.ones((size,) * (n - 1) + (size // 2 + 1,))
    work = np.empty(ones.shape, dtype=np.complex128)
    for _ in range(4):
        shift = rng.uniform(-0.3, 0.3, size=n)
        want = paired_multiplier(size, shift)[..., :size // 2 + 1]
        tabs, alts = _half_angle_tables(size, shift)
        _write_product(work, ones, tabs, alts, False)
        h1 = work.copy()
        _write_product(work, ones, tabs, alts, True)
        assert not work.imag.any()
        np.testing.assert_allclose(h1 + 1j * work.real, want, rtol=0, atol=1e-14)


def test_probe_run_transforms_the_field_once(monkeypatch, tmp_path):
    calls = []
    rfft = np.fft.rfft

    def counting_rfft(*args, **kwargs):
        calls.append(1)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    code = cli.main(["conjugate", "--preset", "t3-gen1-only", "--eps", "0.005",
                     "--grid", "32", "--probe", "--output", str(tmp_path / "report.json")])
    assert code == 2      # the negative control: generator 1 is not intertwined
    report = json.loads((tmp_path / "report.json").read_text())
    assert "regularity" in report["result"]
    assert len(calls) == 1


def test_probe_peak_memory_bounded():
    # the 64^3 negative control, the field's spectrum included; the
    # shifted-field formula peaked near 14x, whole-grid multipliers and
    # spectrum near 7x, one full-grid work array per component at 2.8x,
    # and the half spectrum with one half-grid work array peaks at 1.5x
    pert, _ = cli._build_preset("t3-gen1-only", 0.005)
    field = solve_conjugacy(pert, resolution=64, tol=1e-10)
    tracemalloc.start()
    try:
        regularity_probe(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * field.u.nbytes


def test_probe_generic_case_holder():
    eps = 0.02
    p = TrigPolynomial([((0, 1), (eps * 0.5, 0.0), (eps, 0.0)),
                        ((1, 0), (0.0, eps * 0.3), (0.0, eps * 0.6)),
                        ((1, 1), (eps * 0.2, 0.0), (0.0, eps * 0.4))], 2)
    cat = spectra.validate_action([[[2, 1], [1, 1]]])
    pert = ToralPerturbation(base=cat, perturbations=[p])
    field = solve_conjugacy(pert, resolution=256, tol=1e-11)
    rep = regularity_probe(field)
    assert rep["min_holder_exponent"] < 0.95


# ---------------------------------------------------------------------------
# perturbation plumbing and exports
# ---------------------------------------------------------------------------


def test_trig_polynomial_json_roundtrip():
    p = TrigPolynomial([((1, 2), (0.5, -0.25), (0.0, 1.0))], 2)
    q = TrigPolynomial.from_json(p.to_json(), 2)
    pts = np.random.default_rng(0).random((50, 2))
    assert np.allclose(p.evaluate(pts), q.evaluate(pts))


def test_flat_json_form_sine_convention():
    obj = {"frequencies": [[0, 1]], "coefficients": [[1.0, 0.0]],
           "epsilon": 0.01}
    p = TrigPolynomial.from_json(obj, 2)
    pts = np.array([[0.0, 0.25]])
    assert p.evaluate(pts)[0, 0] == pytest.approx(0.01)


def test_binary_export(tmp_path):
    pert = small_cat_pert()
    field = solve_conjugacy(pert, resolution=32, tol=1e-10)
    path = tmp_path / "field.bin"
    field.export_binary(str(path))
    raw = path.read_bytes()
    assert raw[:8] == b"AKFIELD1"
    dim, res = struct.unpack("<II", raw[8:16])
    assert (dim, res) == (2, 32)
    data = np.frombuffer(raw[16:], dtype="<f8").reshape(32 * 32, 2)
    assert np.allclose(data, field.u)
    # the same bytes as the copy the dump used to write
    assert raw[16:] == np.ascontiguousarray(field.u, "<f8").tobytes()


def test_fourier_table_deterministic():
    pert = small_cat_pert()
    field = solve_conjugacy(pert, resolution=64, tol=1e-10)
    t1 = field.fourier_table(top=8)
    t2 = field.fourier_table(top=8)
    assert t1 == t2
    assert all("freq" in e and "re" in e for e in t1)


def full_spectrum(co, size):
    """The N^n spectrum of a real field from its half spectrum: the
    coefficient at -f (indices mod N) is the conjugate of the one at f."""
    n = co.ndim - 1
    full = np.zeros((size,) * n + (n,), dtype=np.complex128)
    full[..., :size // 2 + 1, :] = co
    neg = np.ix_(*[-np.arange(size) % size] * n)
    mirrored = np.conj(full[neg])
    full[..., size // 2 + 1:, :] = mirrored[..., size // 2 + 1:, :]
    return full


def whole_array_fourier_table(field, top, co=None):
    """Reference: the table with every magnitude rounded, the rule
    ``fourier_table`` used before its raw-magnitude pre-cut, on the N^n
    spectrum ``co`` (default: the one of the field's half spectrum)."""
    n, size = field.dim, field.resolution
    if co is None:
        co = full_spectrum(field.fourier, size)
    freqs = np.fft.fftfreq(size, d=1.0 / size).astype(int)
    mags = np.abs(co).sum(axis=-1).ravel()
    keys = -solver._round_sig(mags)
    cut = np.partition(keys, min(top, keys.size) - 1)[min(top, keys.size) - 1]
    kept = np.flatnonzero(keys <= cut)
    out = []
    for flat in kept[np.argsort(keys[kept], kind="stable")][:top]:
        if mags[flat] < 1e-15:
            break
        idx = np.unravel_index(flat, (size,) * n)
        out.append({"freq": [int(freqs[i]) for i in idx],
                    "re": [float(x) for x in co[idx].real],
                    "im": [float(x) for x in co[idx].imag]})
    return out


def test_fourier_table_matches_whole_array_rule():
    # control-t3-64's field (the grid workload's t3-gen1-only --probe op)
    pert, _ = cli._build_preset("t3-gen1-only", 0.005)
    field = solve_conjugacy(pert, resolution=64, tol=1e-13)
    for top in (1, 16, 64, 500):
        assert field.fourier_table(top=top) == whole_array_fourier_table(field, top)


def tied_field(rng, n, size):
    """A random real field on the size^n grid plus three cosine modes of
    one amplitude: with the +-f pairs of a real field, ties of magnitude
    that the table orders by flat index."""
    x = _grid_points(n, size)
    u = rng.standard_normal((size ** n, n))
    for _ in range(3):
        f = rng.integers(-size // 2, size // 2 + 1, size=n)
        u += 40.0 * np.cos(2.0 * np.pi * (x @ f))[:, None]
    return u


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("size", [1, 2, 4, 8, 64])
def test_half_spectrum_table_and_tail_match_fftn(n, size):
    # the Fourier table and the tail fraction read from the half spectrum
    # against the whole-array rules on np.fft.fftn: the same modes in the
    # same order with values and tail equal to roundoff, and exactly the
    # whole-array rule on the N^n spectrum the half spectrum stands for
    rng = np.random.default_rng(100 * n + size)
    base = spectra.validate_action(T3_PAIR if n == 3 else [[[2, 1], [1, 1]]])
    u = tied_field(rng, n, size)
    field = ConjugacyField(base=base, generator=0, resolution=size, u=u, residual=0.0,
                           iterations=0, residual_history=[], mode="cycle")
    full = np.fft.fftn(u.reshape((size,) * n + (n,)), axes=tuple(range(n))) / size ** n
    for top in (1, 7, 64):
        got = field.fourier_table(top=top)
        assert got == whole_array_fourier_table(field, top)
        want = whole_array_fourier_table(field, top, co=full)
        assert [e["freq"] for e in got] == [e["freq"] for e in want]
        for g, w in zip(got, want):
            np.testing.assert_allclose(g["re"] + g["im"], w["re"] + w["im"],
                                       rtol=0, atol=1e-12)
    mags = np.abs(full).sum(axis=-1)
    freqs = np.abs(np.fft.fftfreq(size, d=1.0 / size))
    tail = np.zeros(mags.shape, dtype=bool)
    for axis in range(n):
        tail |= np.expand_dims(freqs > size // 4, tuple(a for a in range(n) if a != axis))
    want_tail = mags[tail].sum() / mags.sum()
    got_tail = _tail_fraction(_spectrum(u, n, size), size)
    assert got_tail == pytest.approx(want_tail, rel=1e-12, abs=1e-300)
    assert field.tail_fraction() == got_tail


def test_fourier_table_order_stable_under_roundoff():
    # the +-f modes of a real field have equal magnitudes; their order must
    # not depend on roundoff in u (without the tie rule, 11 of 20 such
    # perturbations swapped a pair)
    field = solve_conjugacy(small_cat_pert(), resolution=64, tol=1e-10)
    order = [e["freq"] for e in field.fourier_table(top=16)]
    rng = np.random.default_rng(7)
    for _ in range(20):
        noisy = field.u * (1.0 + 1e-16 * rng.standard_normal(field.u.shape))
        # a new field: the spectrum is kept per field
        table = dataclasses.replace(field, u=noisy).fourier_table(top=16)
        assert [e["freq"] for e in table] == order


# ---------------------------------------------------------------------------
# kernels against the reference implementations they replaced
# ---------------------------------------------------------------------------


def per_term_evaluate(tp, points):
    """Reference: the per-term loop TrigPolynomial.evaluate used to run."""
    out = np.zeros_like(points)
    for freq, cosv, sinv in tp.terms:
        phase = np.zeros(points.shape[0])
        for d, fd in enumerate(freq):
            if fd:
                phase += fd * points[:, d]
        phase *= 2.0 * np.pi
        if np.any(cosv):
            out += np.cos(phase)[:, None] * cosv[None, :]
        if np.any(sinv):
            out += np.sin(phase)[:, None] * sinv[None, :]
    return out


@pytest.mark.parametrize("terms, fmax, dim, const, dyadic", [
    (1, 64, 3, True, True),      # fewer terms than axes: phase matrix
    (2, 64, 3, False, True),
    (2, 64, 3, False, False),
    (2, 2, 2, True, False),
    (24, 2, 3, True, False),     # more terms than axes: power tables
    (24, 2, 3, False, True),
    (40, 8, 3, True, True),
    (40, 8, 3, False, False),
    (30, 64, 3, True, True),     # tables larger than the phasors: phase matrix
    (30, 64, 2, True, False),
    (0, 0, 2, True, False),      # a lone constant term: power tables, no axis
], ids=lambda v: str(v))
def test_trig_evaluate_matches_per_term_loop(terms, fmax, dim, const, dyadic):
    rng = np.random.default_rng(terms * 1000 + fmax * 10 + dim)
    data = [(rng.integers(-fmax, fmax + 1, dim), rng.normal(size=dim),
             rng.normal(size=dim)) for _ in range(terms)]
    if const:
        data.append(((0,) * dim, rng.normal(size=dim), np.zeros(dim)))
    tp = TrigPolynomial(data, dim)
    points = (rng.integers(0, 1024, (9000, dim)) / 1024 if dyadic
              else rng.random((9000, dim)))
    diff = np.abs(tp.evaluate(points) - per_term_evaluate(tp, points)).max()
    weight = [np.abs(c).sum() + np.abs(s).sum() for _, c, s in tp.terms]
    if dyadic and fmax > 8 or fmax <= 2:
        # phase matrix at dyadic points (exact phases) or small phases:
        # agreement to roundoff
        assert diff <= 1e-15 * sum(weight)
    # the reference rounds 2 pi f.x to ~ulp(2 pi |f.x|) itself
    assert diff <= 1e-15 * sum(w * (1 + 2 * np.pi * np.abs(f).sum())
                               for w, (f, _, _) in zip(weight, tp.terms))


def two_half_evaluate(tp, points):
    """Reference: the phase-matrix kernel with both halves, one cos and one
    sin per term, before zero halves were skipped."""
    t = len(tp.terms)
    freqs = np.array([list(f) + [0] * (tp.dim - len(f)) for f, _, _ in tp.terms],
                     dtype=np.float64)
    coeffs = np.array([c for _, c, _ in tp.terms] + [s for _, _, s in tp.terms])
    out = np.empty((points.shape[0], tp.dim))
    for lo in range(0, points.shape[0], _BLOCK):
        ph = freqs @ points[lo:lo + _BLOCK].T
        ph *= 2.0 * np.pi
        trig = np.empty((2 * t, ph.shape[1]))
        np.cos(ph, out=trig[:t])
        np.sin(ph, out=trig[t:])
        np.matmul(trig.T, coeffs, out=out[lo:lo + _BLOCK])
    return out


@pytest.mark.parametrize("terms, dim, half", [
    ([((0, 1), (0.0, 0.0), (0.01, 0.0))], 2, np.sin),                    # cat-sin
    ([((1, 0, 0), (0.01, 0.0, 0.0), (0.0,) * 3),
      ((0, 1, 1), (0.0, 0.02, -0.01), (0.0,) * 3)], 3, np.cos),           # cos only
], ids=["cat-sin", "cos-only"])
def test_trig_zero_half_skipped(terms, dim, half):
    # one transcendental per point and term, and the same values as both
    # halves give
    tp = TrigPolynomial(terms, dim)
    assert tp._direct and tp._halves == [half]
    points = np.random.default_rng(dim).random((2 * _BLOCK + 37, dim))
    assert np.array_equal(tp.evaluate(points), two_half_evaluate(tp, points))


def python_cycle_walk(matrix_key, size):
    """Reference: the pure-Python cycle walk the cycle plan used to run,
    as (length, orbits) groups with one orbit x_0, A x_0, ... per row."""
    matrix = np.array([list(r) for r in matrix_key], dtype=np.int64)
    perm = _permutation(matrix, size)
    m = perm.shape[0]
    visited = np.zeros(m, dtype=bool)
    order = np.empty(m, dtype=np.int64)
    by_len: dict = {}
    pos = 0
    perm_list = perm.tolist()
    for s in range(m):
        if visited[s]:
            continue
        start = pos
        j = s
        while not visited[j]:
            visited[j] = True
            order[pos] = j
            pos += 1
            j = perm_list[j]
        by_len.setdefault(pos - start, []).append(start)
    groups = []
    for length, starts in sorted(by_len.items()):
        starts_arr = np.array(starts, dtype=np.int64)
        groups.append((length, order[starts_arr[:, None] + np.arange(length)[None, :]]))
    return groups


@pytest.mark.parametrize("matrix_key, size", [
    (((2, 1), (1, 1)), 256),
    (((2, 1), (1, 1)), 512),
    (((0, 0, -1), (1, 0, 2), (0, 1, 1)), 16),
    (((0, 0, -1), (1, 0, 2), (0, 1, 1)), 64),
], ids=["cat-256", "cat-512", "t3M-16", "t3M-64"])
def test_orbit_groups_match_python_walk(matrix_key, size):
    # the cycle plan holds the walk's groups: one segment per length with as
    # many orbits, and x_t of orbit g of a group at position start + t*G + g
    inverse, segments = _cycle_plan(_permutation(np.array(matrix_key, dtype=np.int64), size))
    want = python_cycle_walk(matrix_key, size)
    assert [(length, count) for _, length, count in segments] == \
        [(length, idx.shape[0]) for length, idx in want]
    order = np.concatenate([idx.T.ravel() for _, idx in want])
    assert inverse.dtype == np.int32 and inverse.shape == order.shape
    assert np.array_equal(inverse[order], np.arange(order.size))


@pytest.mark.parametrize("matrix_key, size", [
    (((2, 1), (1, 1)), 256),
    (((0, 0, -1), (1, 0, 2), (0, 1, 1)), 16),
], ids=["cat-256", "t3M-16"])
def test_int32_plans_match_python_walk(matrix_key, size):
    # the int32 permutation and pointer-doubling arrays find the walk's
    # cycles: the least index of each orbit and its length
    perm = _permutation(np.array(matrix_key, dtype=np.int64), size)
    assert perm.dtype == np.int32
    starts, lengths = _orbit_starts(perm)
    walk = sorted((int(idx[g, 0]), length)
                  for length, idx in python_cycle_walk(matrix_key, size)
                  for g in range(idx.shape[0]))
    assert list(zip(starts.tolist(), lengths.tolist())) == walk


def test_cycle_plan_working_set_bounded():
    # the pointer doubling holds four int32 index arrays; np.take's intp
    # copy of the indices and np.bincount's int64 labels and counts made the
    # plan peak at 7x the permutation's bytes (56 MiB at 128^3)
    perm = _permutation(np.array(((0, 0, -1), (1, 0, 2), (0, 1, 1)), dtype=np.int64), 64)
    tracemalloc.start()
    try:
        _cycle_plan(perm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * perm.nbytes


def test_permutation_refuses_int32_overflow():
    # 2048^3 = 2^33 points: refused before any index array is allocated
    with pytest.raises(ValueError, match="2\\^31"):
        _permutation(np.eye(3, dtype=np.int64), 2048)
