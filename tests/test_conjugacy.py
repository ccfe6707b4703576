import dataclasses
import json
import struct
import tracemalloc

import numpy as np
import pytest

from anosovkit import cli, spectra
from anosovkit.conjugacy.perturbation import _BLOCK
from anosovkit.conjugacy.probes import _eigen_directions
from anosovkit.conjugacy.solver import (
    _DEFECT_ROWS,
    _defect_sup,
    _eigendata,
    _orbit_groups,
    _permutation,
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
from oracles import reference_cycle_conjugacy


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


def test_oversized_refused(cat_action):
    p = TrigPolynomial([((0, 1), (0.0, 0.0), (0.5, 0.0))], 2)
    pert = ToralPerturbation(base=cat_action, perturbations=[p])
    with pytest.raises(Diverged):
        solve_conjugacy(pert, resolution=32)


def test_solver_working_set_bounded():
    # psi-t3 at 64^3: the whole-grid psi inversion and the solver's stale
    # temporaries peaked at 11x the field
    pert, _ = cli._build_preset("psi-t3", 0.005)
    tracemalloc.start()
    try:
        field = solve_conjugacy(pert, resolution=64, tol=1e-13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field.residual < 1e-13
    assert peak < 8 * field.u.nbytes


def test_defect_sup_blocks_match_whole_grid():
    # a row count that is not a multiple of the block: the max over blocks
    # is the whole-grid max, bit for bit
    rng = np.random.default_rng(7)
    m = 3 * _DEFECT_ROWS + 5
    u, p_val = rng.normal(size=(m, 3)), rng.normal(size=(m, 3))
    a_float = rng.integers(-3, 4, size=(3, 3)).astype(np.float64)
    perm = rng.permutation(m)
    whole = np.max(np.abs(u @ a_float.T + p_val - u[perm]))
    assert _defect_sup(u, p_val, a_float, perm) == whole


@pytest.mark.parametrize("preset, eps", [("psi-cat", 0.01), ("psi-t3", 0.005)])
@pytest.mark.parametrize("count", [1000, _BLOCK, 2 * _BLOCK + 37])
def test_conjugated_perturbation_inversion_free_oracle(preset, eps, count):
    # at y = psi(x) = x + eps q(x), f_i = psi A_i psi^-1 gives
    # p_i(y) = eps q(A_i x) - eps A_i q(x), with no inversion of psi
    pert, _ = cli._build_preset(preset, eps)
    q = pert.perturbations[0].q
    x = np.random.default_rng(count).random((count, pert.dim))
    y = x + eps * q.evaluate(x)
    for i in range(pert.k):
        a_mat = pert.matrix(i).astype(np.float64)
        want = eps * q.evaluate(x @ a_mat.T) - eps * (q.evaluate(x) @ a_mat.T)
        assert np.max(np.abs(pert.p_eval(i, y) - want)) <= 1e-14


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
    co = field.fourier
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


def test_probe_run_transforms_the_field_once(monkeypatch, tmp_path):
    calls = []
    fftn = np.fft.fftn

    def counting_fftn(*args, **kwargs):
        calls.append(1)
        return fftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", counting_fftn)
    code = cli.main(["conjugate", "--preset", "t3-gen1-only", "--eps", "0.005",
                     "--grid", "32", "--probe", "--output", str(tmp_path / "report.json")])
    assert code == 2      # the negative control: generator 1 is not intertwined
    report = json.loads((tmp_path / "report.json").read_text())
    assert "regularity" in report["result"]
    assert len(calls) == 1


def test_probe_peak_memory_bounded():
    # the 64^3 negative control; the shifted-field formula peaked near 14x
    pert, _ = cli._build_preset("t3-gen1-only", 0.005)
    field = solve_conjugacy(pert, resolution=64, tol=1e-10)
    tracemalloc.start()
    try:
        regularity_probe(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * field.u.nbytes


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


def test_fourier_table_deterministic():
    pert = small_cat_pert()
    field = solve_conjugacy(pert, resolution=64, tol=1e-10)
    t1 = field.fourier_table(top=8)
    t2 = field.fourier_table(top=8)
    assert t1 == t2
    assert all("freq" in e and "re" in e for e in t1)


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


def python_cycle_walk(matrix_key, size):
    """Reference: the pure-Python cycle walk _orbit_groups used to run."""
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
    got = _orbit_groups(_permutation(np.array(matrix_key, dtype=np.int64), size))
    want = python_cycle_walk(matrix_key, size)
    assert [length for length, _ in got] == [length for length, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)
