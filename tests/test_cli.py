import hashlib
import json
import math
import random
import runpy
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings

from anosovkit import spectra
from anosovkit.cli import main
from anosovkit.exact import mat_inv, mat_mul
from anosovkit.jsonio import sha256_hex, stable_dumps
from oracles import (mp_eigenvalues, near_root_of_unity, report_region_count,
                     root_of_unity_elements, sigma_matrix)
from strategies import cat_power_blocks, cat_power_sums, unit_sums


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "anosovkit.cli"] + args,
                          capture_output=True, text=True, **kw)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "cat.json").write_text(json.dumps(
        {"dim": 2, "generators": [[2, 1, 1, 1]], "labels": ["A"]}))
    (d / "ident.json").write_text(json.dumps(
        {"dim": 2, "generators": [[1, 0, 0, 1]]}))
    (d / "t3.json").write_text(json.dumps(
        {"dim": 3, "generators": [[0, 0, -1, 1, 0, 2, 0, 1, 1],
                                  [-2, -1, -1, 0, 0, 1, 1, 1, 1]]}))
    (d / "bands.json").write_text(json.dumps(
        {"intervals": [["-1386294/1000000", "-1386294/1000000"],
                       ["-693147/1000000", "-693147/1000000"]],
         "block_dims": [1, 1]}))
    (d / "badbands.json").write_text(json.dumps(
        {"intervals": [["-1", "-0.5"], ["-0.7", "-0.2"]], "block_dims": [1, 1]}))
    (d / "salem.json").write_text(json.dumps(
        {"base": {"dim": 4, "generators": [[0, 0, 0, -1, 1, 0, 0, 1,
                                            0, 1, 0, 1, 0, 0, 1, 1]]},
         "perturbations": [{"terms": [{"freq": [0, 1, 0, 0],
                                       "sin": [0.001, 0.0, 0.0, 0.0]}]}]}))
    (d / "cubic.json").write_text(json.dumps(
        {"bands": {"intervals": [["-1386294/1000000", "-1386294/1000000"],
                                 ["-693147/1000000", "-693147/1000000"]],
                   "block_dims": [1, 1]},
         "degree": 3,
         "terms": [{"coord": 0, "exponents": [1, 0], "value": "1/4"},
                   {"coord": 0, "exponents": [0, 3], "value": "1"},
                   {"coord": 1, "exponents": [0, 1], "value": "1/2"}]}))
    return d


@pytest.mark.parametrize("args, unloaded", [
    (["analyze", "--input", "cat.json"], ("sympy", "numpy")),
    (["normalform", "--input", "cubic.json"],
     ("sympy", "numpy", "mpmath", "anosovkit.algnum")),
    (["resonances", "--input", "bands.json"],
     ("sympy", "numpy", "mpmath", "anosovkit.normalform", "anosovkit.intpoly")),
    (["rootsys", "--type", "D", "--rank", "4"], ("sympy",)),
    (["conjugate", "--preset", "psi-cat", "--grid", "16"], ("sympy",)),
], ids=["analyze", "normalform", "resonances", "rootsys", "conjugate"])
def test_cli_import_boundary(inputs, tmp_path, args, unloaded):
    """The exact rational paths never load the libraries they do not need."""
    args = [str(inputs / a) if a.endswith(".json") else a for a in args]
    out = tmp_path / "out.json"
    code = ("import sys\n"
            "from anosovkit.cli import main\n"
            f"rc = main({args + ['--output', str(out)]!r})\n"
            f"loaded = [m for m in {list(unloaded)!r} if m in sys.modules]\n"
            "assert not loaded, f'{loaded} imported'\n"
            "sys.exit(rc)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["verdict"] == "pass"


def test_analyze_cat_rank_gate(inputs):
    out = run_cli(["analyze", "--input", str(inputs / "cat.json")])
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    assert rep["result"]["rigidity_hypotheses"] == "not applicable (k < 2)"
    assert rep["result"]["generator_anosov"]
    assert rep["schema_version"] == "1"
    assert len(rep["input_sha256"]) == 64


def test_analyze_t3_passes(inputs):
    out = run_cli(["analyze", "--input", str(inputs / "t3.json")])
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    assert rep["verdict"] == "pass"
    assert rep["result"]["rigidity_hypotheses"]["verdict"] == "pass"
    assert rep["result"]["chambers"]["count"] == 6


def test_analyze_identity_fails(inputs):
    out = run_cli(["analyze", "--input", str(inputs / "ident.json")])
    assert out.returncode == 2
    rep = json.loads(out.stdout)
    assert "NotAnosov" in rep["result"]["failure_certificate"]


def test_analyze_parse_error(inputs, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = run_cli(["analyze", "--input", str(bad)])
    assert out.returncode == 1


def test_resonances_descriptor(inputs):
    out = run_cli(["resonances", "--input", str(inputs / "bands.json")])
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    rels = rep["result"]["descriptor"]["relations"]
    nontrivial = [r for r in rels if not r["trivial"]]
    assert nontrivial == [{"exponents": [0, 2], "target_block": 1,
                           "trivial": False}]


def test_resonances_malformed_exit1(inputs):
    out = run_cli(["resonances", "--input", str(inputs / "badbands.json")])
    assert out.returncode == 1


def test_normalform_cubic(inputs):
    out = run_cli(["normalform", "--input", str(inputs / "cubic.json")])
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    assert rep["result"]["residual"] == "0"
    terms = rep["result"]["change"]["terms"]
    cubic = [t for t in terms if t["exponents"] == [0, 3]]
    assert cubic and cubic[0]["value"] == "8"


def test_conjugate_trivial_eps_zero():
    out = run_cli(["conjugate", "--preset", "cat-sin", "--eps", "0",
                   "--grid", "32"])
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    assert rep["result"]["residual"] == 0.0
    assert rep["result"]["iterations"] == 1


def test_conjugate_psi_preset_recovery():
    out = run_cli(["conjugate", "--preset", "psi-cat", "--grid", "64"])
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    assert rep["result"]["ground_truth_recovery_error"] < 1e-8


@pytest.mark.parametrize("preset, eps, grid", [
    ("cat-sin", "0.5", "32"),
    # psi conjugates this action by construction; the a-priori smallness
    # gate refuses it all the same
    ("psi-cat", "0.05", "128"),
], ids=["cat-sin-eps0.5", "psi-cat-eps0.05"])
def test_conjugate_refusal_exit3(preset, eps, grid):
    # a refusal carries no certificate: undecided (3), never fail (2)
    out = run_cli(["conjugate", "--preset", preset, "--eps", eps, "--grid", grid])
    assert out.returncode == 3
    rep = json.loads(out.stdout)
    assert rep["verdict"] == "inconclusive"
    error = rep["result"]["error"]
    assert (error["kind"], error["stage"]) == ("Diverged", "solve") and error["detail"]
    assert "Traceback" not in out.stderr


def test_conjugate_grid_power_of_two():
    out = run_cli(["conjugate", "--preset", "cat-sin", "--grid", "100"])
    assert out.returncode == 1


# Starts one Python child with the arguments in sys.argv[1:] and prints its
# exit code, stderr, peak RSS (os.wait4) and wall time as JSON.  Children
# are started from this small launcher, because a child forked from the
# (large) test process would report the test process's peak RSS as its own.
LAUNCHER = (
    "import json, os, subprocess, sys, time\n"
    "t0 = time.perf_counter()\n"
    "p = subprocess.Popen([sys.executable] + sys.argv[1:],\n"
    "                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)\n"
    "err = p.stderr.read().decode()\n"
    "_, status, usage = os.wait4(p.pid, 0)\n"
    "p.returncode = os.waitstatus_to_exitcode(status)\n"
    "print(json.dumps({'exit': p.returncode, 'stderr': err,\n"
    "                  'maxrss_kb': usage.ru_maxrss,\n"
    "                  'wall': time.perf_counter() - t0}))\n")


def launch(args):
    """Exit code, stderr, peak RSS (KiB) and wall time of one child
    ``python args...``, from a small launcher."""
    proc = subprocess.run([sys.executable, "-c", LAUNCHER] + args,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_conjugate_grid_memory_gate():
    # 4096^3 points of a T^3 field need terabytes: refused before any grid
    # is allocated, as a parse error
    child = launch(["-m", "anosovkit.cli", "conjugate", "--preset", "psi-t3",
                    "--grid", "4096"])
    assert child["exit"] == 1
    assert child["stderr"].startswith("parse error: --grid 4096")
    assert "physical memory" in child["stderr"]
    assert child["maxrss_kb"] < 200 * 1024       # no field was allocated
    assert child["wall"] < 30


@pytest.mark.parametrize("args, code", [
    (["--preset", "t3-gen1-only", "--eps", "0.005", "--probe", "--dump-grid", "{tmp}"], 2),
    (["--preset", "psi-t3", "--eps", "0.005"], 0),
], ids=["t3-gen1-only-probe-dump", "psi-t3"])
def test_conjugate_peak_memory_bounded(tmp_path, args, code):
    # a whole 64^3 run on T^3 (solve, intertwining, probe, recovery error,
    # dump and Fourier table) stays within 4 fields of a child that only
    # imports; the whole-array solver peaked near 8.5, the blocked one with
    # the full spectrum and int64 plans near 4.6, and now near 3.5
    base = launch(["-c", "import anosovkit.cli, anosovkit.conjugacy, numpy"])
    args = [a.replace("{tmp}", str(tmp_path / "field.bin")) for a in args]
    child = launch(["-m", "anosovkit.cli", "conjugate", "--grid", "64", "--tol", "1e-13"]
                   + args)
    assert child["exit"] == code, child["stderr"]
    field = 64 ** 3 * 3 * 8
    assert (child["maxrss_kb"] - base["maxrss_kb"]) * 1024 < 4 * field


def test_conjugate_salem_base_exit2(inputs):
    # a Salem base has eigenvalues on the unit circle: NotAnosov, exit 2
    out = run_cli(["conjugate", "--input", str(inputs / "salem.json"), "--grid", "8"])
    assert out.returncode == 2
    rep = json.loads(out.stdout)
    assert rep["verdict"] == "fail"
    assert rep["result"] == {"error": {
        "kind": "NotAnosov", "stage": "solve",
        "detail": "generator 0 is not Anosov for the base action"}}
    assert rep["config"]["grid"] == 8
    assert out.stderr == ""


def test_rootsys_reports():
    for t, rank, klass in [("A", 2, "C4"), ("BC", 2, "C6")]:
        out = run_cli(["rootsys", "--type", t, "--rank", str(rank)])
        rep = json.loads(out.stdout)
        assert rep["result"]["smoothness"]["class"] == klass
    warn = run_cli(["rootsys", "--type", "A", "--rank", "1"])
    assert json.loads(warn.stdout)["result"]["smoothness"]["rank_warning"]


def test_byte_determinism_all_commands(inputs, tmp_path):
    runs = [
        ["analyze", "--input", str(inputs / "t3.json"), "--seed", "7"],
        ["resonances", "--input", str(inputs / "bands.json")],
        ["normalform", "--input", str(inputs / "cubic.json")],
        ["conjugate", "--preset", "cat-sin", "--grid", "64", "--probe"],
        ["rootsys", "--type", "BC", "--rank", "2"],
    ]
    for args in runs:
        a = run_cli(args).stdout
        b = run_cli(args).stdout
        assert a == b, args
        assert a.strip()


# ---------------------------------------------------------------------------
# Off-circle regression corpus: non-real eigenvalues off the unit circle
# ---------------------------------------------------------------------------

EXPECTED = json.loads((Path(__file__).resolve().parents[1] / "bench"
                       / "expected.json").read_text())["spectral"]


def offcircle_units(n):
    """C, C - I and C + I for the companion C of x^n - x - 1."""
    c = [[int(i == j + 1) for j in range(n)] for i in range(n)]
    c[0][n - 1], c[1][n - 1] = 1, 1
    return [[[x + s * (i == j) for j, x in enumerate(row)] for i, row in enumerate(c)]
            for s in (0, -1, 1)]


def action_json(gens):
    return {"dim": len(gens[0]), "generators": [[x for row in g for x in row] for g in gens]}


def analyze_report(tmp_path, gens, name="action"):
    src, out = tmp_path / f"{name}.json", tmp_path / f"{name}.out.json"
    src.write_text(json.dumps(action_json(gens)))
    rc = main(["analyze", "--input", str(src), "--output", str(out)])
    return rc, json.loads(out.read_text())


def mp_log_moduli(m):
    with mpmath.workdps(60):
        eigs = mpmath.eig(mpmath.matrix(m), left=False, right=False)
        return sorted(float(mpmath.log(abs(e))) for e in eigs)


@pytest.mark.parametrize("n, k", [(n, k) for n in (3, 4, 5) for k in (1, 2, 3)])
def test_offcircle_corpus(tmp_path, n, k):
    gens = offcircle_units(n)[:k]
    rc, rep = analyze_report(tmp_path, gens)
    expected = EXPECTED[f"offcircle-n{n}-k{k}"]["verdict"]
    assert rep["verdict"] == expected
    assert rc == {"pass": 0, "fail": 2}[expected]
    classes = rep["result"]["joint_classes"]
    for g, m in enumerate(gens):
        claimed = sorted(c["moduli_log"][g] for c in classes for _ in range(c["dimension"]))
        for a, b in zip(claimed, mp_log_moduli(m)):
            assert abs(a - b) <= math.ulp(b)
        assert all(w <= 1e-12 for c in classes for w in c["enclosure_widths"])


def test_moduli_are_exactly_negated_under_inversion(tmp_path):
    """The printed log-moduli are the nearest doubles of exact values, so the
    cat map's two moduli, and an action against its inverse, are exact
    negatives of each other."""
    _, cat = analyze_report(tmp_path, [[[2, 1], [1, 1]]], "cat")
    (a,), (b,) = (c["moduli_log"] for c in cat["result"]["joint_classes"])
    assert a == -b
    gens = offcircle_units(3)[:2]
    inverses = [[[int(x) for x in row] for row in mat_inv(g)] for g in gens]
    _, fwd = analyze_report(tmp_path, gens, "fwd")
    _, inv = analyze_report(tmp_path, inverses, "inv")
    for g in range(2):
        lhs = sorted(-c["moduli_log"][g] for c in fwd["result"]["joint_classes"])
        rhs = sorted(c["moduli_log"][g] for c in inv["result"]["joint_classes"])
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Chamber geometry: one grouping, indices into lyapunov_functionals
# ---------------------------------------------------------------------------

T3_M = [[0, 0, -1], [1, 0, 2], [0, 1, 1]]
T3_N = [[-2, -1, -1], [0, 0, 1], [1, 1, 1]]      # M^2 - 2I


def direct_sum(a, b):
    n = len(a)
    return [row + [0] * len(b) for row in a] + [[0] * n + row for row in b]


def test_coarse_members_index_lyapunov_functionals(tmp_path):
    # cat + rotation: the rotation block gives a zero functional between the
    # cat map's two, so indices into the nonzero list would name it
    rc, rep = analyze_report(tmp_path, [direct_sum([[2, 1], [1, 1]], [[0, -1], [1, 0]])])
    funcs = rep["result"]["lyapunov_functionals"]
    assert [f["coeffs"] != [0.0] for f in funcs] == [True, False, True]
    spaces = rep["result"]["coarse_spaces"]
    assert sorted(i for s in spaces for i in s["members"]) == [0, 2]
    for s in spaces:
        assert all(any(funcs[i]["coeffs"]) for i in s["members"])
    assert rep["result"]["neutral_dimension"] == 2


def test_blockdiag_t6_fails_with_certificate(tmp_path):
    # the second block acts through M only, so two functionals are
    # proportional with an irrational ratio that the exact test cannot decide
    gens = [direct_sum(T3_M, T3_M), direct_sum(T3_N, T3_M)]
    rc, rep = analyze_report(tmp_path, gens)
    assert rc == 2 and rep["verdict"] == "fail"
    res = rep["result"]
    for key in ("coarse_spaces", "chambers", "maximal_intersections"):
        assert res[key]["error"] == "UndecidedProportionality"
        assert res[key]["detail"]
    assert res["neutral_dimension"] == 0
    viols = res["rigidity_hypotheses"]["roots_of_unity"]["violations"]
    assert any(v["element"] in ([1, -1], [-1, 1]) and v["cyclotomic_indices"] == [1]
               for v in viols)


def test_identity_pair_has_no_chamber_geometry(tmp_path):
    # k = 2 with every functional zero: neutral only, no walls to enumerate
    rc, rep = analyze_report(tmp_path, [[[1, 0], [0, 1]], [[1, 0], [0, 1]]])
    assert rc == 2 and rep["verdict"] == "fail"
    res = rep["result"]
    assert res["coarse_spaces"] == [] and res["neutral_dimension"] == 2
    assert "chambers" not in res and "maximal_intersections" not in res
    assert "no Anosov element found" in res["rigidity_hypotheses"]["failures"]


def test_analyze_enumerates_chambers_once(inputs, tmp_path, monkeypatch):
    # one enumeration, and one kernel-lattice search per functional, which
    # the chambers and the rigidity check share
    from anosovkit import chambers, spectra

    enumerate_chambers, kernel_lattice = chambers.weyl_chambers, spectra.functional_kernel_lattice
    calls, kernel_calls = [], []

    def counted(grouping, kernels):
        calls.append(grouping)
        return enumerate_chambers(grouping, kernels)

    def counted_kernel(an, functional):
        kernel_calls.append((an, functional))
        return kernel_lattice(an, functional)

    monkeypatch.setattr(chambers, "weyl_chambers", counted)
    monkeypatch.setattr(spectra, "functional_kernel_lattice", counted_kernel)
    out = tmp_path / "t3.out.json"
    assert main(["analyze", "--input", str(inputs / "t3.json"),
                 "--output", str(out)]) == 0
    assert len(calls) == 1
    assert len(kernel_calls) == 3 and len({id(f) for _, f in kernel_calls}) == 3
    assert len({id(an) for an, _ in kernel_calls}) == 1
    res = json.loads(out.read_text())["result"]
    assert res["maximal_intersections"]["pass"]
    assert res["rigidity_hypotheses"]["anosov_element"]["method"] == "box"


@pytest.mark.parametrize("kind", ["JointSpectrumUnsupported", "UndecidedSign",
                                  "EnclosureTooWide"])
def test_analyze_spectrum_stage_is_inconclusive(inputs, tmp_path, monkeypatch,
                                                capsys, kind):
    from anosovkit import spectra

    def undecided(action):
        raise getattr(spectra, kind)("moduli not separated")

    monkeypatch.setattr(spectra, "analyze", undecided)
    out = tmp_path / "t3.out.json"
    assert main(["analyze", "--input", str(inputs / "t3.json"), "--output", str(out)]) == 3
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "inconclusive"
    assert rep["result"] == {"error": {"kind": kind, "stage": "joint_spectrum",
                                       "detail": "moduli not separated"}}
    assert "Traceback" not in capsys.readouterr().err


def test_analyze_unlinkable_action_is_inconclusive(tmp_path, capsys):
    # I + E12 and I + E13 commute, but on every kernel of T = c1 A1 + c2 A2
    # some generator keeps a Jordan block, so no T separates the joint
    # eigenvalues
    path = tmp_path / "shears.json"
    path.write_text(json.dumps({"dim": 3, "generators": [[1, 1, 0, 0, 1, 0, 0, 0, 1],
                                                         [1, 0, 1, 0, 1, 0, 0, 0, 1]]}))
    out = tmp_path / "shears.out.json"
    assert main(["analyze", "--input", str(path), "--output", str(out)]) == 3
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "inconclusive"
    error = rep["result"]["error"]
    assert (error["kind"], error["stage"]) == ("JointSpectrumUnsupported", "joint_spectrum")
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Exit-code contract: 1 parse error only, 2 fail, 3 undecided or internal
# ---------------------------------------------------------------------------


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:      # argparse usage errors
        return exc.code


@pytest.fixture(scope="module")
def contract_inputs(inputs):
    d = inputs
    (d / "wide.json").write_text(json.dumps(
        {"intervals": [["-1", "-1/2"], ["-2/5", "-1/4"]], "block_dims": [1, 1]}))
    (d / "jordan.json").write_text(json.dumps(
        {"bands": {"intervals": [["-1386294/1000000", "-1386294/1000000"],
                                 ["-693147/1000000", "-693147/1000000"]],
                   "block_dims": [2, 1]},
         "degree": 3,
         "terms": [{"coord": 0, "exponents": [1, 0, 0], "value": "1/4"},
                   {"coord": 0, "exponents": [0, 1, 0], "value": "1"},
                   {"coord": 1, "exponents": [0, 1, 0], "value": "1/4"},
                   {"coord": 2, "exponents": [0, 0, 1], "value": "1/2"},
                   {"coord": 0, "exponents": [0, 0, 3], "value": "1"}]}))
    (d / "shears.json").write_text(json.dumps(
        {"dim": 3, "generators": [[1, 1, 0, 0, 1, 0, 0, 0, 1],
                                  [1, 0, 1, 0, 1, 0, 0, 0, 1]]}))
    return d


@pytest.mark.parametrize("argv, code", [
    (["analyze"], 1),                                   # no --input
    (["analyze", "--input", "t3.json", "--tol", "0"], 1),
    (["analyze", "--input", "t3.json", "--tol", "-1"], 1),
    (["analyze", "--input", "t3.json", "--radius", "8"], 1),   # removed option
    (["analyze", "--input", "ident.json"], 2),
    (["analyze", "--input", "shears.json"], 3),
    (["resonances", "--input", "bands.json", "--bogus"], 1),
    (["resonances", "--input", "badbands.json"], 1),
    (["resonances", "--input", "wide.json"], 2),
    (["normalform", "--input", "cubic.json", "--degree", "x"], 1),
    (["normalform", "--input", "jordan.json"], 2),
    (["conjugate", "--preset", "cat-sin", "--grid", "0"], 1),
    (["conjugate", "--preset", "cat-sin", "--grid", "16", "--generator", "5"], 1),
    (["conjugate", "--preset", "cat-sin", "--grid", "16", "--generator", "-1"], 1),
    (["conjugate", "--preset", "cat-sin", "--grid", "16", "--tol", "0"], 1),
    (["conjugate", "--preset", "cat-sin", "--eps", "0.5", "--grid", "32"], 3),  # refused
    (["rootsys", "--rank", "2"], 1),                    # no --type
    (["rootsys", "--type", "Z", "--rank", "2"], 1),
    (["normalform", "--input", "cubic.json", "--degree", "0"], 1),
    (["conjugate", "--preset", "cat-sin", "--grid", "16", "--max-iter", "0"], 1),
    (["conjugate", "--preset", "cat-sin", "--grid", "16", "--fourier-top", "-3"], 1),
    (["resonances", "--input", "bands.json", "--tol", "1e-3"], 1),   # removed option
    (["rootsys", "--type", "A", "--rank", "2", "--tol", "1e-3"], 1),  # removed option
    (["analyze", "--input", "t3.json", "--format", "text"], 1),   # removed option
    (["rootsys", "--type", "A", "--rank", "2", "--multiplicities", "[1]"], 1),  # not a map
])
def test_exit_code_matrix(contract_inputs, tmp_path, capsys, argv, code):
    argv = [str(contract_inputs / a) if a.endswith(".json") else a for a in argv]
    assert exit_code(argv + ["--output", str(tmp_path / "out.json")]) == code
    assert "Traceback" not in capsys.readouterr().err
    if code != 1:
        rep = json.loads((tmp_path / "out.json").read_text())
        assert rep["verdict"] == {2: "fail", 3: "inconclusive"}[code]


@pytest.mark.parametrize("where", ["missing/out.json", "."], ids=["no-dir", "a-dir"])
def test_unwritable_output_is_a_parse_error(tmp_path, monkeypatch, capsys, where):
    # refused before any stage runs: the stage below would exit 3
    def broken(*args, **kwargs):
        raise RuntimeError("a stage ran")

    from anosovkit import rootsys

    monkeypatch.setattr(rootsys, "build_root_system", broken)
    out = tmp_path / where
    assert exit_code(["rootsys", "--type", "A", "--rank", "2", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_sha256_hex_matches_hashlib():
    rng = random.Random(5)
    for data in [b"", b"abc", bytes(1 << 20)] + [rng.randbytes(rng.randrange(1, 5000))
                                                 for _ in range(20)]:
        assert sha256_hex(data) == hashlib.sha256(data).hexdigest()


def test_no_subcommand_loads_openssl(inputs, tmp_path):
    # one op of each subcommand in a fresh interpreter: the input digest
    # uses CPython's built-in SHA-256, and nothing loads OpenSSL's _hashlib
    runs = [["analyze", "--input", str(inputs / "t3.json")],
            ["resonances", "--input", str(inputs / "bands.json")],
            ["normalform", "--input", str(inputs / "cubic.json")],
            ["conjugate", "--preset", "psi-cat", "--grid", "16", "--probe"],
            ["rootsys", "--type", "A", "--rank", "2"]]
    code = ("import json, sys\n"
            "from anosovkit.cli import main\n"
            f"codes = [main(a + ['--output', {str(tmp_path / 'o.json')!r}]) for a in {runs!r}]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules if 'hashlib' in m)]))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [[0, 0, 0, 0, 0], []]


@pytest.mark.parametrize("argv, module, name, stage", [
    (["analyze", "--input", "t3.json"], "spectra", "is_weak_mixing", "weak_mixing"),
    (["analyze", "--input", "t3.json"], "spectra", "check_rigidity_hypotheses",
     "rigidity_hypotheses"),
    (["resonances", "--input", "bands.json"], "resonance", "sr_group_descriptor",
     "resonances"),
    (["normalform", "--input", "cubic.json"], "normalform", "is_subresonance_type",
     "normalform"),
    (["conjugate", "--preset", "cat-sin", "--grid", "16"], "conjugacy",
     "verify_intertwining", "intertwining"),
    (["rootsys", "--type", "A", "--rank", "2"], "rootsys", "smoothness_class_report",
     "rootsys"),
], ids=["analyze-weak-mixing", "analyze-rigidity", "resonances", "normalform",
        "conjugate", "rootsys"])
def test_unclaimed_error_is_structured(contract_inputs, tmp_path, monkeypatch,
                                       capsys, argv, module, name, stage):
    import importlib

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(importlib.import_module(f"anosovkit.{module}"), name, broken)
    argv = [str(contract_inputs / a) if a.endswith(".json") else a for a in argv]
    out = tmp_path / "out.json"
    assert exit_code(argv + ["--output", str(out)]) == 3
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "inconclusive" and rep["command"] == argv[0]
    assert rep["result"] == {"error": {"kind": "RuntimeError", "stage": stage,
                                       "detail": "injected"}}
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"error in stage {stage}" in err


def test_three_block_action_fails_fast(tmp_path):
    # after the relation (-2, 1, -1) the PSLQ row reduction leaves a row
    # whose value vanishes: it is itself the next relation.  Each block's
    # torsion lattice has rank 2 and lies outside the [-2, 2] box.
    gens = cat_power_blocks([(1, 0, 0), (1, 3, -7), (2, 5, 1)])
    path = tmp_path / "three.json"
    path.write_text(json.dumps({"dim": 6, "generators": [[x for row in g for x in row]
                                                         for g in gens]}))
    t0 = time.perf_counter()
    out = run_cli(["analyze", "--input", str(path)])
    assert time.perf_counter() - t0 < 2
    assert out.returncode == 2, out.stderr
    rig = json.loads(out.stdout)["result"]["rigidity_hypotheses"]
    assert rig["failures"] == ["kernel-lattice element with root-of-unity eigenvalue"]
    blocks = rig["roots_of_unity"]["per_block"]
    assert [b["torsion_rank"] for b in blocks] == [2, 2, 2]
    assert all(b["rank_certificate"]["size"] == 1 for b in blocks)
    elements = [v["element"] for v in rig["roots_of_unity"]["violations"]]
    assert [-3, 1, 0] in elements and [7, 0, 1] in elements


def bench_corpus(workload, seed=1):
    """The ops of a benchmark workload, from ``bench/corpus.py``."""
    corpus = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "corpus.py"),
                            run_name="bench_corpus")
    return corpus["build"](workload, seed)


def run_corpus(tmp_path, workload, seed):
    """Each op of a benchmark workload run in-process as the benchmark runs
    it: (op id, exit code, the report's bytes)."""
    for op in bench_corpus(workload, seed):
        for name, obj in op.files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        out = tmp_path / f"{op.id}.out.json"
        args = [a.replace("{dir}", str(tmp_path)) for a in op.args]
        if op.dump:
            args += ["--dump-grid", str(tmp_path / f"{op.id}.bin")]
        code = main([op.command, *args, "--seed", str(seed), "--output", str(out)])
        yield op.id, code, out.read_bytes()


def corpus_digests(tmp_path, workload, seed):
    return {op_id: {"exit": code, "sha256": hashlib.sha256(report).hexdigest()}
            for op_id, code, report in run_corpus(tmp_path, workload, seed)}


def bench_spectral_op(op_id, seed=1):
    """The input of a ``spectral`` benchmark op."""
    return next(op for op in bench_corpus("spectral", seed) if op.id == op_id).files[op_id]


def assert_witnesses_in_their_chambers(result, obj):
    """At each integer witness the nonzero functionals, from the report's
    coefficients, are clear of 0 with the signs of the witness's chamber
    (``obj``: the analyzed input); the chambers differ, and Zaslavsky's count
    says none is missing."""
    arr = spectra.analyze(spectra.ActionSpec.from_json(obj)).chamber_arrangement
    funcs = result["lyapunov_functionals"]
    seen = set()
    for ch, w in zip(arr.chambers, result["chambers"]["integer_witnesses"]):
        signs = {i: s * (1 if c > 0 else -1)
                 for wall, s in zip(arr.walls, ch.signs) for i, c in wall.members}
        for i, s in signs.items():
            value = sum(c * x for c, x in zip(funcs[i]["coeffs"], w))
            assert value * s > 1e-9, (w, i, value)
        seen.add(tuple(sorted(signs.items())))
    assert len(seen) == result["chambers"]["count"] == report_region_count(result)
    assert "error" not in result["maximal_intersections"]


@pytest.mark.parametrize("op_id", ["real-d3-k3", "offcircle-n4-k3", "offcircle-n5-k3"])
def test_walls_with_a_common_kernel_are_decided(tmp_path, op_id):
    # three units of unit rank 2: every functional vanishes on one rank-1
    # lattice, and in its quotient the three walls give 6 chambers
    obj = bench_spectral_op(op_id)
    (tmp_path / "op.json").write_text(json.dumps(obj))
    rc = main(["analyze", "--input", str(tmp_path / "op.json"),
               "--output", str(tmp_path / "out.json")])
    assert rc == {"pass": 0, "fail": 2}[EXPECTED[op_id]["verdict"]]
    res = json.loads((tmp_path / "out.json").read_text())["result"]
    assert res["chambers"]["count"] == 6
    assert_witnesses_in_their_chambers(res, obj)


@pytest.mark.parametrize("op_id", ["real-d3-k3", "cat-dependent"])
def test_wall_elements_lie_in_the_verified_kernel(tmp_path, op_id):
    # irrational bottom functionals with a nonzero verified kernel: each wall
    # element is an exact integer vector of the kernel the report lists
    import sympy

    (tmp_path / "op.json").write_text(json.dumps(bench_spectral_op(op_id)))
    main(["analyze", "--input", str(tmp_path / "op.json"),
          "--output", str(tmp_path / "out.json")])
    res = json.loads((tmp_path / "out.json").read_text())["result"]
    kernels = {e["functional_index"]: e["kernel_basis"]
               for e in res["rigidity_hypotheses"]["roots_of_unity"]["per_functional"]}
    for space in res["maximal_intersections"]["spaces"]:
        basis, elt = kernels[space["bottom"]], space["wall_element"]
        assert space["wall_element_exact"] and basis
        assert any(elt) and all(x == int(x) for x in elt)
        assert sympy.Matrix(basis + [[int(x) for x in elt]]).rank() == len(basis)


def test_analyze_leaves_no_state_behind(tmp_path):
    # every module-level dict, list and set of the package is unchanged by
    # runs, and a repeated run reproduces its report byte for byte
    import copy
    import importlib
    import pkgutil

    import anosovkit

    modules = [importlib.import_module(m.name)
               for m in pkgutil.walk_packages(anosovkit.__path__, "anosovkit.")]

    def containers():
        return {(mod.__name__, name): value for mod in modules
                for name, value in vars(mod).items()
                if not name.startswith("__") and isinstance(value, (dict, list, set))}

    before = copy.deepcopy(containers())
    # actions no other test analyzes: a unit and its inverse, and the T^3
    # pair in another basis
    pair = [[[3, 2], [1, 1]], [[1, -2], [-1, 3]]]
    p, p_inv = [[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, -1, 0], [0, 1, 0], [0, 0, 1]]
    t3 = [mat_mul(mat_mul(p, g), p_inv) for g in (T3_M, T3_N)]
    for name, gens in (("first", pair), ("second", t3), ("again", pair)):
        analyze_report(tmp_path, gens, name)
    after = containers()
    assert [key for key in before.keys() | after.keys()
            if before.get(key) != after.get(key)] == []
    assert ((tmp_path / "first.out.json").read_bytes()
            == (tmp_path / "again.out.json").read_bytes())


DIGESTS = Path(__file__).with_name("spectral_corpus_digests.json")
NF_DIGESTS = Path(__file__).with_name("normal_forms_corpus_digests.json")


def test_spectral_corpus_reports_are_unchanged(tmp_path):
    # the corpus reports are the contract: a change that alters their bytes,
    # envelope included, updates spectral_corpus_digests.json and says why
    got = corpus_digests(tmp_path, "spectral", 1)
    expected = json.loads(DIGESTS.read_text())
    assert sorted(got) == sorted(expected)
    assert [op for op in got if got[op] != expected[op]] == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_normal_forms_corpus_reports_are_unchanged(tmp_path, seed):
    # exact Fractions throughout, so the whole reports are portable bytes
    got = corpus_digests(tmp_path, "normal-forms", seed)
    expected = json.loads(NF_DIGESTS.read_text())[str(seed)]
    assert sorted(got) == sorted(expected)
    assert [op for op in got if got[op] != expected[op]] == []


def test_grid_corpus_verdicts_are_unchanged(tmp_path):
    # floats depend on the host, so only the verdicts and exit codes are
    # pinned: the control perturbs one generator only and fails, exit 2
    got = {op_id: (json.loads(report)["verdict"], code)
           for op_id, code, report in run_corpus(tmp_path, "grid", 1)}
    assert got == {"psi-t3-64": ("pass", 0), "control-t3-64": ("fail", 2),
                   "psi-cat-256": ("pass", 0), "cat-sin-512-probe": ("pass", 0),
                   "cat-sin-512-transfer": ("pass", 0), "json-t3-64": ("pass", 0)}


def invariant_summary(code, report):
    """What a change of generators of the same Z^k action keeps: the verdict
    and exit code, the wall, chamber and coarse-space counts, the neutral
    dimension, the kernel and torsion ranks as multisets, whether an Anosov
    element was found, and the kind of an undecided step."""
    res = report["result"]
    rig = res.get("rigidity_hypotheses")
    rig = rig if isinstance(rig, dict) else {}
    rou = rig.get("roots_of_unity", {})
    chambers = res.get("chambers") or {}
    return {"exit": code, "verdict": report["verdict"],
            "undecided": res.get("error", {}).get("kind"),
            "walls": chambers.get("walls"), "chambers": chambers.get("count"),
            "coarse_spaces": len(res.get("coarse_spaces", [])),
            "neutral_dimension": res.get("neutral_dimension"),
            "kernel_ranks": sorted(f["kernel_rank"] for f in rou.get("per_functional", [])),
            "torsion_ranks": sorted(b["torsion_rank"] for b in rou.get("per_block", [])),
            "anosov_found": rig.get("anosov_element", {}).get("found")}


def test_reports_are_invariant_under_a_change_of_basis(tmp_path):
    # every seed-1 analyze op, conjugated by one P in GL(n, Z): the same
    # report but for the input hash; its generators recombined by an element
    # of GL(k, Z): the same invariant summary
    def transvection(n, i, j, s):
        return [[int(r == c) + s * (r == i and c == j) for c in range(n)] for r in range(n)]

    for op in bench_corpus("spectral"):
        if op.command != "analyze":
            continue
        gens = op.data["generators"]
        n, k = len(gens[0]), len(gens)
        rng = random.Random(f"invariance:{op.id}")
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        p, p_inv = transvection(n, i, j, s), transvection(n, i, j, -s)
        conjugated = [mat_mul(mat_mul(p, g), p_inv) for g in gens]
        if k == 1:
            recombined = [[[int(x) for x in row] for row in mat_inv(gens[0])]]
        else:
            g, h = rng.sample(range(k), 2)
            power = gens[h] if rng.random() < 0.5 else [
                [int(x) for x in row] for row in mat_inv(gens[h])]
            recombined = [mat_mul(a, power) if m == g else a for m, a in enumerate(gens)][::-1]
        rc, base = analyze_report(tmp_path, gens, op.id)
        rc_p, conj = analyze_report(tmp_path, conjugated, op.id + ".conj")
        rc_u, rec = analyze_report(tmp_path, recombined, op.id + ".rec")
        assert rc_p == rc, op.id
        assert (stable_dumps({**conj, "input_sha256": None})
                == stable_dumps({**base, "input_sha256": None})), op.id
        assert invariant_summary(rc_u, rec) == invariant_summary(rc, base), op.id


@pytest.mark.parametrize("exponents, count", [
    ([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], 12),
    ([(1, 0, 0), (1, 3, -7), (2, 5, 1)], 8),
], ids=["four-block", "three-block"])
def test_rational_walls_give_small_witnesses(tmp_path, exponents, count):
    # each wall is a rational multiple of log(lambda), its own exact proxy;
    # in the four-block action three of them are dependent, which no rounded
    # chirotope certifies
    gens = cat_power_blocks(exponents)
    rc, rep = analyze_report(tmp_path, gens)
    res = rep["result"]
    assert res["chambers"]["count"] == count
    assert_witnesses_in_their_chambers(res, action_json(gens))
    elements = res["chambers"]["integer_witnesses"] + [
        b for s in res["maximal_intersections"]["spaces"]
        for b in s["stable_intersection_elements"]]
    assert max(abs(x) for b in elements for x in b) <= 10


@given(cat_power_sums())
def test_cat_power_sums_fail_with_verified_certificates(exponents):
    # each functional of such a sum is (e_i . n) log(lambda), so some n != 0
    # with e_i . n = 0 gives sigma(n) the eigenvalue 1: every draw fails
    gens = cat_power_blocks(exponents)
    dim = len(gens[0])
    with tempfile.TemporaryDirectory() as d:
        src, out = Path(d) / "action.json", Path(d) / "out.json"
        src.write_text(json.dumps(action_json(gens)))
        t0 = time.perf_counter()
        assert main(["analyze", "--input", str(src), "--output", str(out)]) == 2
        assert time.perf_counter() - t0 < 5
        res = json.loads(out.read_text())["result"]
    rig = res["rigidity_hypotheses"]
    assert rig["roots_of_unity"]["violations"]

    def sigma(n):
        return cat_power_blocks([(sum(e * x for e, x in zip(ei, n)),)
                                 for ei in exponents])[0]

    for v in rig["roots_of_unity"]["violations"]:
        assert any(near_root_of_unity(z, dim) for z in mp_eigenvalues(sigma(v["element"])))
    witness = rig["anosov_element"]
    if witness["found"]:
        assert all(abs(abs(z) - 1) > 1e-30 for z in mp_eigenvalues(sigma(witness["vector"])))
    else:
        assert witness["method"] == "zero-functional"
        assert any(not any(e) for e in exponents)

    # the geometry is decided, and at each chamber's integer witness the
    # functionals take the mpmath log-moduli of sigma(witness), block by block
    assert not any("error" in res.get(key, ())
                   for key in ("coarse_spaces", "chambers", "maximal_intersections"))
    if "chambers" not in res:
        assert not any(any(e) for e in exponents)
        return
    assert_witnesses_in_their_chambers(res, action_json(gens))
    for w in res["chambers"]["integer_witnesses"]:
        assert max(abs(x) for x in w) <= 64
        values = sorted(sum(c * x for c, x in zip(f["coeffs"], w))
                        for f in res["lyapunov_functionals"] for _ in range(f["multiplicity"]))
        blocks = cat_power_blocks([(sum(e * x for e, x in zip(ei, w)),) for ei in exponents])
        moduli = sorted(float(mpmath.log(abs(z)))
                        for i in range(len(exponents))
                        for z in mp_eigenvalues([row[2 * i:2 * i + 2]
                                                 for row in blocks[0][2 * i:2 * i + 2]]))
        assert all(abs(a - b) <= 1e-9 * max(1, abs(b)) for a, b in zip(values, moduli))


def assert_unit_sum_report(gens):
    """The oracles of the unit-sum fuzz; none of them calls anosovkit."""
    import sympy

    dim = len(gens[0])
    with tempfile.TemporaryDirectory() as d:
        src, out = Path(d) / "action.json", Path(d) / "out.json"
        src.write_text(json.dumps(action_json(gens)))
        code = main(["analyze", "--input", str(src), "--output", str(out)])
        assert code in (0, 2), out.read_text() if out.exists() else code
        res = json.loads(out.read_text())["result"]

    rig = res["rigidity_hypotheses"]
    orders = [q for q in range(1, 2 * dim * dim + 1) if sympy.totient(q) <= dim]
    for v in rig["roots_of_unity"]["violations"]:
        s = sigma_matrix(gens, v["element"])
        assert any((s ** q - sympy.eye(dim)).det() == 0 for q in orders), v
    if rig["verdict"] == "pass":
        assert root_of_unity_elements(gens, 2) == []
    if rig["anosov_element"]["found"]:
        s = sigma_matrix(gens, rig["anosov_element"]["vector"])
        try:
            eigs = mp_eigenvalues([[int(x) for x in row] for row in s.tolist()])
        except mpmath.libmp.NoConvergence:
            with mpmath.workdps(80):
                eigs = mpmath.polyroots([int(c) for c in s.charpoly().all_coeffs()],
                                        maxsteps=400, extraprec=400)
        assert all(abs(abs(z) - 1) > 1e-25 for z in eigs)
    if "error" not in res.get("chambers", {"error": None}):
        assert res["chambers"]["count"] == report_region_count(res)
        # every integer witness is small and clear of each nonzero functional,
        # and no two share a sign vector: with the count, each chamber has one
        funcs = [f["coeffs"] for f in res["lyapunov_functionals"] if any(f["coeffs"])]
        seen = set()
        for w in res["chambers"]["integer_witnesses"]:
            assert max(abs(x) for x in w) <= 64, w
            values = [sum(c * x for c, x in zip(f, w)) for f in funcs]
            assert all(abs(v) > 1e-9 for v in values), (w, values)
            seen.add(tuple(v > 0 for v in values))
        assert len(seen) == res["chambers"]["count"]


@given(unit_sums())
def test_unit_sums_fuzz(gens):
    assert_unit_sum_report(gens)


@settings(max_examples=30)
@given(unit_sums(pass_biased=True))
def test_unit_sums_fuzz_pass_biased(gens):
    assert_unit_sum_report(gens)
