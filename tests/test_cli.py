import json
import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, strategies as st

from anosovkit.cli import main
from anosovkit.exact import mat_inv


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
    (["normalform", "--input", "cubic.json"], ("sympy", "numpy")),
    (["resonances", "--input", "bands.json"], ("sympy", "numpy")),
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


def test_conjugate_oversized_eps_exit2():
    out = run_cli(["conjugate", "--preset", "cat-sin", "--eps", "0.5",
                   "--grid", "32"])
    assert out.returncode == 2
    rep = json.loads(out.stdout)
    assert rep["result"]["error"] == "Diverged"


def test_conjugate_grid_power_of_two():
    out = run_cli(["conjugate", "--preset", "cat-sin", "--grid", "100"])
    assert out.returncode == 1


def test_conjugate_grid_memory_gate():
    # 4096^3 points of a T^3 field need terabytes: refused before any grid
    # is allocated, as a parse error.  The CLI is started from a small
    # launcher, because a child forked from this (large) test process
    # would report the test process's peak RSS as its own.
    launcher = (
        "import json, os, subprocess, sys, time\n"
        "t0 = time.perf_counter()\n"
        "p = subprocess.Popen([sys.executable, '-m', 'anosovkit.cli', 'conjugate',\n"
        "                      '--preset', 'psi-t3', '--grid', '4096'],\n"
        "                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)\n"
        "err = p.stderr.read().decode()\n"
        "_, status, usage = os.wait4(p.pid, 0)\n"
        "p.returncode = os.waitstatus_to_exitcode(status)\n"
        "print(json.dumps({'exit': p.returncode, 'stderr': err,\n"
        "                  'maxrss_kb': usage.ru_maxrss,\n"
        "                  'wall': time.perf_counter() - t0}))\n")
    proc = subprocess.run([sys.executable, "-c", launcher], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["exit"] == 1
    assert child["stderr"].startswith("parse error: --grid 4096")
    assert "physical memory" in child["stderr"]
    assert child["maxrss_kb"] < 200 * 1024       # no field was allocated
    assert child["wall"] < 30


def test_conjugate_salem_base_exit2(inputs):
    # a Salem base has eigenvalues on the unit circle: NotAnosov, exit 2
    out = run_cli(["conjugate", "--input", str(inputs / "salem.json"), "--grid", "8"])
    assert out.returncode == 2
    rep = json.loads(out.stdout)
    assert rep["verdict"] == "fail"
    assert rep["result"]["error"] == "NotAnosov"
    assert rep["result"]["detail"] == "generator 0 is not Anosov for the base action"


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


def analyze_report(tmp_path, gens, name="action"):
    src, out = tmp_path / f"{name}.json", tmp_path / f"{name}.out.json"
    src.write_text(json.dumps({"dim": len(gens[0]),
                               "generators": [[x for row in g for x in row] for g in gens]}))
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
    from anosovkit import chambers, spectra

    enumerate_chambers = chambers.weyl_chambers
    calls = []

    def counted(grouping):
        calls.append(grouping)
        return enumerate_chambers(grouping)

    monkeypatch.setattr(chambers, "weyl_chambers", counted)
    monkeypatch.setattr(spectra, "_ANALYSES", {})
    out = tmp_path / "t3.out.json"
    assert main(["analyze", "--input", str(inputs / "t3.json"),
                 "--output", str(out)]) == 0
    assert len(calls) == 1
    res = json.loads(out.read_text())["result"]
    assert res["maximal_intersections"]["pass"]
    assert res["rigidity_hypotheses"]["anosov_element"]["method"] == "box"


@pytest.mark.parametrize("kind", ["JointSpectrumUnsupported", "UndecidedEquality",
                                  "UndecidedSign", "EnclosureTooWide"])
def test_analyze_spectrum_stage_is_inconclusive(inputs, tmp_path, monkeypatch,
                                                capsys, kind):
    from anosovkit import spectra

    def undecided(action):
        raise getattr(spectra, kind)("moduli not separated")

    monkeypatch.setattr(spectra, "joint_spectrum", undecided)
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
    (["conjugate", "--preset", "cat-sin", "--eps", "0.5", "--grid", "32"], 2),
    (["rootsys", "--rank", "2"], 1),                    # no --type
    (["rootsys", "--type", "Z", "--rank", "2"], 1),
])
def test_exit_code_matrix(contract_inputs, tmp_path, capsys, argv, code):
    argv = [str(contract_inputs / a) if a.endswith(".json") else a for a in argv]
    assert exit_code(argv + ["--output", str(tmp_path / "out.json")]) == code
    assert "Traceback" not in capsys.readouterr().err
    if code != 1:
        rep = json.loads((tmp_path / "out.json").read_text())
        assert rep["verdict"] == {2: "fail", 3: "inconclusive"}[code]


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


def cat_power_blocks(exponents):
    """Generator g acts on 2 x 2 block i as C^(exponents[i][g]), C the cat map."""
    cat, inv = [[2, 1], [1, 1]], [[1, -1], [-1, 2]]

    def power(e):
        m = [[1, 0], [0, 1]]
        for _ in range(abs(e)):
            m = [[sum(a * b for a, b in zip(row, col)) for col in zip(*(cat if e > 0 else inv))]
                 for row in m]
        return m

    n = 2 * len(exponents)
    gens = []
    for g in range(len(exponents[0])):
        m = [[0] * n for _ in range(n)]
        for i, e in enumerate(exponents):
            for r, row in enumerate(power(e[g])):
                m[2 * i + r][2 * i:2 * i + 2] = row
        gens.append(m)
    return gens


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


def mp_eigenvalues(m):
    digits = max(len(str(abs(x))) for row in m for x in row)
    with mpmath.workdps(60 + digits):
        return mpmath.eig(mpmath.matrix(m), left=False, right=False)


def near_root_of_unity(z, dim):
    # a root of unity of degree <= dim has order q with phi(q) <= dim, so
    # q <= 2 dim^2
    return any(abs(z ** q - 1) < 1e-30 for q in range(1, 2 * dim * dim + 1))


@st.composite
def cat_power_sums(draw):
    k = draw(st.sampled_from([2, 3]))
    blocks = draw(st.integers(2, 3))
    return [tuple(draw(st.integers(-3, 3)) for _ in range(k)) for _ in range(blocks)]


@given(cat_power_sums())
def test_cat_power_sums_fail_with_verified_certificates(exponents):
    # each functional of such a sum is (e_i . n) log(lambda), so some n != 0
    # with e_i . n = 0 gives sigma(n) the eigenvalue 1: every draw fails
    gens = cat_power_blocks(exponents)
    dim = len(gens[0])
    with tempfile.TemporaryDirectory() as d:
        src, out = Path(d) / "action.json", Path(d) / "out.json"
        src.write_text(json.dumps({"dim": dim, "generators": [
            [x for row in g for x in row] for g in gens]}))
        t0 = time.perf_counter()
        assert main(["analyze", "--input", str(src), "--output", str(out)]) == 2
        assert time.perf_counter() - t0 < 5
        rig = json.loads(out.read_text())["result"]["rigidity_hypotheses"]
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
