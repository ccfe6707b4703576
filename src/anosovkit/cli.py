"""Command line front end.

Subcommands: ``analyze`` (full spectral + chamber + rank-two-hypothesis
pipeline on an action JSON), ``resonances`` (bands JSON -> sub-resonance
descriptor), ``normalform`` (polynomial map JSON -> normal form),
``conjugate`` (perturbation JSON or built-in preset -> conjugacy solve,
intertwining and regularity reports), ``rootsys`` (type/rank -> smoothness
class).

Exit codes: 0 pass, 1 parse/validation error (argparse usage errors and
out-of-range option values included; no report), 2 fail, 3 inconclusive:
undecided, or an error that no stage claims.  A command returns its result
and verdict to ``main``, which alone writes the report and picks the exit
code.  An exception that the current stage names as certifying a fail
(exit 2), and any other exception (exit 3), is reported as ``{"error":
{"kind", "stage", "detail"}}`` in place of a traceback.
Reports are byte-stable for fixed inputs and seed: keys are sorted, no
timestamps or timings are embedded, and the input hash is recorded.

ANOSOV_KIT_THREADS caps BLAS/FFT parallelism; it must be read before numpy
is first imported, which is why the heavy modules load lazily inside the
command handlers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .jsonio import envelope, sha256_hex, stable_dumps

_PRESETS = {
    "cat-sin": "cat map with p(x) = (eps*sin(2 pi x2), 0)",
    "psi-cat": "cat map conjugated by psi = id + eps*q (ground truth known)",
    "psi-t3": "rank-2 action on T^3 conjugated by psi (ground truth known)",
    "t3-gen1-only": "T^3 pair with only generator 1 perturbed (negative control)",
}


def _apply_thread_cap():
    cap = os.environ.get("ANOSOV_KIT_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, cap)


class _ParseError(Exception):
    """An input or option value that cannot be read or parsed: exit 1, with
    no report."""


def _parsed(build, *args):
    """``build(*args)``, with any failure to read or parse it a _ParseError."""
    try:
        return build(*args)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _ParseError(exc) from exc


def _check_output(path: str):
    """A _ParseError unless the report can be written at ``path``: checked
    before any stage runs, so that an unwritable path costs no computation."""
    if os.path.exists(path):
        writable = not os.path.isdir(path) and os.access(path, os.W_OK)
    else:
        parent = os.path.dirname(path) or "."
        writable = os.path.isdir(parent) and os.access(parent, os.W_OK)
    if not writable:
        raise _ParseError(f"cannot write the report to --output {path}")


def _read_input(path: str, parse):
    """The JSON file at ``path`` through ``parse``, and the file's SHA-256."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return parse(json.loads(raw.decode("utf-8"))), sha256_hex(raw)


_EXIT = {"pass": 0, "fail": 2, "inconclusive": 3}

# Peak RSS of a `conjugate` run, less that of a process that only imports
# the CLI, the conjugacy package and numpy (34 MiB), over the bytes of its
# N^dim x dim float64 displacement field: 2.5 for psi-t3 and 2.5 for
# t3-gen1-only --probe at 128^3, 2.8 for cat-sin --probe at 1024^2 (os.wait4,
# 2-vCPU Xeon, Python 3.11, numpy 2.4); with about 30 % headroom, 4.
_GRID_WORKING_SET = 4


def cmd_analyze(args):
    from . import chambers, spectra

    action, args.digest = _parsed(_read_input, args.input, spectra.ActionSpec.from_json)
    args.config = {"tol": args.tol}
    args.stage = "joint_spectrum"
    analysis = spectra.analyze(action)
    classes = analysis.classes()
    functionals = analysis.functionals()
    result = {
        "dim": action.dim,
        "k": action.k,
        "labels": list(action.labels),
        "joint_classes": [
            {"index": c.index,
             "moduli_log": [lv.mid() for lv in c.moduli_log],
             "enclosure_widths": [float(iv.width) for iv in c.enclosures(args.tol)],
             "dimension": c.dimension,
             "minimal_polynomial": list(c.minimal_polynomial)}
            for c in classes],
        "lyapunov_functionals": [
            {"coeffs": [lv.mid() for lv in f.coeffs],
             "multiplicity": f.multiplicity,
             "classes": list(f.classes)} for f in functionals],
    }
    args.stage = "semisimple"
    result["semisimple"] = spectra.is_semisimple(action)
    args.stage = "weak_mixing"
    result["weak_mixing_per_generator"] = [
        spectra.is_weak_mixing(action.generator(i)) for i in range(action.k)]
    # coarse spaces, chambers and maximal intersections all read the one
    # grouping and enumeration of this analysis; an undecided step reports
    # its error in each field it feeds
    args.stage = "chamber_geometry"
    geometry = ["coarse_spaces", "chambers"] + (["maximal_intersections"]
                                                if action.k >= 2 else [])
    try:
        result["coarse_spaces"] = [
            {"normal": [float(x) for x in s.halfspace.normal],
             "members": list(s.halfspace.member_functionals),
             "coefficients": [c for c in s.coefficients],
             "dimension": s.dimension} for s in analysis.grouping.coarse_spaces]
        arr = analysis.chamber_arrangement
        if arr is not None:
            result["chambers"] = {
                "walls": len(arr.walls),
                "count": len(arr.chambers),
                "witnesses": [[x for x in ch.witness] for ch in arr.chambers],
                "integer_witnesses": [chambers.find_regular_element(arr, ch)
                                      for ch in arr.chambers],
            }
            if action.k >= 2:
                result["maximal_intersections"] = \
                    chambers.check_maximal_intersections(arr)
    except (chambers.UndecidedSign, chambers.UndecidedProportionality) as exc:
        for key in geometry:
            result.setdefault(key, {"error": type(exc).__name__, "detail": str(exc)})
    # needs no proportionality, so it is reported when the grouping fails too
    result["neutral_dimension"] = sum(f.multiplicity for f in functionals
                                      if f.is_zero_functional())
    args.stage = "rigidity_hypotheses"
    if action.k >= 2:
        hyp = spectra.check_rigidity_hypotheses(analysis)
        result["rigidity_hypotheses"] = hyp
        verdict = hyp["verdict"]
    else:
        result["rigidity_hypotheses"] = "not applicable (k < 2)"
        anosov = analysis.is_anosov([1])
        result["generator_anosov"] = anosov
        verdict = "pass" if anosov else "fail"
        if not anosov:
            result["failure_certificate"] = "NotAnosov: generator has a unit-modulus eigenvalue"
    return result, verdict


def cmd_resonances(args):
    from . import resonance

    bands, args.digest = _parsed(_read_input, args.input, resonance.SpectrumBands.from_json)
    narrow = resonance.is_narrow_band(bands)
    result = {"narrow_band": narrow}
    verdict = "pass"
    if narrow:
        desc = resonance.sr_group_descriptor(bands)
        result["descriptor"] = desc.to_json()
        result["smoothness"] = resonance.smoothness_metadata(desc)
    else:
        verdict = "fail"
        result["failure_certificate"] = "NotNarrowBand"
    return result, verdict


def cmd_normalform(args):
    from . import normalform

    fmap, args.digest = _parsed(_read_input, args.input,
                                normalform.BlockedPolynomialMap.from_json)
    args.config = {"degree": args.degree, "tol": args.tol}
    # a resonant denominator, or a linear part that is not semisimple within
    # a block, certifies that the map has no normal form here: exit 2
    args.certifies = (normalform.ResonantDenominator, ValueError)
    res = normalform.normalize_contraction(fmap, degree=args.degree)
    args.certifies = ()
    ok, violators = normalform.is_subresonance_type(res.normal)
    result = res.to_json()
    result["normal_is_subresonance_type"] = ok
    result["violators"] = [list(map(list, violators))] if violators else []
    verdict = "pass" if ok and (res.residual == 0 or float(res.residual) < args.tol) \
        else "fail"
    return result, verdict


def _build_preset(name: str, eps: float):
    import numpy as np

    from .exact import validate_action
    from .conjugacy import ToralPerturbation, TrigPolynomial, psi_conjugation

    cat = validate_action([[[2, 1], [1, 1]]])
    m_mat = [[0, 0, -1], [1, 0, 2], [0, 1, 1]]
    n_mat = (np.array(m_mat) @ np.array(m_mat) - 2 * np.eye(3, dtype=int)).astype(int)
    t3 = validate_action([m_mat, n_mat.tolist()])
    if name == "cat-sin":
        p = TrigPolynomial([((0, 1), (0.0, 0.0), (eps, 0.0))], 2)
        return ToralPerturbation(base=cat, perturbations=[p]), None
    if name == "psi-cat":
        q = TrigPolynomial([((1, 0), (0.15, 0.05), (0.2, 0.1)),
                            ((1, 1), (0.1, -0.15), (0.0, 0.12))], 2)
        return psi_conjugation(cat, q, eps)
    if name == "psi-t3":
        q = TrigPolynomial([((1, 0, 0), (0.08, 0.04, -0.05), (0.1, 0.0, 0.06)),
                            ((0, 1, 1), (0.0, 0.06, 0.03), (-0.04, 0.08, 0.0))], 3)
        return psi_conjugation(t3, q, eps)
    if name == "t3-gen1-only":
        p1 = TrigPolynomial([((0, 1, 1), (0.0, eps, 0.0), (eps, 0.0, eps))], 3)
        p2 = TrigPolynomial([], 3)
        return ToralPerturbation(base=t3, perturbations=[p1, p2]), None
    raise ValueError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}")


def cmd_conjugate(args):
    from . import conjugacy

    ground_truth = None
    if args.preset:
        pert, ground_truth = _parsed(_build_preset, args.preset, args.eps)
        args.digest = sha256_hex(stable_dumps(
            {"preset": args.preset, "eps": args.eps}).encode())
    else:
        pert, args.digest = _parsed(_read_input, args.input,
                                    conjugacy.ToralPerturbation.from_json)
    if args.grid & (args.grid - 1):
        raise _ParseError("--grid must be a power of two")
    if not 0 <= args.generator < pert.k:
        raise _ParseError(f"--generator {args.generator} is not one of "
                          f"the {pert.k} generators (0 to {pert.k - 1})")
    need = args.grid ** pert.dim * pert.dim * 8 * _GRID_WORKING_SET
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise _ParseError(f"--grid {args.grid} on T^{pert.dim} needs about "
                          f"{need / 2**30:.1f} GiB, more than the {have / 2**30:.1f} GiB "
                          "of physical memory")
    args.config = {"grid": args.grid, "tol": args.tol, "generator": args.generator,
                   "mode": args.mode, "eps": args.eps if args.preset else None,
                   "preset": args.preset}
    # NotAnosov is an exact certificate: exit 2; a refusal (Diverged,
    # ResolutionInsufficient) is none: exit 3
    args.stage, args.certifies = "solve", (conjugacy.NotAnosov,)
    field = conjugacy.solve_conjugacy(
        pert, solving_generator=args.generator, resolution=args.grid,
        tol=args.tol, max_iter=args.max_iter, mode=args.mode)
    args.certifies = ()
    result = {
        "resolution": field.resolution,
        "iterations": field.iterations,
        "residual": field.residual,
        "residual_history": field.residual_history,
        "sup_displacement": field.sup_u(),
        "mode": field.mode,
        "commutativity_defect": pert.commutativity_defect(),
        "c1_norm_bound": pert.c1_norm_bound(),
    }
    args.stage = "intertwining"
    intertwining = conjugacy.verify_intertwining(field, pert)
    result["intertwining"] = intertwining
    if args.probe:
        args.stage = "regularity"
        result["regularity"] = conjugacy.regularity_probe(field)
    args.stage = "report"
    if ground_truth is not None:
        result["ground_truth_recovery_error"] = field.sup_error(ground_truth)
    if args.dump_grid:
        field.export_binary(args.dump_grid)
        result["grid_dump"] = args.dump_grid
    result["fourier_table"] = field.fourier_table(top=args.fourier_top)
    budget = intertwining["interpolation_budget"]
    verdict = "pass" if intertwining["max_residual"] <= args.tol * 10 + budget \
        else "fail"
    return result, verdict


def cmd_rootsys(args):
    from . import rootsys

    mult = _parsed(json.loads, args.multiplicities) if args.multiplicities else None
    system = _parsed(rootsys.build_root_system, args.type, args.rank, mult)
    args.digest = sha256_hex(stable_dumps(
        {"type": args.type, "rank": args.rank,
         "multiplicities": args.multiplicities}).encode())
    flow, _spaces = rootsys.weyl_flow_lyapunov_data(system)
    smooth = rootsys.smoothness_class_report(system)
    result = {"system": system.to_json(), "weyl_flow": flow,
              "smoothness": smooth}
    return result, "pass"


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the parse-error code (argparse's own 2 is the
    fail code here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive(kind):
    """argparse type: a number of the given kind that is > 0."""
    def parse(text):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    parse.__name__ = kind.__name__   # names the type in argparse's messages
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="anosovkit",
        description="Rigidity toolkit for higher-rank abelian Anosov actions")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True, tol=True):
        if needs_input:
            p.add_argument("--input", required=False, help="input JSON path")
        p.add_argument("--output", help="write the report here (default stdout)")
        p.add_argument("--seed", type=int, default=0,
                       help="recorded in the report only; no result depends on it")
        if tol:
            p.add_argument("--tol", type=_positive(float), default=1e-10)

    p = sub.add_parser("analyze", help="spectral + chamber + rigidity analysis")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("resonances", help="sub-resonance descriptor of bands")
    common(p, tol=False)
    p.set_defaults(func=cmd_resonances)

    p = sub.add_parser("normalform", help="sub-resonance normal form of a map")
    common(p)
    p.add_argument("--degree", type=_positive(int), default=None)
    p.set_defaults(func=cmd_normalform)

    p = sub.add_parser("conjugate", help="solve the conjugacy of a perturbation")
    common(p)
    p.add_argument("--preset", choices=sorted(_PRESETS),
                   help="built-in perturbation family instead of --input")
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--grid", type=_positive(int), default=256)
    p.add_argument("--generator", type=int, default=0)
    p.add_argument("--max-iter", type=_positive(int), default=10000)
    p.add_argument("--mode", choices=("cycle", "transfer"), default="cycle")
    p.add_argument("--probe", action="store_true",
                   help="attach the directional regularity report")
    p.add_argument("--dump-grid", help="binary displacement dump path")
    p.add_argument("--fourier-top", type=_positive(int), default=16)
    p.set_defaults(func=cmd_conjugate)

    p = sub.add_parser("rootsys", help="root system smoothness class")
    common(p, needs_input=False, tol=False)
    p.add_argument("--type", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--multiplicities", help="JSON map, e.g. '{\"e\": 2}'")
    p.set_defaults(func=cmd_rootsys)
    return parser


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "input", None) is None and args.command in (
            "analyze", "resonances", "normalform") :
        parser.error(f"{args.command} requires --input")
    if args.command == "conjugate" and not args.preset and not args.input:
        parser.error("conjugate requires --input or --preset")
    # the command records here as it goes its stage, the exceptions that
    # certify a fail in that stage, its input hash and its config, for the
    # report below
    args.stage, args.certifies, args.digest, args.config = args.command, (), None, None
    try:
        if args.output:
            _check_output(args.output)
        result, verdict = args.func(args)
    except _ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 1
    except Exception as exc:
        # the one boundary for errors: a certified fail (exit 2), or else an
        # undecided step or an error that no stage claims (exit 3) with the
        # raising line on stderr in place of a traceback; both report the
        # error in one structured shape
        verdict = "fail" if isinstance(exc, args.certifies) else "inconclusive"
        if verdict == "inconclusive":
            import traceback

            frame = traceback.extract_tb(exc.__traceback__)[-1]
            sys.stderr.write(f"error in stage {args.stage} at {frame.filename}:"
                             f"{frame.lineno}: {type(exc).__name__}: {exc}\n")
        result = {"error": {"kind": type(exc).__name__, "stage": args.stage,
                            "detail": str(exc)}}
    report = stable_dumps(envelope(args.command, args.digest, result, verdict,
                                   seed=args.seed, config=args.config)) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)
    return _EXIT[verdict]


if __name__ == "__main__":
    sys.exit(main())
