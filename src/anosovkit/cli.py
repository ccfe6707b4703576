"""Command line front end.

Subcommands: ``analyze`` (full spectral + chamber + rank-two-hypothesis
pipeline on an action JSON), ``resonances`` (bands JSON -> sub-resonance
descriptor), ``normalform`` (polynomial map JSON -> normal form),
``conjugate`` (perturbation JSON or built-in preset -> conjugacy solve,
intertwining and regularity reports), ``rootsys`` (type/rank -> smoothness
class).

Exit codes: 0 pass, 1 parse/validation error (argparse usage errors and
out-of-range option values included), 2 fail, 3 inconclusive: undecided, or
an error that no stage claims, reported as ``{"error": {"kind", "stage",
"detail"}}`` in place of a traceback.
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
from fractions import Fraction

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


def _read_input(path: str):
    with open(path, "rb") as fh:
        raw = fh.read()
    return json.loads(raw.decode("utf-8")), sha256_hex(raw)


def _emit(args, report: dict, text_lines=None) -> None:
    if args.format == "json":
        payload = stable_dumps(report) + "\n"
    else:
        lines = text_lines or []
        lines.append(f"verdict: {report['verdict']}")
        payload = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


_EXIT = {"pass": 0, "fail": 2, "inconclusive": 3, "info": 0}

# Peak RSS of a `conjugate` run, less that of a process that only imports
# the CLI, the conjugacy package and numpy (34 MiB), over the bytes of its
# N^dim x dim float64 displacement field: 7.1 for psi-t3 and 7.1 for
# t3-gen1-only --probe at 128^3, 7.7 for cat-sin --probe at 1024^2 (2-vCPU
# Xeon, Python 3.11, numpy 2.4); rounded up to 10, leaving headroom.
_GRID_WORKING_SET = 10


def cmd_analyze(args) -> int:
    from . import chambers, spectra

    try:
        obj, digest = _read_input(args.input)
        action = spectra.ActionSpec.from_json(obj)
    except (OSError, ValueError, KeyError, TypeError,
            spectra.ActionValidationError) as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 1
    args.digest, args.config = digest, {"tol": args.tol}
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
    report = envelope("analyze", digest, result, verdict, seed=args.seed,
                      config=args.config)
    coarse = result["coarse_spaces"]
    text = [f"dim {action.dim}, rank {action.k}",
            f"functionals: {len(functionals)}",
            f"coarse spaces: {coarse['error'] if isinstance(coarse, dict) else len(coarse)}"
            f" (+ neutral dim {result['neutral_dimension']})"]
    _emit(args, report, text)
    return _EXIT[verdict]


def cmd_resonances(args) -> int:
    from . import resonance

    try:
        obj, digest = _read_input(args.input)
        bands = resonance.SpectrumBands.from_json(obj)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 1
    args.digest = digest
    narrow = resonance.is_narrow_band(bands)
    result = {"narrow_band": narrow}
    verdict = "pass"
    if narrow:
        desc = resonance.sr_group_descriptor(bands)
        result["descriptor"] = desc.to_json()
        from .normalform import smoothness_metadata

        result["smoothness"] = smoothness_metadata(bands)
    else:
        verdict = "fail"
        result["failure_certificate"] = "NotNarrowBand"
    report = envelope("resonances", digest, result, verdict, seed=args.seed)
    _emit(args, report, [f"narrow band: {narrow}"])
    return _EXIT[verdict]


def cmd_normalform(args) -> int:
    from . import normalform

    try:
        obj, digest = _read_input(args.input)
        fmap = normalform.BlockedPolynomialMap.from_json(obj)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 1
    args.digest, args.config = digest, {"degree": args.degree, "tol": args.tol}
    try:
        res = normalform.normalize_contraction(fmap, degree=args.degree)
    except (normalform.ResonantDenominator, ValueError) as exc:
        report = envelope("normalform", digest,
                          {"error": str(exc)}, "fail", seed=args.seed)
        _emit(args, report, [f"error: {exc}"])
        return 2
    ok, violators = normalform.is_subresonance_type(res.normal)
    result = res.to_json()
    result["normal_is_subresonance_type"] = ok
    result["violators"] = [list(map(list, violators))] if violators else []
    verdict = "pass" if ok and (res.residual == 0 or float(res.residual) < args.tol) \
        else "fail"
    report = envelope("normalform", digest, result, verdict, seed=args.seed,
                      config=args.config)
    _emit(args, report, [f"residual: {res.residual}"])
    return _EXIT[verdict]


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


def cmd_conjugate(args) -> int:
    from . import conjugacy

    ground_truth = None
    if args.preset:
        try:
            pert, ground_truth = _build_preset(args.preset, args.eps)
        except ValueError as exc:
            sys.stderr.write(f"parse error: {exc}\n")
            return 1
        digest = sha256_hex(stable_dumps(
            {"preset": args.preset, "eps": args.eps}).encode())
    else:
        try:
            obj, digest = _read_input(args.input)
            pert = conjugacy.ToralPerturbation.from_json(obj)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            sys.stderr.write(f"parse error: {exc}\n")
            return 1
    if args.grid & (args.grid - 1):
        sys.stderr.write("parse error: --grid must be a power of two\n")
        return 1
    if not 0 <= args.generator < pert.k:
        sys.stderr.write(f"parse error: --generator {args.generator} is not one of "
                         f"the {pert.k} generators (0 to {pert.k - 1})\n")
        return 1
    need = args.grid ** pert.dim * pert.dim * 8 * _GRID_WORKING_SET
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        sys.stderr.write(f"parse error: --grid {args.grid} on T^{pert.dim} needs about "
                         f"{need / 2**30:.1f} GiB, more than the {have / 2**30:.1f} GiB "
                         "of physical memory\n")
        return 1
    config = {"grid": args.grid, "tol": args.tol, "generator": args.generator,
              "mode": args.mode, "eps": args.eps if args.preset else None,
              "preset": args.preset}
    args.digest, args.config = digest, config
    # NotAnosov is an exact certificate; a refusal (Diverged,
    # ResolutionInsufficient) is none and reaches main's boundary: exit 3
    args.stage = "solve"
    try:
        field = conjugacy.solve_conjugacy(
            pert, solving_generator=args.generator, resolution=args.grid,
            tol=args.tol, max_iter=args.max_iter, mode=args.mode)
    except conjugacy.NotAnosov as exc:
        report = envelope("conjugate", digest,
                          {"error": type(exc).__name__, "detail": str(exc)},
                          "fail", seed=args.seed, config=config)
        _emit(args, report, [f"error: {exc}"])
        return 2
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
        import numpy as np

        err = float(np.max(np.abs(field.u - ground_truth(field.grid_points()))))
        result["ground_truth_recovery_error"] = err
    if args.dump_grid:
        field.export_binary(args.dump_grid)
        result["grid_dump"] = args.dump_grid
    result["fourier_table"] = field.fourier_table(top=args.fourier_top)
    budget = intertwining["interpolation_budget"]
    verdict = "pass" if intertwining["max_residual"] <= args.tol * 10 + budget \
        else "fail"
    report = envelope("conjugate", digest, result, verdict, seed=args.seed,
                      config=config)
    _emit(args, report, [
        f"residual {field.residual:.3e} in {field.iterations} iterations",
        f"intertwining residuals: {intertwining['residuals']}"])
    return _EXIT[verdict]


def cmd_rootsys(args) -> int:
    from . import rootsys

    try:
        mult = json.loads(args.multiplicities) if args.multiplicities else None
        system = rootsys.build_root_system(args.type, args.rank, mult)
    except (rootsys.InvalidType, ValueError) as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 1
    digest = sha256_hex(stable_dumps(
        {"type": args.type, "rank": args.rank,
         "multiplicities": args.multiplicities}).encode())
    args.digest = digest
    flow, _spaces = rootsys.weyl_flow_lyapunov_data(system)
    smooth = rootsys.smoothness_class_report(system)
    result = {"system": system.to_json(), "weyl_flow": flow,
              "smoothness": smooth}
    verdict = "pass"
    report = envelope("rootsys", digest, result, verdict, seed=args.seed)
    _emit(args, report, [f"type {args.type}_{args.rank}: {smooth['class']}"
                         + (" (rank-1 warning: rigidity needs rank >= 2)"
                            if smooth["rank_warning"] else "")])
    return _EXIT[verdict]


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
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--seed", type=int, default=0,
                       help="recorded in the report; fixes randomized sub-runs")
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
    # the command records its stage, input hash and config here as it goes,
    # for the error report below
    args.stage, args.digest, args.config = args.command, None, None
    try:
        return args.func(args)
    except Exception as exc:
        # the one boundary for errors that no stage claims: exit 3 with a
        # structured error in the report, and the raising line on stderr
        # in place of a traceback
        import traceback

        frame = traceback.extract_tb(exc.__traceback__)[-1]
        sys.stderr.write(f"error in stage {args.stage} at {frame.filename}:"
                         f"{frame.lineno}: {type(exc).__name__}: {exc}\n")
        error = {"kind": type(exc).__name__, "stage": args.stage, "detail": str(exc)}
        report = envelope(args.command, args.digest, {"error": error}, "inconclusive",
                          seed=args.seed, config=args.config)
        _emit(args, report, [f"error: {exc}"])
        return _EXIT["inconclusive"]


if __name__ == "__main__":
    sys.exit(main())
