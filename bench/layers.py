"""Per-layer metrics from the spans written by ``traced_cli.py``.

A layer is one anosovkit module.  Its self time is the summed duration of
its spans minus the part covered by their child spans.  Named inclusive
times count only the outermost span of a name group, so recursion and
nested calls inside the group are not counted twice.  Times and counts
are totals over one traced round; ``cli.startup_s`` is the median over
the round's ops.  ``trace.overhead_s`` sums what each traced child reports
tracing cost it (see traced_cli.py).
"""

from __future__ import annotations

import json
import statistics

LAYERS = ("cli", "jsonio", "spectra", "algnum", "intpoly", "exact", "chambers",
          "ratlp", "resonance", "normalform", "rootsys", "conjugacy.perturbation",
          "conjugacy.solver", "conjugacy.probes")

_PERT = "conjugacy.perturbation."
_PSI = _PERT + "ConjugatedPerturbation.evaluate"
_TRIG = _PERT + "TrigPolynomial.evaluate"

# metric -> span names whose outermost spans' durations are summed
INCLUSIVE = {
    "spectra.joint_spectrum.s": ("spectra.joint_spectrum",),
    "spectra.check_rigidity_hypotheses.s": ("spectra.check_rigidity_hypotheses",),
    "spectra.functional_kernel_lattice.s": ("spectra.functional_kernel_lattice",),
    "spectra.is_semisimple.s": ("spectra.is_semisimple",),
    "algnum.root_box.s": ("algnum.root_box",),
    "algnum.resultant.s": ("algnum.values_poly", "algnum.power_poly",
                           "algnum.composed_product", "algnum.composed_product_pair"),
    "algnum.from_vanishing.s": ("algnum.RealAlgebraic.from_vanishing",),
    "algnum.LogValue.mpf.s": ("algnum.LogValue.mpf",),
    "exact.solve_linear.s": ("exact.solve_linear",),
    "chambers.weyl_chambers.s": ("chambers.weyl_chambers",),
    "normalform.compose.s": ("normalform.compose",),
    _TRIG + ".s": (_TRIG,),
    _PSI + ".s": (_PSI,),
    "conjugacy.probes.verify_intertwining.s": ("conjugacy.probes.verify_intertwining",),
    "conjugacy.probes.regularity_probe.s": ("conjugacy.probes.regularity_probe",),
}

# metric -> span names whose calls are counted
CALLS = {
    "algnum.root_box.calls": ("algnum.root_box",),
    "algnum.composed_product.calls": ("algnum.composed_product",
                                      "algnum.composed_product_pair"),
    "algnum.LogValue.mpf.calls": ("algnum.LogValue.mpf",),
    "exact.solve_linear.calls": ("exact.solve_linear",),
    "chambers.proportionality_coefficient.calls": ("chambers.proportionality_coefficient",),
    "ratlp.strict_sign_witness.calls": ("ratlp.strict_sign_witness",),
    "normalform.compose.calls": ("normalform.compose",),
    _TRIG + ".calls": (_TRIG,),
    "conjugacy.solver.ConjugacyField.fourier.calls": ("conjugacy.solver.ConjugacyField.fourier",),
}

EXTRA = {  # metric -> unit
    "exact.solve_linear.cells": "count",
    "exact.solve_linear.max_unknowns": "count",
    _TRIG + ".term_points": "count",
    "conjugacy.perturbation.psi_trig_evals_per_call": "count",
    "conjugacy.solver.iterations": "count",
    "conjugacy.solver.field_mb": "MB",
    "conjugacy.solver.rss_over_field": "ratio",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def layer_of(name: str) -> str:
    parts = name.split(".")
    return ".".join(parts[:2]) if parts[0] == "conjugacy" else parts[0]


def _outermost(spans, names) -> list:
    """Per span: True when it has the name group and no ancestor in it."""
    inside = [False] * len(spans)
    top = [False] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        above = parent >= 0 and inside[parent]
        mine = name in names
        inside[i] = above or mine
        top[i] = mine and not above
    return top


def per_layer(traced):
    """(metrics, per-op summaries) for one traced round of records."""
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    incl = {k: 0.0 for k in INCLUSIVE}
    counts = {k: 0 for k in CALLS}
    extra = {k: 0.0 for k in EXTRA}
    startup, per_op = [], []
    psi_calls = psi_trig = 0
    largest_field = (0, None)
    rss = {r.op.id: r.rss_mb for r in traced}
    for rec in traced:
        try:
            with open(rec.spans) as fh:
                trace = json.load(fh)
        except (OSError, ValueError):
            trace = {}
        spans = trace.get("spans", [])
        extra["trace.overhead_s"] += sum(trace.get(k, 0.0) for k in
                                         ("instrument_s", "wrapper_s", "exit_s"))
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        op_layers = {}
        handler = 0.0
        for i, (name, start, end, parent, counters) in enumerate(spans):
            layer = layer_of(name)
            own = end - start - child[i]
            self_s[layer] += own
            calls[layer] += 1
            op_layers[layer] = op_layers.get(layer, 0.0) + own
            if name.startswith("cli.cmd_"):
                handler = end - start
            if counters:
                if name == "exact.solve_linear":
                    extra["exact.solve_linear.cells"] += counters["cells"]
                    extra["exact.solve_linear.max_unknowns"] = max(
                        extra["exact.solve_linear.max_unknowns"], counters["unknowns"])
                elif name == _TRIG:
                    extra[_TRIG + ".term_points"] += counters["term_points"]
                elif name == "conjugacy.solver.solve_conjugacy":
                    extra["conjugacy.solver.iterations"] += counters["iterations"]
                    if counters["field_bytes"] > largest_field[0]:
                        largest_field = (counters["field_bytes"], rec.op.id)
        for key, names in INCLUSIVE.items():
            top = _outermost(spans, names)
            incl[key] += sum(s[2] - s[1] for s, t in zip(spans, top) if t)
        for key, names in CALLS.items():
            counts[key] += sum(1 for s in spans if s[0] in names)
        in_psi = _outermost(spans, (_PSI,))
        psi_calls += sum(in_psi)
        inside = [False] * len(spans)
        for i, s in enumerate(spans):
            inside[i] = s[0] == _PSI or (s[3] >= 0 and inside[s[3]])
            if s[0] == _TRIG and s[3] >= 0 and inside[s[3]]:
                psi_trig += 1
        startup.append(rec.wall - handler - trace.get("exit_s", 0.0))
        extra["trace.spans"] += len(spans)
        per_op.append({"op": rec.op.id, "wall_s": rec.wall, "handler_s": handler,
                       "spans": len(spans), "psi_spans": sum(in_psi),
                       "self_s": {k: round(v, 6) for k, v in sorted(op_layers.items())}})
    if largest_field[1] is not None:
        extra["conjugacy.solver.field_mb"] = largest_field[0] / 1e6
        extra["conjugacy.solver.rss_over_field"] = (rss[largest_field[1]] * 2**20
                                                    / largest_field[0])
    extra["conjugacy.perturbation.psi_trig_evals_per_call"] = (
        psi_trig / psi_calls if psi_calls else 0.0)
    extra["cli.startup_s"] = statistics.median(startup) if startup else 0.0
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = {"value": self_s[layer], "unit": "s"}
        metrics[f"{layer}.calls"] = {"value": calls[layer], "unit": "count"}
    for key, val in incl.items():
        metrics[key] = {"value": val, "unit": "s"}
    for key, val in counts.items():
        metrics[key] = {"value": val, "unit": "count"}
    for key, unit in EXTRA.items():
        metrics[key] = {"value": extra[key], "unit": unit}
    return metrics, per_op
