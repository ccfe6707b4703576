"""Run one ``anosovkit`` CLI command with its public API timed from outside.

Usage: python3 traced_cli.py SPANS_OUT OP_ID -- SUBCOMMAND [ARGS...]

An import hook instruments each ``anosovkit`` module as it finishes
loading: every public function, and every public method of a public
class, is replaced by a wrapper that records a span.  The wrapper is also
written into every loaded ``anosovkit`` namespace that bound the original
object (``spectra`` imports ``algnum`` names directly), and modules loaded
later import the wrapper itself.  Modules load lazily, as in the plain
CLI, so the thread cap still applies before numpy is imported.

A span is [name, start, end, parent index, counters]; counters come from
arguments and return values.  Spans stay in memory and are written to
SPANS_OUT as one JSON object when the command ends, whatever its outcome,
together with what tracing cost the process: time spent instrumenting
modules, the calibrated wrapper cost times the span count, and the time
spent after the command (calibration and serialising the spans).
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import json
import sys
import time

PACKAGE = "anosovkit"


def _solve_linear(args, out):
    a = args[0]
    cols = len(a[0]) if a else 0
    return {"cells": len(a) * cols, "unknowns": cols}


def _trig_evaluate(args, out):
    return {"term_points": len(args[0].terms) * args[1].shape[0]}


def _solve_conjugacy(args, out):
    return {"iterations": out.iterations, "field_bytes": out.u.size * 8}


# span name -> counters(args, return value)
COUNTERS = {
    "exact.solve_linear": _solve_linear,
    "conjugacy.perturbation.TrigPolynomial.evaluate": _trig_evaluate,
    "conjugacy.solver.solve_conjugacy": _solve_conjugacy,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.instrument_s = 0.0

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[4] = counter(args, out)
            return out

        traced.__bench_traced__ = True
        return traced

    def instrument(self, module) -> None:
        t0 = time.perf_counter()
        self._instrument(module)
        self.instrument_s += time.perf_counter() - t0

    def _instrument(self, module) -> None:
        modname = module.__name__
        layer = modname[len(PACKAGE) + 1:]
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                continue
            if inspect.isclass(obj):
                if not issubclass(obj, BaseException):
                    self._instrument_class(layer, obj)
            elif _wrappable(obj):
                wrapped = self.wrap(f"{layer}.{name}", obj)
                for other in _loaded_modules():
                    for key, val in list(vars(other).items()):
                        if val is obj:
                            setattr(other, key, wrapped)

    def _instrument_class(self, layer, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (staticmethod, classmethod)):
                if _wrappable(member.__func__):
                    setattr(cls, attr, type(member)(self.wrap(name, member.__func__)))
            elif _wrappable(member):
                setattr(cls, attr, self.wrap(name, member))


def _wrappable(obj) -> bool:
    if getattr(obj, "__bench_traced__", False):
        return False
    if inspect.isfunction(obj):
        return not inspect.isgeneratorfunction(obj)
    return hasattr(obj, "cache_info")   # functools.lru_cache wrapper


def _loaded_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


class _InstrumentingFinder(importlib.abc.MetaPathFinder):
    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname != PACKAGE and not fullname.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        tracer = self.tracer

        def exec_and_instrument(module):
            exec_module(module)
            tracer.instrument(module)

        spec.loader.exec_module = exec_and_instrument
        return spec


def wrapper_cost(calls: int = 5000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op."""
    def noop():
        return None

    wrapped = Tracer().wrap("calibration", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    t1 = clock()
    for _ in range(calls):
        wrapped()
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def main(argv) -> int:
    out_path, op_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = Tracer()
    sys.meta_path.insert(0, _InstrumentingFinder(tracer))
    code = 1
    try:
        from anosovkit import cli

        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        raise
    finally:
        t1 = time.perf_counter()
        per_call = wrapper_cost()
        spans = json.dumps(tracer.spans)
        t2 = time.perf_counter()
        head = json.dumps({"op": op_id, "exit": code, "instrument_s": tracer.instrument_s,
                           "wrapper_s": per_call * len(tracer.spans),
                           "exit_s": t2 - t1})
        with open(out_path, "w") as fh:
            fh.write(head[:-1] + ', "spans": ' + spans + "}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
