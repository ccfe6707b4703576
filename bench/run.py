"""End-to-end benchmark of the anosovkit CLI.

    python3 bench/run.py --workload spectral --seed 1 --seconds 10 --trace 0

Run from the repository root.  One client runs a closed loop: it starts one
``anosovkit`` CLI child at a time, exactly as a user would, waits for it,
and takes its wall time, CPU time and peak RSS from ``os.wait4``.  It runs
whole rounds of the workload's ops until ``--seconds`` have passed (at
least one round), then checks every report against the independent oracles
in ``oracles.py`` and the committed expectations in ``expected.json``.

With ``--trace 1`` it runs one round through ``traced_cli.py`` and prints
the per-layer metrics instead of the end-to-end ones.  See README.md for
the workloads and metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(machine, every op, every failure, per-op trace summaries) is written to
``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402

# What a fresh interpreter imports before a workload's subcommands can run:
# the modules their handlers load, including the lazy numpy/sympy imports.
SETUP_IMPORTS = {
    "spectral": "anosovkit.cli, anosovkit.spectra, anosovkit.chambers, anosovkit.rootsys",
    "normal-forms": "anosovkit.cli, anosovkit.normalform, numpy, sympy",
    "grid": "anosovkit.cli, anosovkit.conjugacy",
}
SETUP_SAMPLES = 5
OP_TIMEOUT_S = 150
# Double-precision floor for accuracy_digits: an exact answer reads as 15.95.
ACCURACY_FLOOR = 2.0 ** -53

END_TO_END_UNITS = {"goodput_per_min": "1/min", "op_s_p50": "s", "peak_rss_mb": "MB",
                    "passed_frac": "ratio", "setup_s": "s", "accuracy_digits": "digits"}


@dataclass
class Record:
    op: corpus.Op
    traced: bool
    round: int
    wall: float
    cpu: float
    rss_mb: float
    exit: int
    out: str
    err: str
    dump: str | None
    spans: str | None
    ok: bool = False
    kind: str = ""
    known: bool = False
    error: float = 0.0
    detail: str = ""
    report: dict | None = field(default=None, repr=False)


class Runner:
    def __init__(self, root: str, work: str, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        # single-threaded baseline; the CLI only sets the BLAS/OpenMP caps
        # when they are unset, so they are pinned here as well
        for var in ("ANOSOV_KIT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            self.env[var] = "1"

    def spawn(self, argv, out_path, err_path):
        """Run one child to completion: (wall s, cpu s, peak RSS MB, exit code)."""
        t0 = time.perf_counter()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.root)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)   # reaped by wait4
        return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode)

    def write_inputs(self, ops):
        for op in ops:
            for name, obj in op.files.items():
                with open(os.path.join(self.work, name + ".json"), "w") as fh:
                    json.dump(obj, fh)

    def run_op(self, op, rnd: int, traced: bool) -> Record:
        tag = f"{op.id}.{'t' if traced else 'u'}{rnd}"
        base = os.path.join(self.work, tag)
        args = [a.replace("{dir}", self.work) for a in op.args]
        args += ["--seed", str(self.seed)]
        dump = base + ".bin" if op.dump else None
        if dump:
            args += ["--dump-grid", dump]
        spans = base + ".spans.json" if traced else None
        if traced:
            argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans, op.id,
                    "--", op.command] + args
        else:
            argv = [sys.executable, "-m", "anosovkit.cli", op.command] + args
        wall, cpu, rss, code = self.spawn(argv, base + ".out", base + ".err")
        return Record(op, traced, rnd, wall, cpu, rss, code, base + ".out",
                      base + ".err", dump, spans)

    def setup_time(self, workload: str) -> list:
        argv = [sys.executable, "-c", f"import {SETUP_IMPORTS[workload]}"]
        out = os.path.join(self.work, "setup.out")
        times = []
        for _ in range(SETUP_SAMPLES):
            wall, _, _, code = self.spawn(argv, out, out + ".err")
            if code != 0:
                raise RuntimeError(f"setup import failed: {_read(out + '.err')[-500:]}")
            times.append(wall)
        return times


def _read(path) -> str:
    with open(path, "r", errors="replace") as fh:
        return fh.read()


def exception_kind(stderr: str) -> str:
    lines = [ln for ln in stderr.strip().splitlines() if ln.strip()]
    if not lines:
        return ""
    m = re.match(r"^([A-Za-z_][\w.]*)(:|$)", lines[-1])
    return m.group(1).rsplit(".", 1)[-1] if m else ""


def classify(rec: Record, expect: dict) -> None:
    """Fill in ok/kind/detail/error; a failure is matched against the
    committed known failure of the op, if any."""
    stderr = _read(rec.err)
    if rec.exit not in (0, 2, 3) or "Traceback (most recent call last)" in stderr:
        rec.kind = exception_kind(stderr) or f"exit {rec.exit}"
        rec.detail = stderr.strip().splitlines()[-1][:300] if stderr.strip() else ""
    else:
        try:
            with open(rec.out) as fh:
                rec.report = json.load(fh)
        except (OSError, ValueError) as exc:
            rec.kind, rec.detail = "NoReport", str(exc)[:300]
        else:
            try:
                oracles.check_verdict(rec.report, expect["verdict"], rec.exit)
                rec.error = oracles.CHECKS[rec.op.command](rec.report, rec.op.data, rec.dump)
                rec.ok = True
            except oracles.OracleError as exc:
                rec.kind, rec.detail = "OracleMismatch", str(exc)[:300]
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                rec.kind = "MalformedReport"
                rec.detail = f"{type(exc).__name__}: {exc}"[:300]
    if not rec.ok:
        rec.known = rec.kind == expect.get("known_failure")


def machine_info(root: str, workload, seed, seconds, trace) -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "platform": platform.platform(), "workload": workload, "seed": seed,
            "seconds": seconds, "trace": trace, "threads": 1}
    for pkg in ("numpy", "sympy", "mpmath"):
        try:
            info[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            info[pkg] = None
    try:
        cpu = _read("/proc/cpuinfo")
        info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in cpu.splitlines()
                            if ln.startswith("model name")), None)
        mem = _read("/proc/meminfo")
        kb = int(re.search(r"MemTotal:\s+(\d+)", mem).group(1))
        info["memory_mb"] = kb // 1024
    except (OSError, AttributeError):
        pass
    info["commit"] = _commit(root)
    return info


def _commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        ref = _read(head).strip()
        if ref.startswith("ref: "):
            return _read(os.path.join(root, ".git", ref[5:])).strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def end_to_end(records, loop_wall: float, setup: list) -> dict:
    walls = [r.wall for r in records]
    rss = [r.rss_mb for r in records]
    # a failed op ranks at or above every success: it takes the largest value
    ranked = [r.wall if r.ok else max(walls) for r in records]
    passed = sum(r.ok for r in records)
    worst = max((r.error for r in records if r.ok), default=0.0)
    values = {
        "goodput_per_min": passed / loop_wall * 60.0,
        "op_s_p50": statistics.median(ranked),
        "peak_rss_mb": max(rss),
        "passed_frac": passed / len(records),
        "setup_s": statistics.median(setup),
        "accuracy_digits": -math.log10(max(worst, ACCURACY_FLOOR)),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def run_pass(runner, ops, seconds: float, traced: bool):
    """Whole rounds of ``ops`` until ``seconds`` have passed, at least one."""
    records = []
    t0 = time.perf_counter()
    rnd = 0
    while rnd == 0 or time.perf_counter() - t0 < seconds:
        records.extend(runner.run_op(op, rnd, traced) for op in ops)
        rnd += 1
    return records, time.perf_counter() - t0


def self_test(records, expected) -> list:
    """One passing report per kind of check, corrupted; returns the misses."""
    missed, seen = [], set()
    for rec in records:
        kind = oracles.check_kind(rec.op)
        if not rec.ok or kind in seen:
            continue
        seen.add(kind)
        for label in oracles.self_test(rec.op.command, rec.op, rec.report, rec.dump,
                                       rec.exit, expected[rec.op.id]["verdict"]):
            missed.append(f"{rec.op.id}: {label}")
    return missed


def run_workload(root, workload, seed, seconds, trace) -> dict:
    """One benchmark run of one workload; returns the result-line object."""
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)[workload]
    phases = {}
    clock = time.perf_counter()

    def phase(name):
        nonlocal clock
        now = time.perf_counter()
        phases[name] = now - clock
        clock = now

    ops = corpus.build(workload, seed)
    missing = [op.id for op in ops if op.id not in expected]
    if missing:
        raise KeyError(f"no committed expectation for {missing}")
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir)
    summary = {"machine": machine_info(root, workload, seed, seconds, trace)}
    try:
        runner = Runner(root, work, seed)
        runner.write_inputs(ops)
        phase("generate_s")
        runner.run_op(corpus.warmup_op(workload, ops), -1, False)
        phase("warmup_s")
        if trace:
            records, _ = run_pass(runner, ops, 0, True)
            phase("loop_s")
            metrics, summary["trace"] = layers.per_layer(records)
        else:
            setup = runner.setup_time(workload)
            summary["setup_samples_s"] = setup
            phase("setup_s")
            records, loop_wall = run_pass(runner, ops, seconds, False)
            phase("loop_s")
        for rec in records:
            classify(rec, expected[rec.op.id])
        phase("check_s")
        missed = self_test(records, expected)
        phase("self_test_s")
        if not trace:
            metrics = end_to_end(records, loop_wall, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unexpected = [r for r in records if not r.ok and not r.known]
    wrong = [r for r in unexpected if r.kind in ("OracleMismatch", "MalformedReport")]
    summary["phases_s"] = phases
    summary["ops"] = [{"op": r.op.id, "command": r.op.command, "traced": r.traced,
                       "round": r.round, "wall_s": r.wall, "cpu_s": r.cpu,
                       "rss_mb": r.rss_mb, "exit": r.exit, "ok": r.ok,
                       "failure": r.kind or None, "known": r.known,
                       "detail": r.detail or None, "error": r.error}
                      for r in records]
    summary["self_test_missed"] = missed
    summary["metrics"] = metrics
    name = f"{workload}-seed{seed}-trace{trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(summary, fh, indent=1)

    passed = sum(r.ok for r in records)
    print(f"anosovkit benchmark: workload {workload}, seed {seed}, trace {trace}; "
          f"{passed}/{len(records)} ops passed; details in .bench_out/{name}")
    for rec in records:
        if not rec.ok:
            status = "known failure" if rec.known else "FAILED"
            detail = "" if rec.detail.startswith(rec.kind) else f"{rec.kind}: "
            print(f"  {status}: {rec.op.id} ({'traced' if rec.traced else 'plain'}) "
                  f"{detail}{rec.detail}")
    for label in missed:
        print(f"  ORACLE SELF-TEST MISSED: {label}")
    for op in summary.get("trace", []):
        print(f"  traced {op['op']}: {op['wall_s']:.2f} s, handler {op['handler_s']:.2f} s, "
              f"{op['spans']} spans, {op['psi_spans']} psi^-1 spans")
    for key, val in metrics.items():
        print(f"  {workload} {key} = {val['value']:.6g} {val['unit']}")
    return {"correct": not wrong and not missed, "attempted": len(records),
            "failed": len(unexpected), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "anosovkit", "cli.py")):
        sys.stderr.write("anosovkit sources not found under ./src; run this from "
                         "the repository root\n")
        return 2
    if args.workload != "all":
        result = run_workload(root, args.workload, args.seed, args.seconds, args.trace)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in corpus.WORKLOADS:
            one = run_workload(root, workload, args.seed, args.seconds, args.trace)
            result["correct"] &= one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            result["metrics"].update({f"{workload}.{k}": v
                                      for k, v in one["metrics"].items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
