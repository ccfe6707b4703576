"""The benchmark harness's own imports and checks, run as the harness runs
them, so that a change which breaks them fails here and not in a benchmark
run (where an exception out of the harness exits 1).

The script runs in a fresh interpreter from the repository root, because
``bench/`` has modules whose names clash with the tests' own (``oracles``).
It only reads ``bench/``; inputs and reports go to a temporary directory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import importlib, json, sys, tempfile
sys.path.insert(0, "bench")
import run
from run import corpus, oracles
from anosovkit.cli import main

for names in run.SETUP_IMPORTS.values():
    for name in names.split(","):
        importlib.import_module(name.strip())
expected = json.load(open("bench/expected.json"))["spectral"]
for seed in map(int, sys.argv[1:]):
    with tempfile.TemporaryDirectory() as d:
        runner = run.Runner(".", d, seed)
        for op in corpus.build("spectral", seed):
            runner.write_inputs([op])
            out = f"{d}/{op.id}.out.json"
            code = main([op.command] + [a.replace("{dir}", d) for a in op.args]
                        + ["--seed", str(seed), "--output", out])
            with open(out) as fh:
                report = json.load(fh)
            verdict = expected[op.id]["verdict"]
            oracles.check_verdict(report, verdict, code)
            oracles.CHECKS[op.command](report, op.data, None)
            missed = oracles.self_test(op.command, op, report, None, code, verdict)
            print(json.dumps({"seed": seed, "op": op.id, "exit": code, "missed": missed}))
"""


def test_setup_imports_and_analyze_checks_run_clean():
    # every spectral op at three seeds: an exception that escapes the
    # harness's checks on any of them would end a benchmark run with exit 1
    seeds = ["1", "2", "3"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT] + seeds, cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert sorted({str(line["seed"]) for line in lines}) == seeds
    ops = json.loads((ROOT / "bench" / "expected.json").read_text())["spectral"]
    assert len(lines) == len(seeds) * len(ops)
    assert [line for line in lines if line["missed"]] == []
