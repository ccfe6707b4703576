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
ops = {op.id: op for op in corpus.build("spectral", 1)}
with tempfile.TemporaryDirectory() as d:
    runner = run.Runner(".", d, 1)
    for op_id in sys.argv[1:]:
        op = ops[op_id]
        runner.write_inputs([op])
        out = f"{d}/{op_id}.out.json"
        code = main([op.command] + [a.replace("{dir}", d) for a in op.args]
                    + ["--seed", "1", "--output", out])
        with open(out) as fh:
            report = json.load(fh)
        verdict = expected[op_id]["verdict"]
        oracles.check_verdict(report, verdict, code)
        oracles.CHECKS[op.command](report, op.data, None)
        missed = oracles.self_test(op.command, op, report, None, code, verdict)
        print(json.dumps({"op": op_id, "exit": code, "missed": missed}))
"""


def test_setup_imports_and_analyze_checks_run_clean():
    ops = ["t3-pair", "real-d3-k3", "real-d6-k3"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT] + ops, cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [line["op"] for line in lines] == ops
    assert all(line["missed"] == [] for line in lines)
