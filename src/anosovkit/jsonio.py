"""Deterministic JSON emission and report envelopes for the CLI."""

from __future__ import annotations

import json
from fractions import Fraction

# CPython's built-in SHA-256, which hashlib itself falls back to: importing
# hashlib loads OpenSSL's libcrypto (about 3.7 MB of resident memory) for
# this one digest.  The digests are the same.
try:
    from _sha2 import sha256 as _sha256          # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256    # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

SCHEMA_VERSION = "1"


def jsonable(obj):
    """Recursively convert report values to JSON-stable primitives.

    Fractions render as "p/q" strings (exact); floats pass through (repr
    round-trip is deterministic); tuples become lists.
    """
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}" if obj.denominator != 1 \
            else str(obj.numerator)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return str(obj)
        return obj
    if hasattr(obj, "to_json"):
        return jsonable(obj.to_json())
    try:
        import numpy as np

        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.ndarray):
            return [jsonable(v) for v in obj.tolist()]
    except ImportError:
        pass
    return str(obj)


def stable_dumps(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def sha256_hex(data: bytes) -> str:
    return _sha256(data).hexdigest()


def envelope(command: str, input_hash: str, result, verdict: str,
             seed=None, config=None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input_sha256": input_hash,
        "seed": seed,
        "config": config or {},
        "verdict": verdict,
        "result": result,
    }
