"""On-disk formats: key records, states and transcripts.

Everything is JSON with sorted keys and no whitespace so identical inputs
produce byte-identical files. Matrices are lists of '0'/'1' strings, one
per row, which keeps key files human-diffable. A key file is written for
inspection: the key stays with its holder, and no command reads one back.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from . import asymmetric, codes as codes_mod, css, sim, symmetric
from .errors import ShapeError


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def matrix_fragment(rows, cols: int) -> dict:
    """A matrix of int rows (gf2) as its row count, width and rows."""
    return {"rows": len(rows), "cols": cols,
            "data": [format(r, f"0{cols}b") for r in rows]}


def code_fragment(c: codes_mod.LinearCode) -> dict:
    return {"n": c.n, "k": c.k, "gen": matrix_fragment(c.gen, c.n)}


def key_record(key) -> dict:
    """Serialize a symmetric key (either variant) or an asymmetric pair:
    its scrambled private key plus the public error count."""
    ct_weight = None
    if isinstance(key, asymmetric.AsymKeyPair):
        key, ct_weight = key.private, key.public.ct_weight
    elif not isinstance(key, symmetric.SymKey):
        raise ShapeError(f"cannot serialize {type(key).__name__}")
    base = css.base_code(key.base_name)
    c1, c2 = base.c1, base.c2
    scrambled = key.variant == "scrambled"
    rec = {
        "kind": key.variant,
        "base": {"name": key.base_name,
                 "c1": code_fragment(c1), "c2": code_fragment(c2)},
        "S": matrix_fragment(key.s, c1.k) if scrambled else None,
        "P": matrix_fragment(key.p, c1.n) if scrambled else None,
        "u": format(key.u, f"0{key.code.n}b"),
        "v": format(key.v, f"0{key.code.n}b"),
        "n": key.code.n,
        "t": key.code.t,
    }
    if ct_weight is not None:
        rec["ct"] = ct_weight
    return rec


def _is_finite_number(x) -> bool:
    """A finite JSON number; json reads NaN, Infinity and -Infinity too."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def parse_state(rec: dict) -> sim.StateVector:
    """Rebuild a state from its record; a malformed record raises
    ShapeError before any of it is used."""
    if not isinstance(rec, dict):
        raise ShapeError("state record must be a JSON object")
    qubits, amps = rec.get("qubits"), rec.get("amps")
    if type(qubits) is not int or not 0 <= qubits <= sim.MAX_QUBITS:
        raise ShapeError(
            f"state record qubits must be an integer in [0, {sim.MAX_QUBITS}]")
    if not isinstance(amps, list) or not all(
            isinstance(a, list) and len(a) == 2
            and all(map(_is_finite_number, a)) for a in amps):
        raise ShapeError(
            "state record amps must be a list of finite [re, im] pairs")
    if len(amps) != 1 << qubits:
        raise ShapeError("state record has the wrong number of amplitudes")
    return sim.StateVector(
        qubits, np.array([complex(re, im) for re, im in amps],
                         dtype=np.complex128))


def transcript_records(transcript: list) -> list[dict]:
    """A session transcript's (kind, bounds) messages, numbered in order."""
    return [{"seq": seq, "kind": kind, "bounds": list(bounds)}
            for seq, (kind, bounds) in enumerate(transcript)]
