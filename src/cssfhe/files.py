"""On-disk formats: keys, states, circuits, transcripts.

Everything is JSON with sorted keys and no whitespace so identical inputs
produce byte-identical files. Matrices are lists of '0'/'1' strings, one
per row, which keeps key files human-diffable.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from . import asymmetric, codes as codes_mod, css, gf2, sim, symmetric
from .errors import ShapeError


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _bits_str(v: np.ndarray) -> str:
    return "".join(str(int(b)) for b in v)


def matrix_fragment(m: np.ndarray) -> dict:
    m = gf2.as_bits(m)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "data": [_bits_str(r) for r in m]}


def parse_matrix(frag: dict) -> np.ndarray:
    rows, cols = frag["rows"], frag["cols"]
    if len(frag["data"]) != rows or any(len(r) != cols for r in frag["data"]):
        raise ShapeError("matrix fragment shape mismatch")
    if rows == 0:
        return np.zeros((0, cols), dtype=np.uint8)
    return gf2.as_bits(frag["data"])


def code_fragment(c: codes_mod.LinearCode) -> dict:
    return {"n": c.n, "k": c.k, "gen": matrix_fragment(c.gen)}


def key_record(key) -> dict:
    """Serialize a symmetric key (either variant) or an asymmetric pair:
    its scrambled private key plus the public error count."""
    ct_weight = None
    if isinstance(key, asymmetric.AsymKeyPair):
        key, ct_weight = key.private, key.public.ct_weight
    elif not isinstance(key, symmetric.SymKey):
        raise ShapeError(f"cannot serialize {type(key).__name__}")
    c1, c2 = symmetric.base_pair(key.base_name)
    scrambled = key.variant == "scrambled"
    rec = {
        "kind": key.variant,
        "base": {"name": key.base_name,
                 "c1": code_fragment(c1), "c2": code_fragment(c2)},
        "S": matrix_fragment(key.s) if scrambled else None,
        "P": matrix_fragment(key.p) if scrambled else None,
        "u": format(key.code.u, f"0{key.code.n}b"),
        "v": format(key.code.v, f"0{key.code.n}b"),
        "n": key.code.n,
        "t": key.code.t,
    }
    if ct_weight is not None:
        rec["ct"] = ct_weight
    return rec


def parse_key_record(rec: dict):
    """Rebuild a SymKey (or an AsymKeyPair when the record carries a public
    error count) from its file form. The record's base must be the named
    pair, P an n x n permutation and S a nonsingular k x k mixer."""
    base_name = rec["base"]["name"]
    c1, c2 = symmetric.base_pair(base_name)
    for c, frag in ((c1, rec["base"]["c1"]), (c2, rec["base"]["c2"])):
        if not np.array_equal(parse_matrix(frag["gen"]), c.gen):
            raise ShapeError(f"key record base is not the {base_name} pair")
    if rec["kind"] == "family":
        u, v = (css.parse_word(rec[k], c1.n) for k in ("u", "v"))
        code = css.base_code(c1, c2).with_key(u, v)
        return symmetric.SymKey(base_name, code)

    def matrix(name, size, valid, what) -> np.ndarray:
        """The record's S or P: a size x size bit matrix that is `what`."""
        try:
            m = parse_matrix(rec[name])
            if m.shape == (size, size) and valid(m):
                return m
        except ShapeError:
            pass
        raise ShapeError(f"{name} must be a {size}x{size} {what} matrix")

    p = matrix("P", c1.n, lambda m: (m.sum(axis=0) == 1).all()
               and (m.sum(axis=1) == 1).all(), "permutation")
    s = matrix("S", c1.k, lambda m: gf2.rank(m) == c1.k, "nonsingular")
    key = symmetric.SymKey(base_name, css.scrambled(c1, c2, s, p), s, p)
    if "ct" in rec:
        return asymmetric.AsymKeyPair(
            private=key,
            public=asymmetric.PublicKey(code=key.code, ct_weight=rec["ct"]))
    return key


def state_record(state: sim.StateVector) -> dict:
    return {"qubits": state.num_qubits,
            "amps": [[float(a.real), float(a.imag)] for a in state.amps]}


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


def transcript_records(tr: asymmetric.Transcript) -> list[dict]:
    return [{"seq": m.seq, "kind": m.kind, "bounds": list(m.bounds)}
            for m in tr.messages]
