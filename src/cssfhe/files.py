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


def matrix_fragment(rows, cols: int) -> dict:
    """A matrix of int rows (gf2) as its row count, width and rows."""
    return {"rows": len(rows), "cols": cols,
            "data": [format(r, f"0{cols}b") for r in rows]}


def parse_matrix(frag: dict) -> tuple[int, ...]:
    """The int rows of a matrix fragment; a fragment that is not an object
    with int `rows` and `cols` and a list of `rows` rows, or a row other
    than `cols` characters 0/1, raises ShapeError."""
    if not (isinstance(frag, dict) and isinstance(frag.get("data"), list)
            and type(frag.get("rows")) is type(frag.get("cols")) is int
            and len(frag["data"]) == frag["rows"]):
        raise ShapeError("matrix fragment shape mismatch")
    return tuple(gf2.parse_word(r, frag["cols"]) for r in frag["data"])


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
    c1, c2 = symmetric.base_pair(key.base_name)
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


def parse_key_record(rec: dict):
    """Rebuild a SymKey (or an AsymKeyPair when the record carries a public
    error count) from its file form. The record holds every field
    key_record writes; its kind is "family" or "scrambled", its base the
    named pair as key_record writes it, n and t those of its code, and u
    and v n-bit words. A family record has S = P = null. A scrambled
    record has u = v = 0, P an n x n permutation and S a nonsingular
    k x k mixer, and only it may carry the public error count ct, an int
    in [0, t]. Anything else raises ShapeError."""
    if not isinstance(rec, dict):
        raise ShapeError("key record must be a JSON object")
    missing = [k for k in ("kind", "base", "S", "P", "u", "v", "n", "t")
               if k not in rec]
    if missing:
        raise ShapeError(f"key record lacks {', '.join(missing)}")
    if rec["kind"] not in ("family", "scrambled"):
        raise ShapeError(
            f"key record kind must be family or scrambled, got {rec['kind']!r}")
    base = rec["base"]
    if not isinstance(base, dict) or type(base.get("name")) is not str:
        raise ShapeError("key record base must be an object with a name")
    base_name = base["name"]
    c1, c2 = symmetric.base_pair(base_name)
    if (base.get("c1"), base.get("c2")) != (code_fragment(c1),
                                            code_fragment(c2)):
        raise ShapeError(f"key record base is not the {base_name} pair")
    code = css.base_code(c1, c2)
    if any(type(rec[k]) is not int or rec[k] != want
           for k, want in (("n", code.n), ("t", code.t))):
        raise ShapeError(
            f"key record n and t must be {code.n} and {code.t}")
    u, v = (gf2.parse_word(rec[k], code.n) for k in ("u", "v"))
    if rec["kind"] == "family":
        if rec["S"] is not None or rec["P"] is not None:
            raise ShapeError("a family key record has S = P = null")
        if "ct" in rec:
            raise ShapeError("a family key record carries no ct")
        return symmetric.SymKey(base_name, code, u, v)
    if u or v:
        raise ShapeError("a scrambled key record has u = v = 0")

    def matrix(name, size, valid, what) -> tuple[int, ...]:
        """The record's S or P: a size x size matrix that is `what`."""
        try:
            m = parse_matrix(rec[name])
            if rec[name]["cols"] == size and len(m) == size and valid(m):
                return m
        except ShapeError:
            pass
        raise ShapeError(f"{name} must be a {size}x{size} {what} matrix")

    p = matrix("P", c1.n, lambda m: len(set(m)) == c1.n
               and all(r.bit_count() == 1 for r in m), "permutation")
    s = matrix("S", c1.k, lambda m: gf2.rank(m) == c1.k, "nonsingular")
    key = symmetric.SymKey(base_name, css.scrambled(c1, c2, s, p), 0, 0, s, p)
    if "ct" not in rec:
        return key
    ct = rec["ct"]
    if type(ct) is not int or not 0 <= ct <= code.t:
        raise ShapeError(f"ct must be an int in [0, {code.t}], got {ct!r}")
    return asymmetric.AsymKeyPair(
        private=key, public=asymmetric.PublicKey(code=key.code, ct_weight=ct))


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
