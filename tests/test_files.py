"""File formats: canonical JSON, fragments, key records, states and
transcripts."""

import numpy as np
import pytest

from cssfhe import asymmetric, codes, files, gf2, sim, symmetric
from cssfhe.errors import ShapeError

from helpers import bits_to_index, random_state, rng, span_brute


def rows_of(m: np.ndarray) -> list[int]:
    """A 0/1 array's rows as int masks."""
    return [bits_to_index(r) for r in m]


def test_dumps_is_canonical():
    a = files.dumps({"b": 1, "a": [1, 2]})
    b = files.dumps({"a": [1, 2], "b": 1})
    assert a == b
    assert a == '{"a":[1,2],"b":1}\n'
    assert a.endswith("\n") and " " not in a


def test_write_read_roundtrip(tmp_path):
    path = tmp_path / "obj.json"
    files.write_json(path, {"x": [0, 1], "y": "01"})
    assert files.read_json(path) == {"x": [0, 1], "y": "01"}
    assert path.read_text().endswith("\n")


def test_matrix_fragment_roundtrip():
    b = codes.builtin_codes()
    for c in b.values():
        frag = files.matrix_fragment(c.gen, c.n)
        assert frag["rows"] == c.k and frag["cols"] == c.n
        assert files.parse_matrix(frag) == c.gen


def test_matrix_fragment_empty_rows():
    frag = files.matrix_fragment((), 5)
    back = files.parse_matrix(frag)
    assert back == () and (frag["rows"], frag["cols"]) == (0, 5)


def test_parse_matrix_rejects_bad_shape():
    with pytest.raises(ShapeError):
        files.parse_matrix({"rows": 2, "cols": 3, "data": ["010"]})
    with pytest.raises(ShapeError):
        files.parse_matrix({"rows": 1, "cols": 3, "data": ["0101"]})


def test_code_fragment_roundtrip():
    b = codes.builtin_codes()
    for name, c in b.items():
        frag = files.code_fragment(c)
        back = codes.from_generator(files.parse_matrix(frag["gen"]), frag["n"])
        assert (back.n, back.k) == (c.n, c.k)
        assert np.array_equal(back.gen, c.gen)
        assert span_brute(back.gen) == span_brute(c.gen)


def test_family_key_record_roundtrip():
    key = symmetric.keygen("steane", "family", rng(50))
    rec = files.key_record(key)
    assert rec["kind"] == "family" and rec["S"] is None and rec["P"] is None
    back = files.parse_key_record(rec)
    assert back.variant == "family"
    assert back.u == key.u
    assert back.v == key.v
    assert files.dumps(files.key_record(back)) == files.dumps(rec)


def test_scrambled_key_record_roundtrip():
    key = symmetric.keygen("steane", "scrambled", rng(51))
    rec = files.key_record(key)
    back = files.parse_key_record(rec)
    assert back.variant == "scrambled"
    assert np.array_equal(back.s, key.s)
    assert np.array_equal(back.p, key.p)
    assert np.array_equal(back.code.c1.gen, key.code.c1.gen)
    assert np.array_equal(back.code.c2.gen, key.code.c2.gen)


def _scrambled_record(name: str, seed: int, s=None, p=None) -> dict:
    """A scrambled key's record, with S or P replaced when given."""
    rec = files.key_record(symmetric.keygen(name, "scrambled", rng(seed)))
    if s is not None:
        rec["S"] = files.matrix_fragment(rows_of(s), s.shape[1])
    if p is not None:
        rec["P"] = files.matrix_fragment(rows_of(p), p.shape[1])
    return rec


@pytest.mark.parametrize("name", ["steane", "golay"])
def test_parse_key_record_rejects_a_p_that_is_not_a_permutation(name):
    n = symmetric.base_pair(name)[0].n
    sheared = np.eye(n, dtype=np.uint8)
    sheared[0, 1] = 1  # invertible, but it mixes two qubits
    assert gf2.rank(rows_of(sheared)) == n
    for p in (sheared, np.eye(n - 1, dtype=np.uint8),
              np.zeros((n, n), dtype=np.uint8)):
        with pytest.raises(ShapeError, match="permutation"):
            files.parse_key_record(_scrambled_record(name, 57, p=p))


@pytest.mark.parametrize("name", ["steane", "golay"])
def test_parse_key_record_rejects_a_singular_s(name):
    k = symmetric.base_pair(name)[0].k
    singular = np.eye(k, dtype=np.uint8)
    singular[1] = singular[0]
    for s in (singular, np.eye(k + 1, dtype=np.uint8)):
        with pytest.raises(ShapeError, match="nonsingular"):
            files.parse_key_record(_scrambled_record(name, 58, s=s))


def test_parse_key_record_rejects_a_non_bit_p_and_a_foreign_base():
    rec = _scrambled_record("steane", 59)
    rec["P"]["data"][0] = rec["P"]["data"][0].replace("1", "2")
    with pytest.raises(ShapeError, match="permutation"):
        files.parse_key_record(rec)
    rec = _scrambled_record("steane", 59)
    rec["base"]["c1"] = files.code_fragment(codes.builtin_codes()["simplex73"])
    with pytest.raises(ShapeError, match="steane pair"):
        files.parse_key_record(rec)


# records that int("...", 2) alone would take, or that a digit-by-digit
# read would reduce mod 2
NON_BIT_WORDS = ["0000002", "2222222", "0000009", "000000a", "0b10101",
                 "1_00000", " 000000", "000000 ", "000000", "00000000", ""]


@pytest.mark.parametrize("part", ["u", "v"])
@pytest.mark.parametrize("word", NON_BIT_WORDS)
def test_parse_key_record_rejects_a_non_bit_u_or_v(part, word):
    rec = files.key_record(symmetric.keygen("steane", "family", rng(60)))
    rec[part] = word
    with pytest.raises(ShapeError):
        files.parse_key_record(rec)


@pytest.mark.parametrize("part", ["S", "P"])
@pytest.mark.parametrize("bad", ["2", "9", "a", " "])
def test_parse_key_record_rejects_a_non_bit_s_or_p(part, bad):
    rec = _scrambled_record("steane", 61)
    row = rec[part]["data"][0]
    rec[part]["data"][0] = bad + row[1:]
    with pytest.raises(ShapeError, match=part):
        files.parse_key_record(rec)


@pytest.mark.parametrize("part, word", [("u", "1111111"), ("v", "xyz")])
def test_parse_key_record_rejects_a_scrambled_u_or_v(part, word):
    """A scrambled key is its pair's code under u = v = 0."""
    rec = _scrambled_record("steane", 62)
    rec[part] = word
    with pytest.raises(ShapeError):
        files.parse_key_record(rec)


@pytest.mark.parametrize("kind", ["family", "scrambled"])
@pytest.mark.parametrize("field, value", [("n", 99), ("t", 5), ("n", "7"),
                                          ("t", True)])
def test_parse_key_record_rejects_a_foreign_n_or_t(kind, field, value):
    rec = files.key_record(symmetric.keygen("steane", kind, rng(63)))
    assert (rec["n"], rec["t"]) == (7, 1)
    rec[field] = value
    with pytest.raises(ShapeError, match="n and t"):
        files.parse_key_record(rec)


@pytest.mark.parametrize("ct", ["x", -4, 9, 1.0, None])
def test_parse_key_record_rejects_a_ct_outside_the_radius(ct):
    rec = files.key_record(asymmetric.keygen("golay", 0.5, rng(64)))
    rec["ct"] = ct
    with pytest.raises(ShapeError, match="ct"):
        files.parse_key_record(rec)
    for ok in (0, 3):
        rec["ct"] = ok
        assert files.parse_key_record(rec).public.ct_weight == ok


def test_parse_key_record_rejects_a_family_record_with_ct():
    rec = files.key_record(symmetric.keygen("steane", "family", rng(65)))
    rec["ct"] = 0
    with pytest.raises(ShapeError, match="ct"):
        files.parse_key_record(rec)


def _without(rec: dict, field: str) -> dict:
    return {k: v for k, v in rec.items() if k != field}


@pytest.mark.parametrize("make", [
    lambda fam, scr: dict(fam, kind="bogus"),
    lambda fam, scr: dict(scr, kind="bogus"),
    lambda fam, scr: dict(fam, kind=["family"]),
    lambda fam, scr: _without(fam, "u"),
    lambda fam, scr: _without(scr, "v"),
    lambda fam, scr: dict(scr, S=None),
    lambda fam, scr: dict(scr, P=None),
    lambda fam, scr: dict(scr, P=[]),
    lambda fam, scr: dict(scr, P={"rows": 1, "cols": 0, "data": [""]}),
    lambda fam, scr: dict(fam, S=scr["S"]),
    lambda fam, scr: _without(fam, "P"),
    lambda fam, scr: _without(fam, "base"),
    lambda fam, scr: _without(scr, "t"),
    lambda fam, scr: dict(fam, base=None),
    lambda fam, scr: dict(fam, base=dict(fam["base"], name=["steane"])),
    lambda fam, scr: dict(fam, u=None),
    lambda fam, scr: dict(scr, v=7),
    lambda fam, scr: [fam],
], ids=["family-kind-bogus", "scrambled-kind-bogus", "kind-list",
        "family-no-u", "scrambled-no-v", "scrambled-S-null",
        "scrambled-P-null", "scrambled-P-list", "scrambled-P-no-columns",
        "family-with-S",
        "family-no-P", "no-base", "no-t", "base-null", "base-name-list",
        "u-null", "v-int", "not-an-object"])
def test_parse_key_record_rejects_a_malformed_record(make):
    """A kind other than family or scrambled, and a missing or ill-typed
    base, u, v, n, t, S or P, raise ShapeError: a record of kind "bogus"
    once loaded as a scrambled key, one without u raised KeyError and one
    with S null TypeError."""
    fam = files.key_record(symmetric.keygen("steane", "family", rng(66)))
    scr = files.key_record(symmetric.keygen("steane", "scrambled", rng(67)))
    with pytest.raises(ShapeError):
        files.parse_key_record(make(fam, scr))


def test_sym_key_record_interoperates():
    g = rng(52)
    key = symmetric.keygen("steane", "family", g)
    psi = random_state(g, 1)
    ct = symmetric.encrypt(key, psi, 0, g)
    back = files.parse_key_record(files.key_record(key))
    out = symmetric.decrypt(back, ct)
    assert sim.fidelity(out, psi) >= 1 - 1e-10


def test_asym_key_record_roundtrip_and_interop():
    g = rng(53)
    kp = asymmetric.keygen("golay", 0.5, g)
    rec = files.key_record(kp)
    assert rec["ct"] == 1 and rec["t"] == 3 and rec["n"] == 23
    back = files.parse_key_record(rec)
    assert isinstance(back, asymmetric.AsymKeyPair)
    assert back.public.ct_weight == 1
    psi = random_state(g, 1)
    ct = asymmetric.encrypt(kp.public, psi, g)
    out = asymmetric.decrypt(back.private, ct)
    assert sim.fidelity(out, psi) >= 1 - 1e-10


def test_key_record_rejects_unknown_types():
    with pytest.raises(ShapeError):
        files.key_record(42)


def test_state_record_roundtrip():
    g = rng(54)
    psi = random_state(g, 3)
    back = files.parse_state(files.state_record(psi))
    assert back.num_qubits == 3
    assert np.array_equal(back.amps, psi.amps)


def test_parse_state_rejects_wrong_length():
    with pytest.raises(ShapeError):
        files.parse_state({"qubits": 2, "amps": [[1.0, 0.0]] * 3})


@pytest.mark.parametrize("record", [
    [1, 0],
    {"amps": [[1, 0]]},
    {"qubits": "a", "amps": []},
    {"qubits": True, "amps": [[1, 0], [0, 0]]},
    {"qubits": -1, "amps": []},
    {"qubits": 1 << 40, "amps": []},
    {"qubits": 1, "amps": "ab"},
    {"qubits": 1, "amps": [[1, 0], "x"]},
    {"qubits": 1, "amps": [[1, 0], [0, 0, 0]]},
    {"qubits": 1, "amps": [[1, 0], [0, None]]},
    {"qubits": 1, "amps": [[1, 0], [False, 0]]},
])
def test_parse_state_rejects_malformed_records(record):
    with pytest.raises(ShapeError):
        files.parse_state(record)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"),
                                 1 << 1100],
                         ids=["nan", "inf", "-inf", "int-beyond-float"])
def test_parse_state_rejects_non_finite_numbers(bad):
    for amps in ([[bad, 0], [0, 0]], [[1, 0], [0, bad]]):
        with pytest.raises(ShapeError, match="finite"):
            files.parse_state({"qubits": 1, "amps": amps})


def test_transcript_records():
    g = rng(56)
    kp = asymmetric.keygen("golay", 0.5, g)
    tr = asymmetric.Transcript()
    tr.append("Cipher", [1])
    tr.append("RefreshRequest", [1])
    tr.append("RefreshResponse", [0])
    tr.append("Result", [1])
    recs = files.transcript_records(tr)
    assert [r["kind"] for r in recs] == [
        "Cipher", "RefreshRequest", "RefreshResponse", "Result"]
    assert [r["seq"] for r in recs] == [0, 1, 2, 3]
    assert recs[2]["bounds"] == [0]
    assert all(set(r) == {"seq", "kind", "bounds"} for r in recs)
    assert files.dumps(recs) == files.dumps(files.transcript_records(tr))
