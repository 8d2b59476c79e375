"""File formats: canonical JSON, fragments, key records, states and
transcripts."""

import numpy as np
import pytest

from cssfhe import asymmetric, codes, css, files, gf2, sim, symmetric
from cssfhe.errors import ShapeError

from helpers import random_state, rng, span_brute, state_record


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


def parse_rows(frag: dict, rows: int, cols: int) -> tuple[int, ...]:
    """A matrix fragment's int rows, after checking that it holds exactly
    `rows` rows of `cols` bits."""
    assert set(frag) == {"rows", "cols", "data"}
    assert (frag["rows"], frag["cols"], len(frag["data"])) == (rows, cols,
                                                              rows)
    return tuple(gf2.parse_word(r, cols) for r in frag["data"])


def test_matrix_fragment_roundtrip():
    b = codes.builtin_codes()
    for c in b.values():
        frag = files.matrix_fragment(c.gen, c.n)
        assert parse_rows(frag, c.k, c.n) == c.gen


def test_matrix_fragment_empty_rows():
    frag = files.matrix_fragment((), 5)
    assert parse_rows(frag, 0, 5) == ()


def test_code_fragment_roundtrip():
    b = codes.builtin_codes()
    for name, c in b.items():
        frag = files.code_fragment(c)
        assert set(frag) == {"n", "k", "gen"}
        back = codes.from_generator(parse_rows(frag["gen"], c.k, c.n),
                                    frag["n"])
        assert (back.n, back.k) == (c.n, c.k)
        assert np.array_equal(back.gen, c.gen)
        assert span_brute(back.gen) == span_brute(c.gen)


@pytest.mark.filterwarnings("ignore:floor:UserWarning")  # Steane's ct is 0
@pytest.mark.parametrize("kind", ["family", "scrambled", "asym"])
@pytest.mark.parametrize("name", ["steane", "golay"])
def test_key_record_schema(name, kind):
    """The record `keygen --out` writes holds exactly the fields of the key
    it was written from: the named base pair, u and v as n-bit words, and
    for a scrambled key (the asymmetric private key among them) u = v = 0,
    an n x n permutation P and a nonsingular k x k mixer S with S C1 P
    the key's published generator. No command reads a key file back, so
    the rows are decoded here."""
    if kind == "asym":
        written = asymmetric.keygen(name, 0.5, rng(50))
        key = written.private
    else:
        written = key = symmetric.keygen(name, kind, rng(51))
    rec = files.key_record(written)
    base = css.base_code(name)
    c1, c2 = base.c1, base.c2
    n, k = c1.n, c1.k
    fields = {"kind", "base", "S", "P", "u", "v", "n", "t"}
    assert set(rec) == fields | ({"ct"} if kind == "asym" else set())
    assert rec["kind"] == ("family" if kind == "family" else "scrambled")
    assert set(rec["base"]) == {"name", "c1", "c2"}
    assert rec["base"]["name"] == name
    for part, c in (("c1", c1), ("c2", c2)):
        frag = rec["base"][part]
        assert (set(frag), frag["n"], frag["k"]) == ({"n", "k", "gen"}, n,
                                                     c.k)
        assert parse_rows(frag["gen"], c.k, n) == c.gen
    assert (rec["n"], rec["t"]) == (n, {"steane": 1, "golay": 3}[name])
    assert (gf2.parse_word(rec["u"], n), gf2.parse_word(rec["v"], n)) == (
        key.u, key.v)
    if kind == "family":
        assert rec["S"] is None and rec["P"] is None
        return
    assert key.u == key.v == 0
    p = parse_rows(rec["P"], n, n)
    assert p == key.p
    assert sorted(p) == [1 << j for j in range(n)]
    s = parse_rows(rec["S"], k, k)
    assert s == key.s
    assert gf2.rank(s) == k
    assert gf2.mat_mul(gf2.mat_mul(s, c1.gen), p) == key.code.c1.gen
    if kind == "asym":
        assert rec["ct"] == written.public.ct_weight


def parse_key_record(rec: dict):
    """The key a record holds, rebuilt from its words alone: u and v, and
    a scrambled key's S and P, decoded with gf2.parse_word, so a word of
    another width or alphabet raises ShapeError (naming S or P). No
    command reads a key file back; the tests read one to show that the
    record is complete and its words strict."""
    name = rec["base"]["name"]
    base = css.base_code(name)
    u, v = (gf2.parse_word(rec[part], base.n) for part in ("u", "v"))
    if rec["kind"] == "family":
        return symmetric.SymKey(name, base, u, v)

    def rows(part: str, size: int) -> tuple[int, ...]:
        try:
            return parse_rows(rec[part], size, size)
        except ShapeError as e:
            raise ShapeError(f"{part}: {e}") from e

    s, p = rows("S", base.c1.k), rows("P", base.n)
    key = symmetric.SymKey(name, css.scrambled(base, s, p), u, v, s, p)
    if "ct" not in rec:
        return key
    return asymmetric.AsymKeyPair(
        private=key,
        public=asymmetric.PublicKey(code=key.code, ct_weight=rec["ct"]))


def test_family_key_record_roundtrip(tmp_path):
    key = symmetric.keygen("steane", "family", rng(50))
    rec = files.key_record(key)
    assert rec["kind"] == "family" and rec["S"] is None and rec["P"] is None
    files.write_json(tmp_path / "key.json", rec)
    back = parse_key_record(files.read_json(tmp_path / "key.json"))
    assert back.variant == "family"
    assert back.u == key.u
    assert back.v == key.v
    assert files.dumps(files.key_record(back)) == files.dumps(rec)


def test_scrambled_key_record_roundtrip(tmp_path):
    key = symmetric.keygen("steane", "scrambled", rng(51))
    files.write_json(tmp_path / "key.json", files.key_record(key))
    back = parse_key_record(files.read_json(tmp_path / "key.json"))
    assert back.variant == "scrambled"
    assert np.array_equal(back.s, key.s)
    assert np.array_equal(back.p, key.p)
    assert np.array_equal(back.code.c1.gen, key.code.c1.gen)
    assert np.array_equal(back.code.c2.gen, key.code.c2.gen)


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
        parse_key_record(rec)


@pytest.mark.parametrize("part", ["S", "P"])
@pytest.mark.parametrize("bad", ["2", "9", "a", " "])
def test_parse_key_record_rejects_a_non_bit_s_or_p(part, bad):
    rec = files.key_record(symmetric.keygen("steane", "scrambled", rng(61)))
    row = rec[part]["data"][0]
    rec[part]["data"][0] = bad + row[1:]
    with pytest.raises(ShapeError, match=part):
        parse_key_record(rec)


def test_sym_key_record_interoperates():
    g = rng(52)
    key = symmetric.keygen("steane", "family", g)
    psi = random_state(g, 1)
    ct = symmetric.encrypt(key, psi, 0, g)
    back = parse_key_record(files.key_record(key))
    out = symmetric.decrypt(back, ct)
    assert sim.fidelity(out, psi) >= 1 - 1e-10


def test_asym_key_record_roundtrip_and_interop():
    g = rng(53)
    kp = asymmetric.keygen("golay", 0.5, g)
    rec = files.key_record(kp)
    assert rec["ct"] == 1 and rec["t"] == 3 and rec["n"] == 23
    back = parse_key_record(rec)
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
    back = files.parse_state(state_record(psi))
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
    tr = [("Cipher", (1,)), ("RefreshRequest", (1,)),
          ("RefreshResponse", (0,)), ("Result", (1,))]
    recs = files.transcript_records(tr)
    assert [r["kind"] for r in recs] == [
        "Cipher", "RefreshRequest", "RefreshResponse", "Result"]
    assert [r["seq"] for r in recs] == [0, 1, 2, 3]
    assert recs[2]["bounds"] == [0]
    assert all(set(r) == {"seq", "kind", "bounds"} for r in recs)
    assert files.dumps(recs) == files.dumps(files.transcript_records(tr))
