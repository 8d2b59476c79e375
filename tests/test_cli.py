"""Command-line interface: reports, files, determinism, and the exit-code
contract (0 success, 1 usage, 2 validation, 3 decode failure)."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cssfhe import cli, css, errors, files, gf2, sim, symmetric
from cssfhe.errors import CircuitParseError, DecodeFailureError

from helpers import count_calls, state_record


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    lines = [json.loads(line) for line in out.splitlines() if line]
    return code, lines, out


@pytest.fixture()
def zero_state(tmp_path):
    path = tmp_path / "zero.json"
    files.write_json(path, state_record(sim.basis_state(1, "0")))
    return str(path)


def circuit_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_keygen_sym_report_and_file(tmp_path, capsys):
    out_path = tmp_path / "key.json"
    code, lines, _ = run_cli(["keygen", "--mode", "family", "--seed", "7",
                              "--out", str(out_path)], capsys)
    assert code == 0
    assert lines[0]["kind"] == "family"
    assert lines[0]["n"] == 7 and lines[0]["t"] == 1
    rec = files.read_json(out_path)
    assert set(rec) == {"kind", "base", "S", "P", "u", "v", "n", "t"}
    assert rec["kind"] == "family" and rec["S"] is rec["P"] is None
    assert (rec["base"]["name"], rec["n"], rec["t"]) == ("steane", 7, 1)
    for word in (rec["u"], rec["v"]):
        gf2.parse_word(word, 7)  # a 7-bit word, else ShapeError


def test_keygen_asym_golay_report(capsys):
    code, lines, _ = run_cli(["keygen", "--scheme", "asym", "--base", "golay",
                              "--c", "0.5", "--seed", "3"], capsys)
    assert code == 0
    assert lines[0] == {"ct": 1, "kind": "asym", "n": 23, "t": 3}


def test_keygen_deterministic_bytes(tmp_path, capsys):
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    _, _, out_a = run_cli(["keygen", "--mode", "scrambled", "--seed", "11",
                           "--out", str(a_path)], capsys)
    _, _, out_b = run_cli(["keygen", "--mode", "scrambled", "--seed", "11",
                           "--out", str(b_path)], capsys)
    assert a_path.read_bytes() == b_path.read_bytes()
    assert out_a.replace(str(a_path), "") == out_b.replace(str(b_path), "")
    _, _, out_c = run_cli(["keygen", "--mode", "scrambled", "--seed", "12"],
                          capsys)
    assert json.loads(out_c) == json.loads(out_a.replace(f',"out":"{a_path}"', ""))


def test_keygen_different_seeds_differ(tmp_path, capsys):
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["keygen", "--mode", "family", "--seed", "1", "--out", str(a_path)],
            capsys)
    run_cli(["keygen", "--mode", "family", "--seed", "2", "--out", str(b_path)],
            capsys)
    a, b = files.read_json(a_path), files.read_json(b_path)
    assert (a["u"], a["v"]) != (b["u"], b["v"])


def test_usage_error_missing_seed(capsys):
    assert cli.main(["keygen"]) == 1
    capsys.readouterr()


def test_usage_error_no_command(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()


def test_keygen_invalid_c_is_validation_error(capsys):
    code, _, _ = run_cli(["keygen", "--scheme", "asym", "--base", "golay",
                          "--c", "1.5", "--seed", "0"], capsys)
    assert code == 2


def test_roundtrip_empty_circuit(tmp_path, zero_state, capsys):
    circ = circuit_file(tmp_path, "empty.circ", "# nothing\n")
    code, lines, _ = run_cli(["roundtrip", "--state", zero_state,
                              "--circuit", circ, "--seed", "4"], capsys)
    assert code == 0
    assert lines[0]["fidelity"] == 1.0 and lines[0]["ok"] is True


def test_roundtrip_sym_gadget_circuit(tmp_path, zero_state, capsys):
    circ = circuit_file(tmp_path, "ht.circ", "H 0\nT 0\n")
    code, lines, _ = run_cli(["roundtrip", "--mode", "family",
                              "--state", zero_state, "--circuit", circ,
                              "--seed", "5"], capsys)
    assert code == 0
    assert lines[0]["fidelity"] >= 1 - 1e-9
    assert lines[0]["n"] == 7


def test_roundtrip_overdrawn_budget_is_validation_error(tmp_path, zero_state,
                                                        capsys):
    circ = circuit_file(tmp_path, "t3.circ", "T 0\nT 0\nT 0\n")
    code, _, _ = run_cli(["roundtrip", "--state", zero_state,
                          "--circuit", circ, "--tbudget", "2", "--seed", "6"],
                         capsys)
    assert code == 2


def test_roundtrip_missing_state_file(tmp_path, capsys):
    circ = circuit_file(tmp_path, "h.circ", "H 0\n")
    code, _, _ = run_cli(["roundtrip", "--state", str(tmp_path / "nope.json"),
                          "--circuit", circ, "--seed", "7"], capsys)
    assert code == 2


@pytest.mark.parametrize("record", [
    {"qubits": "a", "amps": []},
    {"qubits": 1, "amps": [[1, 0], "x"]},
])
def test_roundtrip_malformed_state_is_validation_error(tmp_path, record):
    state = tmp_path / "bad.json"
    state.write_text(json.dumps(record), encoding="utf-8")
    circ = circuit_file(tmp_path, "h.circ", "H 0\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "cssfhe.cli", "roundtrip", "--state", str(state),
         "--circuit", circ, "--seed", "0"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity",
                                     "9" * 400],
                         ids=["NaN", "Infinity", "-Infinity", "huge-int"])
def test_roundtrip_non_finite_state_is_validation_error(tmp_path, literal):
    # json reads these literals, and integers beyond the float range; such
    # a state must not reach the scheme
    state = tmp_path / "bad.json"
    state.write_text(f'{{"qubits": 1, "amps": [[{literal}, 0], [0, 0]]}}',
                     encoding="utf-8")
    circ = circuit_file(tmp_path, "h.circ", "H 0\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "cssfhe.cli", "roundtrip", "--scheme", "sym",
         "--state", str(state), "--circuit", circ, "--seed", "0"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "NaN" not in proc.stdout


@pytest.mark.parametrize("argv, circuit", [
    (["experiment", "ancilla-leak", "--trials", "0"], None),
    (["experiment", "ancilla-leak", "--trials", "10", "--copies", "-1"], None),
    (["experiment", "ancilla-leak", "--trials", "10", "--candidates", "0"],
     None),
    (["experiment", "key-guess", "--candidates", "-3"], None),
    # Steane has 64 code-space classes: the roster holds at most 65 keys
    (["experiment", "ancilla-leak", "--trials", "10", "--candidates", "66"],
     None),
    (["experiment", "key-guess", "--candidates", "66"], None),
    (["roundtrip", "--tbudget", "-2"], "H 0\n"),
    (["roundtrip", "--scheme", "asym", "--weight", "-1"], "H 0\n"),
    (["session", "--weight", "-1"], "H 0\n"),
    # a wire past the register limit, rejected before any state is built
    (["session"], "H 40\n"),
], ids=["trials-0", "copies-neg", "leak-candidates-0", "guess-candidates-neg",
        "leak-candidates-66", "guess-candidates-66", "tbudget-neg",
        "roundtrip-weight-neg", "session-weight-neg", "session-wire-40"])
def test_out_of_range_counts_are_validation_errors(tmp_path, zero_state, argv,
                                                   circuit):
    if argv[0] == "roundtrip":
        argv = argv + ["--state", zero_state]
    if circuit is not None:
        argv = argv + ["--circuit", circuit_file(tmp_path, "c.circ", circuit)]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "cssfhe.cli", *argv, "--seed", "0"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "invalid request:" in proc.stderr


def test_roundtrip_refuses_a_huge_t_budget_at_once(tmp_path, zero_state):
    """A T budget above symmetric.MAX_T_BUDGET is refused before any
    ancilla is built (a budget of 10^6 once ran for 34 s and exited 0)."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cssfhe.cli", "roundtrip", "--state",
         zero_state, "--circuit", circuit_file(tmp_path, "t.circ", "T 0\n"),
         "--tbudget", "1000000", "--seed", "0"],
        capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - t0 < 10.0
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "T budget" in proc.stderr


@pytest.mark.parametrize("kind, option, value", [
    ("ancilla-leak", "--candidates", symmetric.MAX_CANDIDATES + 1),
    ("ancilla-leak", "--trials", symmetric.MAX_TRIALS + 1),
    ("ancilla-leak", "--copies", symmetric.MAX_COPIES + 1),
    ("key-guess", "--candidates", 10**6),
    ("ancilla-leak", "--trials", 10**6),
    ("ancilla-leak", "--copies", 10**6),
])
def test_experiment_refuses_sizes_over_their_bounds_at_once(kind, option,
                                                            value):
    """An experiment larger than symmetric's bounds is refused before
    keygen (copies 10^4 x trials 10^3 once ran for 10 s and exited 0; a
    Golay roster could hold 2^22 keys)."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cssfhe.cli", "experiment", kind, "--base",
         "golay", option, str(value), "--seed", "0"],
        capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - t0 < 2.0
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{option[2:]} must be in" in proc.stderr


def test_roundtrip_checks_wires_before_encrypting(tmp_path, zero_state,
                                                  monkeypatch, capsys):
    encrypts = count_calls(monkeypatch, symmetric, "encrypt")
    circ = circuit_file(tmp_path, "cnot.circ", "CNOT 0 1\n")
    assert cli.main(["roundtrip", "--state", zero_state, "--circuit", circ,
                     "--tbudget", "1000", "--seed", "0"]) == 2
    assert "plaintext has 1" in capsys.readouterr().err
    assert encrypts == []


# runs each argv through cli.main in one process; an exception that
# escapes main ends the runner with a traceback on stderr
_CLI_RUNNER = """
import json, sys
from cssfhe import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps(codes))
"""


def test_weight_override_silences_the_zero_weight_warning(tmp_path,
                                                         zero_state):
    """Steane keygen at c = 0.5 warns that encryption injects no errors;
    with a non-zero --weight it does inject them, so nothing is printed.
    Without --weight the warning stays."""
    circ = circuit_file(tmp_path, "c.circ", "CNOT 0 1\n")
    one_wire = circuit_file(tmp_path, "h.circ", "H 0\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))

    def run(*argvs):
        return subprocess.run(
            [sys.executable, "-c", _CLI_RUNNER, json.dumps(argvs)],
            capture_output=True, text=True, env=env)

    proc = run(["session", "--circuit", circ, "--weight", "1", "--seed", "3"],
               ["roundtrip", "--scheme", "asym", "--weight", "1", "--state",
                zero_state, "--circuit", one_wire, "--seed", "3"])
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0]
    assert proc.stderr == ""
    proc = run(["session", "--circuit", circ, "--seed", "3"])
    assert json.loads(proc.stdout.splitlines()[-1]) == [0]
    assert "encryption will inject no errors" in proc.stderr


def test_unreadable_paths_exit_without_traceback(tmp_path, zero_state):
    def bad_paths(where):
        where.mkdir()
        (where / "dir").mkdir()
        (where / "empty").write_bytes(b"")
        (where / "binary").write_bytes(b"\xff\xfe\x00\x80 H 0\n")
        (where / "invalid").write_text("{not json", encoding="utf-8")
        return {k: str(where / k) for k in ("dir", "empty", "binary",
                                            "invalid")}

    circ = circuit_file(tmp_path, "h.circ", "H 0\n")
    inputs, outputs = bad_paths(tmp_path / "in"), bad_paths(tmp_path / "out")
    cases = []  # (argv, allowed exit codes)
    for kind, path in inputs.items():
        cases.append((["roundtrip", "--state", path, "--circuit", circ,
                       "--seed", "0"], {2, 3}))
        # an empty circuit is a valid circuit with no gates
        cases.append((["session", "--circuit", path, "--seed", "0"],
                       {0} if kind == "empty" else {2, 3}))
    for kind, path in outputs.items():
        # --out is only written: an existing file of any content is
        # replaced by the report, a directory cannot be
        cases.append((["roundtrip", "--state", zero_state, "--circuit", circ,
                       "--seed", "0", "--out", path],
                      {2, 3} if kind == "dir" else {0}))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_RUNNER,
         json.dumps([argv for argv, _ in cases])],
        capture_output=True, text=True, env=env)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0
    got = json.loads(proc.stdout.splitlines()[-1])
    assert len(got) == len(cases)
    for (argv, allowed), code in zip(cases, got):
        assert code in allowed, argv
    for kind in ("empty", "binary", "invalid"):
        assert files.read_json(outputs[kind])["ok"] is True


def test_roundtrip_bad_gate_is_validation_error(tmp_path, zero_state, capsys):
    circ = circuit_file(tmp_path, "bad.circ", "S 0\n")
    code, _, _ = run_cli(["roundtrip", "--state", zero_state,
                          "--circuit", circ, "--seed", "8"], capsys)
    assert code == 2


def test_roundtrip_asym_steane(tmp_path, zero_state, capsys):
    circ = circuit_file(tmp_path, "h.circ", "H 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # steane keygen: floor(c * 1) = 0
        code, lines, _ = run_cli(["roundtrip", "--scheme", "asym",
                                  "--state", zero_state, "--circuit", circ,
                                  "--weight", "1", "--seed", "9"], capsys)
    assert code == 0
    assert lines[0]["ok"] is True


def test_roundtrip_deterministic_stdout(tmp_path, zero_state, capsys):
    circ = circuit_file(tmp_path, "ht.circ", "H 0\nT 0\n")
    argv = ["roundtrip", "--mode", "family", "--state", zero_state,
            "--circuit", circ, "--seed", "10"]
    _, _, out_a = run_cli(argv, capsys)
    _, _, out_b = run_cli(argv, capsys)
    assert out_a == out_b


def test_roundtrip_fault_injection_exit_3(tmp_path, zero_state, capsys,
                                          monkeypatch):
    # a decrypt that falls below the fidelity gate must exit 3, and a
    # decode error raised anywhere inside must map to the same code
    circ = circuit_file(tmp_path, "h.circ", "H 0\n")

    monkeypatch.setattr(symmetric, "decrypt",
                        lambda key, ct: sim.basis_state(1, "1"))
    code, lines, _ = run_cli(["roundtrip", "--state", zero_state,
                              "--circuit", circ, "--seed", "11"], capsys)
    assert code == 3
    assert lines[0]["ok"] is False

    def broken(key, ct):
        raise DecodeFailureError("syndrome outside radius")

    monkeypatch.setattr(symmetric, "decrypt", broken)
    code, _, _ = run_cli(["roundtrip", "--state", zero_state,
                          "--circuit", circ, "--seed", "11"], capsys)
    assert code == 3


def test_session_refreshes_track_cnots(tmp_path, capsys):
    circ = circuit_file(tmp_path, "cnots.circ", "CNOT 0 1\nCNOT 0 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, lines, _ = run_cli(["session", "--circuit", circ, "--weight", "1",
                                  "--seed", "12"], capsys)
    assert code == 0
    report = lines[0]
    assert report["refreshes"] == 2 and report["gates"] == 2
    assert report["final_fidelity"] >= 1 - 1e-9


def test_session_without_cnots_never_refreshes(tmp_path, capsys):
    circ = circuit_file(tmp_path, "hh.circ", "H 0\nH 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, lines, _ = run_cli(["session", "--circuit", circ, "--weight", "1",
                                  "--seed", "13"], capsys)
    assert code == 0
    assert lines[0]["refreshes"] == 0


def test_session_transcript_file(tmp_path, capsys):
    circ = circuit_file(tmp_path, "one.circ", "CNOT 0 1\n")
    out = tmp_path / "tr.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, _, _ = run_cli(["session", "--circuit", circ, "--weight", "1",
                              "--seed", "14", "--out", str(out)], capsys)
    assert code == 0
    records = files.read_json(out)
    assert [r["kind"] for r in records] == [
        "Cipher", "RefreshRequest", "RefreshResponse", "Result"]


def test_session_golay_h_then_t(tmp_path, capsys):
    circ = circuit_file(tmp_path, "ht.circ", "H 0\nT 0\n")
    code, lines, _ = run_cli(["session", "--base", "golay", "--circuit", circ,
                              "--seed", "15"], capsys)
    assert code == 0
    assert lines[0]["refreshes"] == 0
    assert lines[0]["final_fidelity"] >= 1 - 1e-9


def test_session_deterministic_files(tmp_path, capsys):
    circ = circuit_file(tmp_path, "one.circ", "CNOT 0 1\n")
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, _, out_a = run_cli(["session", "--circuit", circ, "--weight", "1",
                               "--seed", "16", "--out", str(a_path)], capsys)
        _, _, out_b = run_cli(["session", "--circuit", circ, "--weight", "1",
                               "--seed", "16", "--out", str(b_path)], capsys)
    assert out_a == out_b
    assert a_path.read_bytes() == b_path.read_bytes()


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    circ = circuit_file(tmp_path, "mix.circ", "H 0\nCNOT 0 1\nT 1\nCNOT 1 0\n")
    out_path = tmp_path / "tr.json"
    argv = ["session", "--circuit", circ, "--weight", "1", "--seed", "77",
            "--out", str(out_path)]
    assert cli._build_parser() is cli._build_parser()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code_a, _, out_a = run_cli(argv, capsys)
        bytes_a = out_path.read_bytes()
        out_path.unlink()
        usage, _, _ = run_cli(["session", "--circuit", circ], capsys)
        code_b, _, out_b = run_cli(argv, capsys)
    assert usage == 1
    assert code_a == code_b == 0
    assert out_a == out_b
    assert out_path.read_bytes() == bytes_a


def test_enumerate_counts_family_classes(capsys):
    code, lines, _ = run_cli(["enumerate", "--seed", "0"], capsys)
    assert code == 0 and lines[0] == {"base": "steane", "count": 64}


def test_enumerate_counts_golay_in_closed_form(capsys):
    code, lines, _ = run_cli(["enumerate", "--base", "golay", "--seed", "0"],
                             capsys)
    assert code == 0 and lines[0] == {"base": "golay", "count": 4194304}


@pytest.mark.parametrize("base, seed, count", [
    ("steane", 21, 16), ("steane", 3, 65), ("golay", 3, 16),
    ("golay", 4, 40)])
def test_key_guess_clean_count_is_the_true_class(base, seed, count, capsys):
    """key-guess reports as clean exactly the roster keys that share the
    true key's frame_class: a key decodes the block cleanly iff its frame
    moves the code onto the code space the block lies in."""
    code, lines, _ = run_cli(["experiment", "key-guess", "--base", base,
                              "--seed", str(seed), "--candidates",
                              str(count)], capsys)
    assert code == 0
    key = symmetric.keygen(base, "family", cli._rng(seed, cli.STREAM_KEYGEN))
    roster = cli._family_candidates(base, count, key)
    same = sum(css.frame_class(c.code, c.frame)
               == css.frame_class(key.code, key.frame) for c in roster)
    assert lines[0]["candidates"] == count
    assert lines[0]["clean"] == same == 2


def test_experiment_key_guess(capsys):
    code, lines, _ = run_cli(["experiment", "key-guess", "--seed", "21"],
                             capsys)
    assert code == 0
    report = lines[0]
    # the true key and its same-space sibling both decode cleanly, so the
    # attacker cannot pin down which one encrypted the block
    assert report["candidates"] == 16
    assert report["clean"] == 2
    assert report["identified"] is False
    code, lines, _ = run_cli(["experiment", "key-guess", "--seed", "21",
                              "--candidates", "65"], capsys)
    assert code == 0 and lines[0]["candidates"] == 65


def test_experiment_ancilla_leak_copies_profile(capsys):
    results = {}
    for copies in (0, 1, 4):
        code, lines, _ = run_cli(["experiment", "ancilla-leak",
                                  "--copies", str(copies),
                                  "--trials", "600", "--seed", "22"], capsys)
        assert code == 0
        results[copies] = lines[0]["success"]
    assert abs(results[0] - 1 / 16) < 0.04
    assert 1 / 16 < results[1] < 1.0  # strictly between chance and certainty
    assert results[0] < results[1] < results[4] < 1.0


def test_experiment_unknown_kind_is_usage_error(capsys):
    for kind in ("warp-drive", "family-count"):  # enumerate replaced the latter
        code, _, _ = run_cli(["experiment", kind, "--seed", "0"], capsys)
        assert code == 1


def test_session_rejects_mode_option(tmp_path, capsys):
    circ = circuit_file(tmp_path, "h.circ", "H 0\n")
    code, _, _ = run_cli(["session", "--mode", "family", "--circuit", circ,
                          "--seed", "0"], capsys)
    assert code == 1


def test_installed_entry_point():
    proc = subprocess.run(["cssfhe", "enumerate", "--seed", "0"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"base": "steane", "count": 64}


def test_experiment_ancilla_leak_reports_exact_rate(capsys):
    code, lines, _ = run_cli(["experiment", "ancilla-leak", "--copies", "1",
                              "--trials", "50", "--seed", "23"], capsys)
    assert code == 0
    assert set(lines[0]) == {"kind", "copies", "trials", "success", "exact"}
    assert lines[0]["exact"] == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("base", ["steane", "golay"])
def test_experiment_ancilla_leak_exact_rate_is_exact(base, capsys):
    """A family roster's overlaps are 0, 1/2 and 1 exactly, so one copy
    against the true key, its half-overlap sibling and 14 orthogonal keys
    gives 3/4 to the last bit."""
    code, lines, _ = run_cli(["experiment", "ancilla-leak", "--base", base,
                              "--copies", "1", "--trials", "10",
                              "--seed", "0"], capsys)
    assert code == 0
    assert lines[0]["exact"] == 0.75


_ERROR_CLASSES = [c for c in vars(errors).values()
                  if isinstance(c, type) and issubclass(c, errors.CssFheError)]


def test_decode_errors_are_the_protocol_failures():
    assert {c.__name__ for c in _ERROR_CLASSES
            if issubclass(c, errors.DecodeError)} == {
        "DecodeError", "DecodeFailureError", "LeakageError",
        "RefreshAuthorityError"}


@pytest.mark.parametrize("error", _ERROR_CLASSES,
                         ids=[c.__name__ for c in _ERROR_CLASSES])
def test_every_error_class_exits_with_its_code(error, monkeypatch, capsys):
    """Each package error, raised from inside a command, exits 3 with
    "decode failure:" if it is a DecodeError and 2 with "invalid request:"
    otherwise, with no traceback."""
    def broken(c1, c2):
        if issubclass(error, CircuitParseError):
            raise error("boom", 1)
        raise error("boom")

    monkeypatch.setattr(css, "count_distinct_family_codes", broken)
    code = cli.main(["enumerate", "--seed", "0"])
    captured = capsys.readouterr()
    if issubclass(error, errors.DecodeError):
        assert code == 3 and captured.err.startswith("decode failure: ")
    else:
        assert code == 2 and captured.err.startswith("invalid request: ")
    assert captured.out == "" and "Traceback" not in captured.err


# sha256 of stdout and of the --out file for seeded commands, recorded
# before keys, frames and coset leaders became int masks: a change to how
# key material is held must leave every byte the CLI writes as it is
PINNED_CIRCUIT = "H 0\nCNOT 0 1\nT 1\nH 1\nCNOT 1 0\nT 0\n"
PINNED_OUTPUTS = [
    ("keygen --scheme sym --base steane --mode family --seed 7",
     "47a2aa9fb344f63856e2b69b24d70d6dda742fc097a2577efed740c155a2c0aa",
     "368daa86a43fa6920ec2435fc11a58aed765522d73ef4482c2861fb001f81540"),
    ("keygen --scheme sym --base golay --mode family --seed 7",
     "a7954bebf4736274aa80a81c606710ac48019d7d22df76c6c875f9ccd60b9fd9",
     "baf0a8bdbaae3526e5f56efa194111ce65b27a50beb302afb46450e4112ad789"),
    ("keygen --scheme sym --base steane --mode scrambled --seed 7",
     "2bdb58942df1ed076fce06dd325bb224583e6d0f050a6dc9d7bfb49bbfc4e8f9",
     "c9ba79fb3f0d40600cab6208c5ff00547fa7242f45da7092ff2a8f84a2647a25"),
    ("keygen --scheme sym --base golay --mode scrambled --seed 7",
     "e618091905c18ad6e52f00d3049869fc7d2d7df46efca8fdf7b059f6f9a76866",
     "bbd2ac73a5fea33f55d14d917e0427ced98f5e0ae24a0e4f3794182d9b3d7e41"),
    ("keygen --scheme asym --base steane --seed 7",
     "70d6cc3917bad98dba8514d1e8c560a7fc237bb33a963348827407a086500e8d",
     "6b45eb41feb8799820863475a1864b4e6e80b11d2f4ee14e6aeb902d6327568d"),
    ("keygen --scheme asym --base golay --seed 7",
     "11759615f7fb1fb09980acf34b53d6025f214ebd654bd22aa5a91c85cf3e2741",
     "21aa512b389aebd2cb5b7e8692b67c9c324899e28c7bc15836c70d206983da53"),
    ("session --seed 77 --weight 1 --circuit circuit.txt",
     "fcf76ce68dc20e43ff1f70a80574d28483f1585cdaa1ff16b8adff4ec7cf2d0e",
     "2d32de5e5f4ae25c92448abe7fd2433ad7ece744aa2df1665fee61bba25e49de"),
    ("roundtrip --scheme sym --mode family --state state.json "
     "--circuit circuit.txt --seed 7",
     "973b45773be9fb60c57899a77919b6dc3baedf19bb43891dffba33fc6fc94082",
     "973b45773be9fb60c57899a77919b6dc3baedf19bb43891dffba33fc6fc94082"),
    ("roundtrip --scheme sym --mode scrambled --state state.json "
     "--circuit circuit.txt --seed 7",
     "973b45773be9fb60c57899a77919b6dc3baedf19bb43891dffba33fc6fc94082",
     "973b45773be9fb60c57899a77919b6dc3baedf19bb43891dffba33fc6fc94082"),
]


@pytest.mark.parametrize("command, stdout_sha, out_sha", PINNED_OUTPUTS,
                         ids=[c for c, _, _ in PINNED_OUTPUTS])
def test_seeded_outputs_match_pinned_digests(tmp_path, monkeypatch, capsys,
                                             command, stdout_sha, out_sha):
    monkeypatch.chdir(tmp_path)
    Path("circuit.txt").write_text(PINNED_CIRCUIT, encoding="utf-8")
    files.write_json("state.json", state_record(
        sim.StateVector(2, np.array([0.6, 0.0, 0.0, 0.8]))))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        code, _, out = run_cli(command.split() + ["--out", "out.json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(Path("out.json").read_bytes()).hexdigest() == out_sha


# the size options whose bounds the argv property probes beyond
_SIZES = ("tbudget", "trials", "copies", "candidates")


@pytest.fixture(scope="module")
def argv_paths(tmp_path_factory):
    """Files the argv property may name, valid ones first and most often:
    states, circuits (one of each kind of fault among them), and --out
    targets that can and cannot be written."""
    root = tmp_path_factory.mktemp("argv")
    files.write_json(root / "zero.json",
                     state_record(sim.basis_state(1, "0")))
    (root / "bad.json").write_text("{not json", encoding="utf-8")
    (root / "dir").mkdir()
    for name, text in (("h.circ", "H 0\n"), ("t.circ", "T 0\nH 0\n"),
                       ("cnot.circ", "CNOT 0 1\nT 1\n"),
                       ("far.circ", "H 40\n"), ("bad.circ", "X 0\n")):
        (root / name).write_text(text, encoding="utf-8")
    return {name: [str(root / f) for f in names] for name, names in (
        ("state", ["zero.json"] * 4 + ["bad.json", "dir", "missing",
                                       "h.circ"]),
        ("circuit", ["h.circ", "t.circ", "cnot.circ"] * 2
         + ["far.circ", "bad.circ", "dir", "missing", "zero.json"]),
        ("out", ["out.json", "dir"]))}


def _option_values(name: str, paths: dict):
    """Values for one option, valid ones most often: choices (Steane only,
    and one that argparse refuses), paths, and numbers that reach past
    every bound."""
    spec = cli._OPTIONS[name]
    if "choices" in spec:
        valid = [c for c in spec["choices"] if c != "golay"]
        return st.sampled_from(valid * 4 + ["bogus"])
    if name in paths:
        return st.sampled_from(paths[name])
    if spec["type"] is float:
        return st.one_of(st.floats(-1.0, 2.0),
                         st.sampled_from([math.nan, math.inf])).map(repr)
    if name in _SIZES:
        return st.one_of(st.integers(-2, 70),
                         st.integers(71, 10**6)).map(str)
    return st.integers(-2, 100).map(str)  # seed, weight


@st.composite
def cli_argvs(draw, paths: dict) -> list[str]:
    """An argv for one subcommand: each of its options given or not (the
    required ones nearly always), sometimes an option it does not take,
    with values drawn from cli._OPTIONS."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = [command]
    if command == "experiment":
        argv.append(draw(st.sampled_from(["key-guess", "ancilla-leak"] * 4
                                         + ["bogus"])))
    names = [n for n in cli._COMMANDS[command][1]
             if draw(st.booleans()) or (cli._OPTIONS[n].get("required")
                                        and draw(st.integers(0, 9)))]
    if draw(st.integers(0, 9)) == 0:
        names.append(draw(st.sampled_from(sorted(cli._OPTIONS))))
    for name in names:
        argv += [f"--{name}", draw(_option_values(name, paths))]
    return argv


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_every_argv_exits_with_a_documented_code(argv_paths, data):
    """Any argv built from cli._OPTIONS, sizes far beyond their bounds
    among them, exits 0, 1, 2 or 3 without a traceback."""
    argv = data.draw(cli_argvs(argv_paths), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
