"""Command-line front door.

Commands: keygen, roundtrip, session, experiment, enumerate. All randomness
flows from --seed through named substreams, so identical invocations write
byte-identical files. Reports are one JSON object per line.

Exit codes: 0 success, 1 usage, 2 validation failure, 3 decode failure (any
errors.DecodeError) or a missed fidelity gate.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from pathlib import Path

import numpy as np

from . import asymmetric, css, files, sim, symmetric
from .errors import CssFheError, DecodeError, ParameterError, WireError

FIDELITY_GATE = 1.0 - 1e-9

# named substreams hanging off --seed
STREAM_KEYGEN = 0
STREAM_ERRORS = 1
STREAM_MEASURE = 2
STREAM_EXPERIMENT = 3
STREAM_REFRESH = 4


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _emit(obj) -> None:
    sys.stdout.write(files.dumps(obj))


# every option a subcommand may take; _COMMANDS lists the ones each reads
_OPTIONS = {
    "scheme": {"choices": ["sym", "asym"], "default": "sym"},
    "base": {"choices": list(css.BASE_PAIRS), "default": "steane"},
    "mode": {"choices": ["scrambled", "family"], "default": "scrambled"},
    "c": {"type": float, "default": 0.5},
    "seed": {"type": int, "required": True},
    "out": {"type": str, "default": None},
    "state": {"type": str, "required": True},
    "circuit": {"type": str, "required": True},
    "tbudget": {"type": int, "default": None},
    "weight": {"type": int, "default": None},
    "trials": {"type": int, "default": 1000},
    "copies": {"type": int, "default": 1},
    "candidates": {"type": int, "default": 16},
}
def _family_candidates(base: str, count: int,
                       true_key: symmetric.SymKey) -> list[symmetric.SymKey]:
    """A roster of keys with pairwise distinct encodings: the true key, its
    same-space sibling (v shifted by the coset representative, so its ancilla
    overlaps the true one partially rather than 0 or 1), then the lowest key
    of each other code-space class."""
    code = css.base_code(base)
    out = [true_key]
    if count > 1:
        out.append(symmetric.SymKey(base, code, true_key.u,
                                    true_key.v ^ code.x1))
    true_class = css.frame_class(code, true_key.frame)
    for u, v in css.family_key_classes(code):
        if len(out) >= count:
            break
        if css.frame_class(code, (v, u)) != true_class:
            out.append(symmetric.SymKey(base, code, u, v))
    if len(out) < count:
        raise ParameterError(
            f"{base} has at most {len(out)} distinct candidates, got {count}")
    return out


def cmd_keygen(args) -> int:
    rng = _rng(args.seed, STREAM_KEYGEN)
    if args.scheme == "sym":
        key = symmetric.keygen(args.base, args.mode, rng)
        rec = files.key_record(key)
        report = {"kind": args.mode, "n": key.code.n, "t": key.code.t}
    else:
        pair = asymmetric.keygen(args.base, args.c, rng)
        rec = files.key_record(pair)
        report = {"kind": "asym", "n": pair.public.code.n,
                  "t": pair.public.code.t, "ct": pair.public.ct_weight}
    if args.out:
        files.write_json(args.out, rec)
        report["out"] = args.out
    _emit(report)
    return 0


def _run_sym_roundtrip(args, plaintext, circuit):
    if circuit.num_wires > plaintext.num_qubits:
        raise WireError(f"circuit uses {circuit.num_wires} wires, plaintext "
                        f"has {plaintext.num_qubits}")
    key = symmetric.keygen(args.base, args.mode, _rng(args.seed, STREAM_KEYGEN))
    tbudget = args.tbudget
    if tbudget is None:
        tbudget = sim.count_t_gates(circuit)
    ct = symmetric.encrypt(key, plaintext, tbudget,
                           _rng(args.seed, STREAM_MEASURE))
    symmetric.evaluate(key.code.n, circuit, ct, symmetric.make_readout(key, ct))
    out = symmetric.decrypt(key, ct)
    reference = sim.run_circuit(plaintext.copy(), circuit)
    return sim.fidelity(out, reference), key.code.n


def _run_session(args, plaintext, circuit):
    """An asymmetric session: keygen, encrypt, evaluate with refreshes
    from the key holder, decrypt; returns (fidelity, n, transcript)."""
    with warnings.catch_warnings():
        if args.weight:  # keygen's zero-weight warning does not apply
            warnings.simplefilter("ignore", UserWarning)
        pair = asymmetric.keygen(args.base, args.c,
                                 _rng(args.seed, STREAM_KEYGEN))
    ct = asymmetric.encrypt(pair.public, plaintext,
                            _rng(args.seed, STREAM_ERRORS),
                            override_weight=args.weight)
    alice = asymmetric.make_refresh_authority(pair.private,
                                              _rng(args.seed, STREAM_REFRESH))
    ct, transcript = asymmetric.evaluate_session(
        pair.public, circuit, ct, alice, _rng(args.seed, STREAM_MEASURE))
    out = asymmetric.decrypt(pair.private, ct)
    reference = sim.run_circuit(plaintext.copy(), circuit)
    return sim.fidelity(out, reference), pair.public.code.n, transcript


def cmd_roundtrip(args) -> int:
    plaintext = files.parse_state(files.read_json(args.state))
    circuit = sim.parse_circuit(Path(args.circuit).read_text(encoding="utf-8"))
    if args.scheme == "sym":
        fidelity, n = _run_sym_roundtrip(args, plaintext, circuit)
    else:
        fidelity, n, _ = _run_session(args, plaintext, circuit)
    ok = fidelity >= FIDELITY_GATE
    report = {"fidelity": fidelity, "n": n, "ok": ok}
    if args.out:
        files.write_json(args.out, report)
    _emit(report)
    return 0 if ok else 3


def cmd_session(args) -> int:
    circuit = sim.parse_circuit(Path(args.circuit).read_text(encoding="utf-8"))
    m = max(circuit.num_wires, 1)
    fidelity, _, transcript = _run_session(
        args, sim.basis_state(m, "0" * m), circuit)
    if args.out:
        files.write_json(args.out, files.transcript_records(transcript))
    _emit({"refreshes": sum(kind == "RefreshRequest"
                            for kind, _ in transcript),
           "gates": len(circuit.gates),
           "final_fidelity": fidelity})
    return 0 if fidelity >= FIDELITY_GATE else 3


def cmd_experiment(args) -> int:
    symmetric.check_attack_sizes(args.candidates, args.trials, args.copies)
    key = symmetric.keygen(args.base, "family", _rng(args.seed, STREAM_KEYGEN))
    rng = _rng(args.seed, STREAM_EXPERIMENT)
    candidates = _family_candidates(args.base, args.candidates, key)
    if args.kind == "key-guess":
        plain = sim.StateVector(1, np.array([0.6, 0.8]), check=False)
        ct = symmetric.encrypt(key, plain, 0, rng)
        stats = symmetric.attack_key_guess(ct, candidates)
        _emit({"kind": "key-guess", "candidates": stats["candidates"],
               "clean": stats["clean"], "identified": stats["identified"]})
    else:
        stats = symmetric.attack_ancilla_leak(
            args.copies, candidates, key, rng, trials=args.trials)
        _emit({"kind": "ancilla-leak", "copies": stats["copies"],
               "trials": stats["trials"], "success": stats["success"],
               "exact": stats["exact"]})
    return 0


def cmd_enumerate(args) -> int:
    _emit({"base": args.base,
           "count": css.count_distinct_family_codes(
               css.base_code(args.base))})
    return 0


# each subcommand: its handler and the options it reads
_COMMANDS = {
    "keygen": (cmd_keygen, ("scheme", "base", "mode", "c", "seed", "out")),
    "roundtrip": (cmd_roundtrip, ("scheme", "base", "mode", "c", "seed", "out",
                                  "state", "circuit", "tbudget", "weight")),
    "session": (cmd_session, ("base", "c", "seed", "out", "circuit", "weight")),
    "experiment": (cmd_experiment, ("base", "seed", "trials", "copies",
                                    "candidates")),
    "enumerate": (cmd_enumerate, ("base",)),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it as it is."""
    parser = argparse.ArgumentParser(prog="cssfhe")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, names) in _COMMANDS.items():
        p = sub.add_parser(command)
        p.set_defaults(handler=handler)
        if command == "experiment":
            p.add_argument("kind", choices=("key-guess", "ancilla-leak"))
        for name in names:
            p.add_argument(f"--{name}", **_OPTIONS[name])
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.handler(args)
    except DecodeError as exc:
        sys.stderr.write(f"decode failure: {exc}\n")
        return 3
    except CssFheError as exc:
        sys.stderr.write(f"invalid request: {exc}\n")
        return 2
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
