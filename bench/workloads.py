"""The benchmark workloads.

Each workload builds its inputs from the workload seed in `setup`, runs a
warm-up op on fixed inputs in `warm_up`, and performs one verified op per
`op(i)` call. An op's inputs and randomness depend only on the seed and
`i`, so the traced run can replay the ops of the untraced run exactly.

`op` returns an OpRecord; a check that fails sets `ok` to False and an
exception escaping `op` is counted as a failed op by the caller.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WARM_SEED = 0        # warm-up inputs do not depend on the workload seed
POOL = 16            # distinct generated inputs per workload, reused cyclically
SYM_GATE = 1e-9      # largest infidelity accepted per workload
GOLAY_GATE = 1e-10
CLI_GATE = 1e-9


@dataclass
class OpRecord:
    ok: bool
    infidelity: float
    keyholder_calls: int
    fingerprint: tuple   # compared exactly between untraced and traced runs
    stratum: int = 0     # key into the workload's STRATA


class Workload:
    name = ""
    why = ""
    STRATA = {0: 1.0}   # op stratum -> its probability, for timing statistics

    def __init__(self, lib: dict, seed: int, workdir: Path):
        self.lib = lib
        self.seed = seed
        self.workdir = workdir
        self.tracer = None   # set for the traced phase

    def rng(self, *stream) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> OpRecord:
        raise NotImplementedError


def _random_state(rng: np.random.Generator, qubits: int) -> np.ndarray:
    amps = rng.normal(size=1 << qubits) + 1j * rng.normal(size=1 << qubits)
    return amps / np.linalg.norm(amps)


class SymSteaneT(Workload):
    """One op is a symmetric Steane round trip on a 2-wire circuit H, CNOT,
    T, H, CNOT with seeded wires; keys alternate between family and
    scrambled. One magic ancilla makes the register 21 qubits until the T
    gadget retires the measured block.

    The gadget's readout bit is 0 or 1 with probability 1/2 for any input,
    and bit 1 adds a transversal X.Sdg correction at 21 qubits that nearly
    doubles the op. The bit is the op's stratum, so the timing statistics
    weight both branches by 1/2 instead of by how often a run's seed hit
    each."""

    name = "sym-steane-t"
    why = ("21-qubit Steane round trips with one T gadget each: transversal "
           "gates and block measurement dominate")
    MODES = ("family", "scrambled")
    STRATA = {0: 0.5, 1: 0.5}

    def _inputs(self, rng):
        sim = self.lib["sim"]
        gates = []
        for kind in ("H", "CNOT", "T", "H", "CNOT"):
            c = int(rng.integers(2))
            gates.append(sim.GateOp(kind, (c, 1 - c) if kind == "CNOT" else (c,)))
        plain = sim.StateVector(2, _random_state(rng, 2))
        return plain, sim.LogicalCircuit(2, tuple(gates))

    def setup(self) -> None:
        self.pool = [self._inputs(self.rng(0, k)) for k in range(POOL)]
        self.warm = self._inputs(np.random.default_rng([WARM_SEED, 0]))

    def _round_trip(self, mode, inputs, key_rng, meas_rng) -> OpRecord:
        sim, symmetric = self.lib["sim"], self.lib["symmetric"]
        plain, circuit = inputs
        key = symmetric.keygen("steane", mode, key_rng)
        ct = symmetric.encrypt(key, plain, sim.count_t_gates(circuit), meas_rng)
        oracle = symmetric.make_readout(key, ct)
        if self.tracer:
            oracle = self.tracer.wrap(oracle, "symmetric.readout")
        calls = []

        def readout(bits):
            calls.append(bits)
            return oracle(bits)

        symmetric.evaluate(key.code.n, circuit, ct, readout)
        out = symmetric.decrypt(key, ct)
        fid = sim.fidelity(out, sim.run_circuit(plain.copy(), circuit))
        outcomes = tuple(ct.gadget_outcomes)
        return OpRecord(1.0 - fid <= SYM_GATE, 1.0 - fid, len(calls),
                        (fid, outcomes, len(calls)), stratum=outcomes[0])

    def warm_up(self) -> None:
        for j, mode in enumerate(self.MODES):
            self._round_trip(mode, self.warm,
                             np.random.default_rng([WARM_SEED, 1, j]),
                             np.random.default_rng([WARM_SEED, 2, j]))

    def op(self, i: int) -> OpRecord:
        return self._round_trip(self.MODES[i % len(self.MODES)],
                                self.pool[i % POOL], self.rng(1, i),
                                self.rng(2, i))


class AsymGolaySweep(Workload):
    """Setup encrypts one random qubit under an asymmetric Golay(23) key
    without errors. Each op restores that ciphertext, injects a seeded
    Pauli error of weight 1..3 with both an X and a Z part, decrypts, and
    checks the plaintext comes back."""

    name = "asym-golay-sweep"
    why = ("23-qubit Golay decrypt after a weight 1..3 Pauli error: block "
           "Pauli and syndrome correction, no gates and no oracle")

    def _errors(self, rng, n: int, t: int):
        sim = self.lib["sim"]
        out = []
        for k in range(POOL):
            weight = 1 + k % t
            while True:
                pos = rng.choice(n, size=weight, replace=False)
                kinds = rng.integers(0, 3, size=weight)  # 0 X, 1 Y, 2 Z
                if (kinds != 2).any() and (kinds != 0).any():
                    break
            x = np.zeros(n, dtype=np.uint8)
            z = np.zeros(n, dtype=np.uint8)
            x[pos[kinds != 2]] = 1
            z[pos[kinds != 0]] = 1
            out.append((sim.mask_of_bits(x), sim.mask_of_bits(z)))
        return out

    def setup(self) -> None:
        sim, asymmetric = self.lib["sim"], self.lib["asymmetric"]
        self.ct = self.clean = None  # release the previous set-up first
        self.pair = asymmetric.keygen("golay", 0.5, self.rng(1))
        self.plain = sim.StateVector(1, _random_state(self.rng(0), 1))
        self.ct = asymmetric.encrypt(self.pair.public, self.plain, self.rng(2),
                                     override_weight=0)
        self.clean = self.ct.state.amps.copy()
        code = self.pair.public.code
        self.errors = self._errors(self.rng(3), code.n, code.t)
        self.warm_error = self._errors(np.random.default_rng([WARM_SEED, 3]),
                                       code.n, code.t)[-1]

    def _decrypt_with(self, x_mask: int, z_mask: int) -> OpRecord:
        sim, asymmetric = self.lib["sim"], self.lib["asymmetric"]
        np.copyto(self.ct.state.amps, self.clean)
        sim.apply_block_pauli(self.ct.state, 0, self.ct.n, x_mask, z_mask)
        out = asymmetric.decrypt(self.pair.private, self.ct)
        fid = sim.fidelity(out, self.plain)
        return OpRecord(1.0 - fid <= GOLAY_GATE, 1.0 - fid, 0, (fid,))

    def warm_up(self) -> None:
        self._decrypt_with(*self.warm_error)

    def op(self, i: int) -> OpRecord:
        return self._decrypt_with(*self.errors[i % POOL])


def expected_refreshes(circuit, weight: int, t: int) -> int:
    """Refresh count the asymmetric bound rule predicts for a 2-wire
    session: a CNOT whose summed bounds exceed t forces a refresh, after
    which the session weight sits on one block only."""
    bounds = [weight, weight]
    count = 0
    for g in circuit.gates:
        if g.kind != "CNOT":
            continue
        if sum(bounds) > t:
            count += 1
            bounds = [weight, 0]
        bounds = [sum(bounds)] * 2
    return count


class AsymSession(Workload):
    """Each op is one in-process `cssfhe session` command: a fresh Steane
    key, weight-1 errors, a 20-gate 2-wire circuit (7 H, 7 CNOT, 6 T in
    seeded order and wires) read from a file, and the transcript written
    with --out. Every CNOT forces a refresh round trip."""

    name = "asym-session"
    why = ("14-qubit CLI sessions with a refresh per CNOT: per-call overhead, "
           "refresh protocol, keygen and file output dominate")
    GATES = ("H",) * 7 + ("CNOT",) * 7 + ("T",) * 6
    WEIGHT = 1
    STEANE_T = 1

    def _circuit_file(self, rng, path: Path):
        sim = self.lib["sim"]
        lines = []
        for kind in rng.permutation(self.GATES):
            c = int(rng.integers(2))
            lines.append(f"CNOT {c} {1 - c}" if kind == "CNOT" else f"{kind} {c}")
        text = "\n".join(lines) + "\n"
        path.write_text(text, encoding="utf-8")
        circuit = sim.parse_circuit(text)
        return path, expected_refreshes(circuit, self.WEIGHT, self.STEANE_T)

    def setup(self) -> None:
        # Steane has t = 1, so keygen's default c puts no errors in a
        # ciphertext and warns; every session overrides the weight to 1.
        warnings.filterwarnings("ignore", message=r"floor\(.*inject no errors")
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.pool = [self._circuit_file(self.rng(0, k),
                                        self.workdir / f"circuit{k}.txt")
                     for k in range(POOL)]
        self.warm = self._circuit_file(np.random.default_rng([WARM_SEED, 0]),
                                       self.workdir / "warm.txt")
        self.transcript = self.workdir / "transcript.json"

    def _session(self, circuit: Path, refreshes: int, seed: int) -> OpRecord:
        cli = self.lib["cli"]
        argv = ["session", "--base", "steane", "--weight", str(self.WEIGHT),
                "--circuit", str(circuit), "--seed", str(seed),
                "--out", str(self.transcript)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        report = json.loads(buf.getvalue().splitlines()[-1])
        records = json.loads(self.transcript.read_text(encoding="utf-8"))
        fid = report["final_fidelity"]
        ok = (code == 0 and 1.0 - fid <= CLI_GATE
              and report["refreshes"] == refreshes
              and report["gates"] == len(self.GATES)
              and sum(r["kind"] == "RefreshRequest" for r in records) == refreshes)
        return OpRecord(ok, 1.0 - fid, report["refreshes"],
                        (code, fid, report["refreshes"]))

    def warm_up(self) -> None:
        self._session(*self.warm, seed=WARM_SEED)

    def op(self, i: int) -> OpRecord:
        return self._session(*self.pool[i % POOL],
                             seed=int(self.rng(4, i).integers(1 << 31)))


WORKLOADS = {w.name: w for w in (SymSteaneT, AsymGolaySweep, AsymSession)}
