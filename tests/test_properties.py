"""Scheme properties over random H/CNOT/T circuits on Steane blocks, one
or two wires: both schemes decrypt to the plaintext circuit's output;
the symmetric key holder's replayed keys follow the key rules gate by
gate; and the asymmetric evaluator's tracked bounds cover the actual
errors at every gate and ask for exactly the refreshes the bound rule
predicts. Runs are derandomized so that tier-1 stays deterministic."""

import warnings

from hypothesis import given, settings, strategies as st
import pytest

from cssfhe import asymmetric, sim, symmetric

from helpers import FrameOracle, random_state, refresh_count, rng

FIDELITY = 1 - 1e-9


def examples(n):
    return settings(derandomize=True, database=None, max_examples=n,
                    deadline=None)


@st.composite
def circuits(draw, max_gates: int = 6):
    """A circuit of 1-6 gates on 1 or 2 wires; CNOT only on two."""
    wires = draw(st.integers(1, 2))
    kinds = ["H", "T"] + ["CNOT"] * (wires == 2)
    gates = []
    for _ in range(draw(st.integers(1, max_gates))):
        kind = draw(st.sampled_from(kinds))
        if kind == "CNOT":
            control = draw(st.integers(0, 1))
            gates.append(sim.GateOp("CNOT", (control, 1 - control)))
        else:
            gates.append(sim.GateOp(kind, (draw(st.integers(0, wires - 1)),)))
    return sim.LogicalCircuit(num_wires=wires, gates=tuple(gates))


def replayed_keys(key, num_wires: int, executed,
                  outcomes) -> list[tuple[int, int]]:
    """Each wire's (u, v) after the executed gates, by the rules written
    out: H swaps u and v; CNOT gives the control u_c ^ u_t and the
    target v_c ^ v_t; a T gadget's ancilla, under the key itself, takes
    the wire's place as the control of a CNOT onto it, and outcome 1
    adds v to u (X then S-dagger)."""
    u0, v0 = key
    keys = [key] * num_wires
    outcome = iter(outcomes)
    for g in executed:
        w = g.wires[0]
        u, v = keys[w]
        if g.kind == "H":
            keys[w] = (v, u)
        elif g.kind == "CNOT":
            ut, vt = keys[g.wires[1]]
            keys[w], keys[g.wires[1]] = (u ^ ut, v), (ut, v ^ vt)
        else:
            u, v = u0 ^ u, v0
            keys[w] = (u ^ v, v) if next(outcome) else (u, v)
    return keys


@pytest.mark.parametrize("mode", ["family", "scrambled"])
@examples(200)
@given(circuit=circuits(), seed=st.integers(0, 2**16))
def test_symmetric_scheme_follows_the_key_rules(mode, circuit, seed):
    key = symmetric.keygen("steane", mode, rng([seed, 0]))
    psi = random_state(rng([seed, 1]), circuit.num_wires)
    ct = symmetric.encrypt(key, psi, sim.count_t_gates(circuit),
                           rng([seed, 2]))
    symmetric.evaluate(7, circuit, ct, symmetric.make_readout(key, ct))
    want = sim.run_circuit(psi.copy(), circuit)
    assert sim.fidelity(symmetric.decrypt(key, ct), want) >= FIDELITY
    replay = symmetric._KeyReplay(key, circuit.num_wires)
    got = replay.advance(ct, len(ct.executed))
    assert got == replayed_keys((key.u, key.v), circuit.num_wires,
                                ct.executed, ct.gadget_outcomes)


def predicted_refresh(bounds, gate, t: int) -> bool:
    """The bound rule: a CNOT gives both blocks the sum of their bounds,
    and a gate that would push a bound past t waits for a refresh."""
    if gate.kind != "CNOT":
        return False
    return bounds[gate.wires[0]] + bounds[gate.wires[1]] > t


@examples(200)
@given(circuit=circuits(), seed=st.integers(0, 2**16))
def test_asymmetric_bounds_cover_the_errors_at_every_gate(circuit, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # floor(c * 1) = 0 for every c
        kp = asymmetric.keygen("steane", 0.5, rng([seed, 0]))
    m = circuit.num_wires
    psi = random_state(rng([seed, 1]), m)
    ct = asymmetric.encrypt(kp.public, psi, rng([seed, 2]), override_weight=1)
    oracle = FrameOracle.read(kp.private, ct)
    authority = asymmetric.make_refresh_authority(kp.private, rng([seed, 3]))

    def alice(old):
        fresh = authority(old)
        oracle.frames = FrameOracle.read(kp.private, fresh).frames
        return fresh

    gen = rng([seed, 4])
    refreshes = predicted = 0
    for gate in circuit.gates:
        predicted += predicted_refresh(ct.bounds, gate, ct.t)
        one = sim.LogicalCircuit(num_wires=m, gates=(gate,))
        ct, transcript = asymmetric.evaluate_session(kp.public, one, ct,
                                                     alice, gen)
        refreshes += refresh_count(transcript)
        getattr(oracle, gate.kind.lower())(*gate.wires)
        assert oracle.frames == FrameOracle.read(kp.private, ct).frames
        assert all(oracle.weight(w) <= ct.bounds[w] <= ct.t
                   for w in range(m))
    assert refreshes == predicted
    want = sim.run_circuit(psi.copy(), circuit)
    assert sim.fidelity(asymmetric.decrypt(kp.private, ct), want) >= FIDELITY
