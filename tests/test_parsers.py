"""Property tests for the two parsers that the CLI feeds with user files:
files.parse_state (a JSON state record) and sim.parse_circuit (circuit
text). Whatever the input, each either parses or raises its documented
error, which the CLI reports with exit 2; nothing else may escape. Runs
are derandomized so that tier-1 stays deterministic."""

import json
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from cssfhe import files, sim
from cssfhe.errors import CircuitParseError, ShapeError, UnknownGateError

from helpers import circuit_to_text


def fuzz(examples):
    return settings(derandomize=True, database=None, max_examples=examples,
                    deadline=None)


# every value json.loads can return, non-finite floats included (json
# reads the NaN, Infinity and -Infinity literals)
JSON_LEAVES = (st.none() | st.booleans() | st.integers()
               | st.floats(allow_nan=True, allow_infinity=True)
               | st.text(max_size=4))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=12)

# numbers as an amplitude file holds them: small, huge beyond the float
# range, non-finite, or not numbers at all
NUMBERS = (st.integers(-2, 2) | st.integers(min_value=1 << 1100)
           | st.floats(allow_nan=True, allow_infinity=True) | JSON_LEAVES)


@st.composite
def state_records(draw):
    """Records with the right keys: a unit-norm state whose entries may be
    replaced by other numbers or values, or whose shape is off by one."""
    qubits = draw(st.integers(0, 3))
    pairs = draw(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                          min_size=max(0, (1 << qubits) - 1),
                          max_size=(1 << qubits) + 1))
    norm = math.sqrt(sum(a * a + b * b for a, b in pairs))
    amps = [[a / norm, b / norm] if norm > 1e-3 else [a, b] for a, b in pairs]
    for _ in range(draw(st.integers(0, 2))):
        if amps:
            i = draw(st.integers(0, len(amps) - 1))
            amps[i][draw(st.integers(0, 1))] = draw(NUMBERS)
    return {"qubits": draw(st.just(qubits) | JSON_LEAVES), "amps": amps}


def _parses_to_unit_state_or_shape_error(record):
    try:
        state = files.parse_state(record)
    except ShapeError:
        return None
    assert state.amps.shape == (1 << state.num_qubits,)
    assert np.isfinite(state.amps).all()
    assert abs(state.norm() - 1.0) <= 1e-9
    return state


@fuzz(150)
@given(JSON_VALUES)
def test_parse_state_takes_any_json_value(value):
    _parses_to_unit_state_or_shape_error(value)


@fuzz(300)
@given(state_records())
def test_parse_state_takes_any_amplitude_record(record):
    state = _parses_to_unit_state_or_shape_error(record)
    # what the CLI reads: the same record through a JSON file's text
    text = json.dumps(record)
    again = _parses_to_unit_state_or_shape_error(json.loads(text))
    assert (state is None) == (again is None)


# lines near the grammar 'H <w>' | 'T <w>' | 'CNOT <wc> <wt>', with
# comments, odd whitespace and malformed names or wires
CIRCUIT_LINES = st.builds(
    lambda name, wires, space: space.join([name, *wires]),
    st.sampled_from(["H", "T", "CNOT", "S", "h", "", "#", "# H 0"]),
    st.lists(st.sampled_from(["0", "1", "2", "24", "40", "-1", "007", "1_0",
                              "1.5", "x", "\u0661", "#"]), max_size=3),
    st.sampled_from([" ", "\t", "  ", "\u00a0", "\x0b"]))


@fuzz(300)
@given(st.text(max_size=40) | CIRCUIT_LINES
       | st.lists(CIRCUIT_LINES, max_size=6).map("\n".join)
       | st.lists(CIRCUIT_LINES, max_size=6).map("\r\n".join))
def test_parse_circuit_takes_any_text(text):
    try:
        circuit = sim.parse_circuit(text)
    except (CircuitParseError, UnknownGateError):
        return
    assert circuit.num_wires <= sim.MAX_QUBITS
    for g in circuit.gates:
        assert g.kind in sim.LOGICAL_GATES
        assert all(0 <= w < circuit.num_wires for w in g.wires)
    assert sim.parse_circuit(circuit_to_text(circuit)) == circuit
