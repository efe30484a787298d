"""Property tests for the circuits text format, synthesis and the index JSON boundary.

Examples are derandomized and bounded, so every run checks the same inputs.
"""

import base64
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from qpmatch import (
    Circuit,
    DomainError,
    Gate,
    OracleIndex,
    Permutation,
    emit_circuit,
    parse_circuit,
    permutation_action,
    synth_permutation,
)

bounded = settings(derandomize=True, deadline=None, max_examples=60, database=None)


@st.composite
def gates(draw, n):
    kind = draw(st.sampled_from(["H", "X", "MCX"]))
    target = draw(st.integers(0, n - 1))
    if kind != "MCX":
        return Gate(kind, target)
    others = [q for q in range(n) if q != target]
    controls = draw(
        st.lists(
            st.tuples(st.sampled_from(others), st.booleans()) if others else st.nothing(),
            unique_by=lambda control: control[0],
        )
    )
    return Gate("MCX", target, tuple(controls))


circuits = st.integers(1, 6).flatmap(
    lambda n: st.lists(gates(n), max_size=12).map(lambda gs: Circuit(n, tuple(gs)))
)

# Near-misses of the gate-line grammar, next to arbitrary text.
tokens = ["H", "X", "MCX", "QUBITS", "->", "-", "q0", "q1", "q2", "+q0", "-q1", "+q", "qx", "q-1", "\t", "2"]
gate_lines = st.text() | st.lists(st.sampled_from(tokens), max_size=6).map(" ".join)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(), children, max_size=3),
    max_leaves=8,
)
packed = st.binary(max_size=4).map(lambda raw: base64.b64encode(raw).decode("ascii"))
index_documents = st.fixed_dictionaries(
    {
        "version": st.just(1) | json_values,
        "n": st.integers(-2, 33) | json_values,
        "alphabet": st.lists(st.integers(0, 3), max_size=3) | json_values,
        "indicators": st.dictionaries(st.sampled_from("0123x") | st.text(), packed | json_values, max_size=3),
    }
).map(json.dumps)


@bounded
@given(circuits)
def test_emit_parse_round_trip(circuit):
    assert parse_circuit(emit_circuit(circuit)) == circuit


@bounded
@given(gate_lines)
def test_any_gate_line_parses_or_raises_domain_error(line):
    try:
        parse_circuit("QUBITS 2\n" + line)
    except DomainError:
        pass


@bounded
@given(st.integers(1, 6).flatmap(lambda w: st.permutations(range(2**w))))
def test_synthesized_permutation_acts_exactly(images):
    p = Permutation(tuple(images))
    width = p.size.bit_length() - 1
    assert permutation_action(synth_permutation(p, width)).images == p.images


@bounded
@given(st.text() | index_documents)
def test_index_document_loads_or_raises_domain_error(document):
    try:
        OracleIndex.from_json(document)
    except DomainError:
        pass
