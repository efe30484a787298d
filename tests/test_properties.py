"""Property tests for the circuits text format, synthesis, the text layer and the index JSON boundary.

Examples are derandomized and bounded, so every run checks the same inputs.
"""

import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpmatch import (
    SENTINEL,
    Circuit,
    DomainError,
    Gate,
    OracleIndex,
    Pattern,
    Permutation,
    Text,
    build_index,
    closest_match_classical,
    emit_circuit,
    gate_count,
    lift_boolean,
    oracle_gate_count,
    pad_to_power_of_two,
    parse_circuit,
    permutation_action,
    simulate_statevector,
    simulate_unitary,
    synth_boolean_oracle,
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
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.lists(gates(n), max_size=24).map(lambda gs: Circuit(n, tuple(gs))),
                        st.integers(0, 2**n - 1))
))
def test_statevector_is_the_unitary_column_byte_for_byte(case):
    circuit, basis_input = case
    column = np.ascontiguousarray(simulate_unitary(circuit)[:, basis_input])
    assert simulate_statevector(circuit, basis_input).tobytes() == column.tobytes()


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
    assert np.array_equal(permutation_action(synth_permutation(p, width)).images, p.images)


# (f, n): all-zero, all-one and drawn tables, sometimes longer than 2^n.
boolean_tables = st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.just([0] * 2**n) | st.just([1] * 2**n)
        | st.lists(st.integers(0, 1), min_size=2**n, max_size=2**n + 3),
        st.just(n),
    )
)


@bounded
@given(boolean_tables)
def test_boolean_oracle_is_the_lifted_permutation_gate_for_gate(case):
    f, n = case
    assert synth_boolean_oracle(f, n) == synth_permutation(lift_boolean(f, n), n + 1)


@bounded
@given(boolean_tables)
def test_oracle_gate_count_counts_the_synthesized_oracle(case):
    f, n = case
    assert oracle_gate_count(f, n) == gate_count(synth_boolean_oracle(f, n))


@bounded
@given(st.integers(-2, 4).flatmap(
    lambda n: st.tuples(st.lists(st.sampled_from([0, 1, 2, -1, 0.5]), max_size=2 ** max(n, 0) + 2),
                        st.just(n))
))
def test_oracle_builders_check_tables_like_lift_boolean(case):
    f, n = case
    valid = n >= 1 and len(f) >= 2**n and all(v in (0, 1) for v in f[: 2**n])
    for build in (lift_boolean, synth_boolean_oracle, oracle_gate_count):
        if valid:
            build(f, n)
        else:
            with pytest.raises(DomainError):
                build(f, n)


@bounded
@given(st.text() | index_documents)
def test_index_document_loads_or_raises_domain_error(document):
    try:
        OracleIndex.from_json(document)
    except DomainError:
        pass


# Code pools: byte codes (uint8 texts), and codes outside 0..255 (int64 texts).
code_pools = st.sampled_from([(0, 1, 2), (97, 98, 255), (0, 255, 300), (-5, 0, 7), (2**40, 3)])


@st.composite
def scans(draw):
    """A text over one pool and a pattern that may also hold 300 and -1, which a uint8 text cannot."""
    pool = draw(code_pools)
    text = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    m = draw(st.integers(1, len(text)))
    pattern = draw(st.lists(st.sampled_from(pool + (300, -1)), min_size=m, max_size=m))
    return text, pattern


@st.composite
def long_scans(draw):
    """M > 255: a window of a binary text with a few symbols flipped, so the best score is above 255."""
    text = draw(st.lists(st.sampled_from((0, 1)), min_size=256, max_size=320))
    m = draw(st.integers(256, len(text)))
    offset = draw(st.integers(0, len(text) - m))
    pattern = text[offset : offset + m]
    for i in draw(st.lists(st.integers(0, m - 1), max_size=4)):
        pattern[i] ^= 1
    return text, pattern


def _brute_force_match(text, pattern):
    m = len(pattern)
    scores = [sum(a == b for a, b in zip(text[o : o + m], pattern)) for o in range(len(text) - m + 1)]
    best = max(scores)
    return best, tuple(o for o, score in enumerate(scores) if score == best)


@bounded
@given(scans() | long_scans())
def test_classical_scan_equals_brute_force(case):
    text, pattern = case
    result = closest_match_classical(Text.from_codes(text), Pattern.from_codes(pattern))
    assert (result.best_score, result.offsets) == _brute_force_match(text, pattern)


@bounded
@given(st.lists(st.integers(0, 255) | st.integers(-(2**40), 2**40), min_size=1, max_size=20))
def test_codes_are_uint8_exactly_when_every_code_is_a_byte(codes):
    expected = np.uint8 if all(0 <= c <= 255 for c in codes) else np.int64
    for symbols in (Text.from_codes(codes).symbols, Pattern.from_codes(codes).symbols):
        assert symbols.dtype == expected
        assert symbols.tolist() == codes
        assert not symbols.flags.writeable


@bounded
@given(st.lists(st.integers(0, 255), min_size=1, max_size=40))
def test_index_of_an_alphabet_superset_zeroes_codes_the_text_cannot_hold(codes):
    index = build_index(Text.from_codes(codes))
    assert sorted(index.indicators) == sorted(set(codes))
    for sym, ind in index.indicators.items():
        assert ind.bits.dtype == np.uint8 and not ind.bits.flags.writeable
        assert ind.bits.tolist() == [int(c == sym) for c in codes]
    assert not index.indicator_for(300).bits.any() and not index.indicator_for(2**40).bits.any()


@bounded
@given(code_pools.flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40)),
       st.integers(0, 40))
def test_index_json_round_trip(codes, m):
    text = Text.from_codes(codes)
    if m <= text.n:
        text = pad_to_power_of_two(text, m)
    index = build_index(text)
    back = OracleIndex.from_json(index.to_json())
    assert back.n == index.n
    assert sorted(back.indicators) == sorted(index.indicators)
    for sym, ind in index.indicators.items():
        assert back.indicators[sym].bits.tolist() == ind.bits.tolist()


def _index_json_by_dumps(text, alphabet):
    """The index document as it was written before indicators were held packed: one json.dumps."""
    symbols = text.symbols.astype(np.int64)
    payload = {
        "version": 1,
        "n": text.n,
        "alphabet": alphabet,
        "indicators": {
            str(s): base64.b64encode(np.packbits(symbols == s).tobytes()).decode("ascii") for s in alphabet
        },
    }
    return json.dumps(payload, sort_keys=True)


# Byte codes, int64 codes from 256 up to 2**40, and negative codes other than the sentinel.
symbol_codes = st.integers(0, 255) | st.integers(256, 2**40) | st.just(2**40) | st.integers(-(2**40), SENTINEL - 1)


@st.composite
def indexed_texts(draw):
    """A text over a few drawn codes, sometimes sentinel-padded, and the sorted distinct codes drawn."""
    pool = draw(st.lists(symbol_codes, min_size=1, max_size=6, unique=True))
    codes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=70))
    text = Text.from_codes(codes)
    m = draw(st.integers(0, len(codes)))
    return (pad_to_power_of_two(text, m) if m else text), sorted(set(codes))


@bounded
@given(indexed_texts())
def test_index_document_is_what_json_dumps_wrote(case):
    text, alphabet = case
    index = build_index(text)
    assert index.to_json() == _index_json_by_dumps(text, alphabet)
    back = OracleIndex.from_json(index.to_json())
    assert sorted(back.indicators) == sorted(index.indicators)
    for sym, ind in index.indicators.items():
        assert back.indicators[sym].packed.tobytes() == ind.packed.tobytes()
        assert back.indicators[sym].bits.tolist() == ind.bits.tolist()
