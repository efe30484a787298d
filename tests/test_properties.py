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
    Circuit,
    DomainError,
    GateCountReport,
    OracleIndex,
    Pattern,
    Text,
    build_index,
    closest_match_classical,
    emit_circuit,
    gate_count,
    lift_boolean,
    oracle_gate_count,
    parse_circuit,
    permutation_action,
    simulate_statevector,
    simulate_unitary,
    synth_boolean_oracle,
    synth_permutation,
)
from qpmatch.circuits import KINDS, apply_transpositions

bounded = settings(derandomize=True, deadline=None, max_examples=60, database=None)


def arrays_of(gates) -> tuple:
    """The five arrays of :class:`Circuit` for gates given as (kind code, target, ((qubit, positive), ...))."""
    controls = [control for _, _, cs in gates for control in cs]
    return (np.array([kind for kind, _, _ in gates], dtype=np.uint8),
            np.array([target for _, target, _ in gates], dtype=np.int64),
            np.array([q for q, _ in controls], dtype=np.int64), np.array([p for _, p in controls], dtype=bool),
            np.cumsum([0, *(len(cs) for _, _, cs in gates)], dtype=np.int64))


@st.composite
def gates(draw, n):
    """A valid gate as (kind code, target, controls): H, X or MCX by its code in ``KINDS``."""
    kind = draw(st.sampled_from(range(len(KINDS))))
    target = draw(st.integers(0, n - 1))
    if KINDS[kind] != "MCX":
        return kind, target, ()
    others = [q for q in range(n) if q != target]
    controls = draw(
        st.lists(
            st.tuples(st.sampled_from(others), st.booleans()) if others else st.nothing(),
            unique_by=lambda control: control[0],
        )
    )
    return kind, target, tuple(controls)


circuits = st.integers(1, 6).flatmap(
    lambda n: st.lists(gates(n), max_size=12).map(lambda gs: Circuit(n, *arrays_of(gs)))
)


@st.composite
def odd_gates(draw, n):
    """A valid gate with at most one rule of Circuit's check broken: an unknown kind code,
    controls on H or X, or a repeated, negative or out-of-range qubit."""
    target = draw(st.integers(0, n - 1))
    others = [q for q in range(n) if q != target]
    chosen = draw(st.lists(st.sampled_from(others), unique=True, max_size=3)) if others else []
    controls = [[q, draw(st.booleans())] for q in chosen]
    kind = 2 if controls else draw(st.integers(0, 2))
    qubits = [target, *chosen]
    match draw(st.sampled_from(["none", "kind", "controls", "qubit", "qubit"])):
        case "kind":
            kind = draw(st.integers(3, 255))
        case "controls":
            kind = draw(st.integers(0, 1))
        case "qubit":
            i = draw(st.integers(0, len(controls)))
            value = draw(st.sampled_from([-1, n, *qubits]))
            if i:
                controls[i - 1][0] = value
            else:
                target = value
    return kind, target, tuple(map(tuple, controls))


@st.composite
def checked_gate_lists(draw):
    """(n, gates): valid gates with one drawn from :func:`odd_gates` among them."""
    n = draw(st.integers(1, 5))
    gs = draw(st.lists(gates(n), max_size=3))
    gs.insert(draw(st.integers(0, len(gs))), draw(odd_gates(n)))
    return n, gs


def _reference_accepts(n, gates) -> bool:
    """The check of a circuit, gate by gate: the rules Circuit applies to its arrays at once."""
    for kind, target, controls in gates:
        qubits = [target, *(q for q, _ in controls)]
        if kind >= len(KINDS) or (controls and KINDS[kind] != "MCX"):
            return False
        if len(set(qubits)) < len(qubits) or min(qubits) < 0 or max(qubits) >= n:
            return False
    return True


# Per array of :func:`arrays_of`, a dtype Circuit refuses there.
WRONG_DTYPES = (np.int64, np.int32, np.float64, np.uint8, np.int32)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(checked_gate_lists(), st.sampled_from([None, None, None, 0, 1, 2, 3, 4]))
def test_circuit_check_accepts_what_the_per_gate_check_accepts(case, wrong):
    n, gs = case
    arrays = list(arrays_of(gs))
    if wrong is not None:
        arrays[wrong] = arrays[wrong].astype(WRONG_DTYPES[wrong])
    try:
        circuit = Circuit(n, *arrays)
    except DomainError:
        assert wrong is not None or not _reference_accepts(n, gs)
        return
    assert wrong is None and _reference_accepts(n, gs)
    assert circuit.gates == tuple((KINDS[kind], target, controls) for kind, target, controls in gs)


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
    lambda n: st.tuples(st.lists(gates(n), max_size=24).map(lambda gs: Circuit(n, *arrays_of(gs))),
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
    width = len(images).bit_length() - 1
    assert np.array_equal(permutation_action(synth_permutation(tuple(images), width)), images)


# (f, n): all-zero, all-one and drawn tables, sometimes longer than 2^n.
boolean_tables = st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.just([0] * 2**n) | st.just([1] * 2**n)
        | st.lists(st.integers(0, 1), min_size=2**n, max_size=2**n + 3),
        st.just(n),
    )
)


@st.composite
def basis_circuits(draw):
    """{X, MCX} circuits of 1-10 qubits as runs of gates on one target; a run may repeat a gate."""
    n = draw(st.integers(1, 10))
    gs = []
    for _ in range(draw(st.integers(0, 6))):
        target = draw(st.integers(0, n - 1))
        others = [q for q in range(n) if q != target]
        controls = st.lists(
            st.tuples(st.sampled_from(others), st.booleans()) if others else st.nothing(),
            unique_by=lambda control: control[0],
        )
        run = [(KINDS.index("MCX") if c else KINDS.index("X"), target, tuple(c))
               for c in draw(st.lists(controls, min_size=1, max_size=3))]
        if draw(st.booleans()):
            run.append(draw(st.sampled_from(run)))
        gs += draw(st.permutations(run))
    return Circuit(n, *arrays_of(gs))


transposition_lists = st.integers(2, 64).flatmap(
    lambda size: st.tuples(
        st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)).filter(lambda ab: ab[0] != ab[1]),
                 max_size=10),
        st.just(size),
    )
)


# The builders return their tables unchecked: each must be a bijection by construction.
@bounded
@given(basis_circuits().map(lambda c: (permutation_action, (c,)))
       | boolean_tables.map(lambda case: (lift_boolean, case))
       | transposition_lists.map(lambda case: (apply_transpositions, case)))
def test_built_image_tables_are_bijections(case):
    build, args = case
    table = build(*args)
    assert table.dtype == np.int64
    assert np.array_equal(np.sort(table), np.arange(len(table)))


@bounded
@given(boolean_tables)
def test_boolean_oracle_is_the_lifted_permutation_gate_for_gate(case):
    f, n = case
    assert synth_boolean_oracle(f, n) == synth_permutation(lift_boolean(f, n), n + 1)


@bounded
@given(basis_circuits())
def test_permutation_action_is_the_basis_action_of_the_unitary(circuit):
    # Column x of an X/MCX circuit's unitary holds a single 1, in row images[x].
    unitary = simulate_unitary(circuit)
    images = permutation_action(circuit)
    assert np.count_nonzero(unitary) == len(images) and (unitary[images, np.arange(len(images))] == 1).all()


@bounded
@given(circuits)
def test_gate_count_counts_gate_by_gate(circuit):
    counts = {"H": 0, "X": 0, "MCX": 0}
    for g in circuit.gates:
        counts[g.kind] += 1
    total = sum(1 if len(g.controls) <= 1 else 2 * len(g.controls) - 1 for g in circuit.gates)
    assert gate_count(circuit) == GateCountReport(counts, total)


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
    """A text over one pool and a pattern that may also hold 300 and -2, which a uint8 text cannot."""
    pool = draw(code_pools)
    text = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    m = draw(st.integers(1, len(text)))
    pattern = draw(st.lists(st.sampled_from(pool + (300, -2)), min_size=m, max_size=m))
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
    result = closest_match_classical(Text(text), Pattern(pattern))
    assert (result.best_score, result.offsets) == _brute_force_match(text, pattern)


@bounded
@given(st.lists(st.integers(0, 255) | st.integers(-(2**40), 2**40), min_size=1, max_size=20))
def test_codes_are_uint8_exactly_when_every_code_is_a_byte(codes):
    expected = np.uint8 if all(0 <= c <= 255 for c in codes) else np.int64
    for symbols in (Text(codes).symbols, Pattern(codes).symbols):
        assert symbols.dtype == expected
        assert symbols.tolist() == codes
        assert not symbols.flags.writeable


@bounded
@given(st.lists(st.integers(0, 255), min_size=1, max_size=40))
def test_index_of_an_alphabet_superset_zeroes_codes_the_text_cannot_hold(codes):
    index = build_index(Text(codes))
    assert sorted(index.indicators) == sorted(set(codes))
    for sym in index.indicators:
        bits = index.indicator_for(sym)
        assert bits.dtype == np.uint8 and not bits.flags.writeable
        assert bits.tolist() == [int(c == sym) for c in codes]
    assert not index.indicator_for(300).any() and not index.indicator_for(2**40).any()


@bounded
@given(code_pools.flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40)))
def test_index_json_round_trip(codes):
    index = build_index(Text(codes))
    back = OracleIndex.from_json(index.to_json())
    assert back.n == index.n
    assert sorted(back.indicators) == sorted(index.indicators)
    for sym in index.indicators:
        assert back.indicator_for(sym).tolist() == index.indicator_for(sym).tolist()


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


# Byte codes, int64 codes from 256 up to 2**40, and negative codes down to -2**40.
symbol_codes = st.integers(0, 255) | st.integers(256, 2**40) | st.just(2**40) | st.integers(-(2**40), -1)


@st.composite
def indexed_texts(draw):
    """A text over a few drawn codes and the sorted distinct codes drawn."""
    pool = draw(st.lists(symbol_codes, min_size=1, max_size=6, unique=True))
    codes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=70))
    return Text(codes), sorted(set(codes))


@bounded
@given(indexed_texts())
def test_index_document_is_what_json_dumps_wrote(case):
    text, alphabet = case
    index = build_index(text)
    assert index.to_json() == _index_json_by_dumps(text, alphabet)
    back = OracleIndex.from_json(index.to_json())
    assert sorted(back.indicators) == sorted(index.indicators)
    for sym, packed in index.indicators.items():
        assert back.indicators[sym].tobytes() == packed.tobytes()
        assert back.indicator_for(sym).tolist() == index.indicator_for(sym).tolist()


@st.composite
def packed_entries(draw):
    """A length n and disjoint entries: each position belongs to at most one drawn symbol, padding bits drawn."""
    n = draw(st.integers(1, 40))
    pool = draw(st.lists(symbol_codes, max_size=5, unique=True))
    owners = draw(st.lists(st.integers(-1, len(pool) - 1), min_size=n, max_size=n))
    entries = {}
    for s, sym in enumerate(pool):
        packed = np.packbits([owner == s for owner in owners])
        packed[-1] |= draw(st.integers(0, 255)) & ((1 << (-n % 8)) - 1)
        entries[sym] = packed
    return n, entries


@bounded
@given(packed_entries())
def test_index_of_disjoint_packed_entries_round_trips(case):
    n, entries = case
    index = OracleIndex(n, entries)
    back = OracleIndex.from_json(index.to_json())
    assert back.n == n
    assert sorted(back.indicators) == sorted(entries)
    for sym, packed in index.indicators.items():
        assert back.indicators[sym].tobytes() == packed.tobytes()
        assert np.unpackbits(packed)[n:].sum() == 0
