"""Reversible-circuit synthesis walkthrough.

Synthesizes a single transposition, a Boolean symbol oracle, and the
entangled-initial-state preparation circuit, verifying each against its
mathematical target and printing the circuits in the text format.
"""

import numpy as np

from qpmatch import (
    Text,
    build_index,
    emit_circuit,
    expand_mcx,
    gate_count,
    init_state_fidelity,
    lift_boolean,
    permutation_action,
    synth_boolean_oracle,
    synth_init_state_circuit,
    synth_transposition,
)


def main() -> None:
    # 1. One transposition on 3 qubits via a Gray-code path.
    width = 3
    circuit = synth_transposition(1, 6, width)
    images = tuple(permutation_action(circuit).tolist())
    print(f"transposition 1<->6 on {width} qubits: {len(circuit.kinds)} gates")
    print(emit_circuit(circuit))
    print(f"action: {images}  (1 and 6 swapped, everything else fixed)\n")

    # 2. Boolean oracle marking positions of symbol 'a' in the text "abab".
    text = Text.from_bytes(b"abab")
    index = build_index(text)
    f = index.indicator_for(ord("a"))
    n = 2  # log2 of the text length
    oracle = synth_boolean_oracle(f, n)
    assert np.array_equal(permutation_action(oracle), lift_boolean(f, n))
    report = gate_count(oracle)
    print(f"oracle for 'a' in \"abab\": indicator {[int(b) for b in f]}")
    print(emit_circuit(oracle))
    print(f"gate counts {report.counts}, basic-gate estimate {report.basic_gate_total}")
    expanded = expand_mcx(oracle)
    print(f"after Toffoli expansion: {expanded.n_qubits} qubits, "
          f"{len(expanded.kinds)} gates\n")

    # 3. Initial-state circuit for window size M=2 over 2^3 positions.
    s, m = 3, 2
    prep = synth_init_state_circuit(s, m)
    fidelity = init_state_fidelity(prep, s, m)
    print(f"init-state circuit s={s}, M={m}: {len(prep.kinds)} gates on {prep.n_qubits} qubits")
    print(f"fidelity against the closed-form target: {fidelity:.15f}")


if __name__ == "__main__":
    main()
