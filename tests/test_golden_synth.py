"""Pinned circuit outputs: `synth --verify` stdout and the dense simulators' bytes.

The files under ``tests/golden/synth/`` were written by the fancy-indexed,
complex128 gate loop before the strided-view kernel replaced it.  Any change
to an output byte fails here.

- ``<case>.stdout`` holds the stdout of one ``synth`` or ``scaling-report``
  command; ``transposition16.circ`` and ``oracle300.circ`` are the circuits
  the commands that name them emit.
- ``init_s4_m5.statevector.sha256`` holds the sha256 of the bytes of
  ``simulate_statevector`` on the 20-qubit s=4/M=5 init-state circuit, the
  largest circuit ``synth init-state --verify`` checks.
- ``kernels.json`` holds seeded random {H, X, MCX} circuits with mixed
  control polarities, in the text format, and the sha256 of the bytes of
  ``simulate_statevector(c, x)``, of ``simulate_unitary(c)`` and of
  ``permutation_action(c)`` (int64, only for Hadamard-free circuits).
  Signed zeros count.

Regenerating the pins is only right when an output change is intended::

    PYTHONPATH=src python3 tests/test_golden_synth.py
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from qpmatch import (
    Circuit,
    emit_circuit,
    parse_circuit,
    permutation_action,
    simulate_statevector,
    simulate_unitary,
    synth_init_state_circuit,
)
from qpmatch.cli import main

GOLDEN = Path(__file__).parent / "golden" / "synth"

# 300 positions, so the oracle pads its table to 2^9.
ORACLE_TEXT = "".join("ACGT"[i] for i in np.random.default_rng(2005).integers(0, 4, size=300))

# name -> argv; the emitted circuit path is relative, because stdout names it.
CASES = {
    "oracle300": ["synth", "oracle", "--text", ORACLE_TEXT, "--symbol", "G", "--verify"],
    "oracle300_emit": ["synth", "oracle", "--text", ORACLE_TEXT, "--symbol", "G", "--verify",
                       "--emit", "oracle300.circ"],
    "init_s3_m3": ["synth", "init-state", "--s", "3", "--m", "3", "--verify"],
    "init_s4_m5": ["synth", "init-state", "--s", "4", "--m", "5", "--verify"],
    "init_s3_m6": ["synth", "init-state", "--s", "3", "--m", "6", "--verify"],
    "init_s2_m8": ["synth", "init-state", "--s", "2", "--m", "8", "--verify"],
    "transposition16": ["synth", "transposition", "--width", "16", "--a", "12345", "--b", "54321",
                        "--verify", "--emit", "transposition16.circ"],
    "scaling_report": ["scaling-report", "--n-min", "3", "--n-max", "10", "--seed", "4"],
    # n = 1 is the only row whose MCX gates have a single control.
    "scaling_report_wide": ["scaling-report", "--n-min", "1", "--n-max", "14", "--seed", "4"],
}
EMITTED = {"transposition16": "transposition16.circ", "oracle300_emit": "oracle300.circ"}

KERNEL_CIRCUITS = 60
STATEVECTOR_PIN = "init_s4_m5.statevector.sha256"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _random_circuit(rng, n: int, with_hadamard: bool) -> Circuit:
    kinds = ("H", "X", "MCX") if with_hadamard else ("X", "MCX")
    lines = [f"QUBITS {n}"]
    for _ in range(int(rng.integers(0, 4 * n + 1))):
        kind = kinds[int(rng.integers(len(kinds)))]
        target = int(rng.integers(n))
        if kind != "MCX":
            lines.append(f"{kind} q{target}")
            continue
        others = rng.permutation([q for q in range(n) if q != target])
        c = int(rng.integers(0, len(others) + 1))
        controls = [f"{'+' if rng.integers(2) else '-'}q{q}" for q in others[:c]]
        lines.append(" ".join(["MCX", *controls, f"-> q{target}"]))
    return parse_circuit("\n".join(lines))


def _kernel_digests(circuit: Circuit, basis_input: int) -> dict:
    has_hadamard = any(g.kind == "H" for g in circuit.gates)
    images = None if has_hadamard else np.asarray(permutation_action(circuit), dtype=np.int64)
    return {
        "statevector": _sha(simulate_statevector(circuit, basis_input).tobytes()),
        "unitary": _sha(simulate_unitary(circuit).tobytes()),
        "permutation": None if images is None else _sha(images.tobytes()),
    }


def _kernel_records() -> list:
    rng = np.random.default_rng(4242)
    records = []
    for i in range(KERNEL_CIRCUITS):
        n = int(rng.integers(1, 10))
        circuit = _random_circuit(rng, n, with_hadamard=i % 2 == 0)
        basis_input = int(rng.integers(2**n))
        records.append({"circuit": emit_circuit(circuit), "basis_input": basis_input,
                        **_kernel_digests(circuit, basis_input)})
    return records


@pytest.mark.parametrize("name", sorted(CASES))
def test_synth_output_matches_golden(name, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    code = main(CASES[name])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == (GOLDEN / f"{name}.stdout").read_text()
    if name in EMITTED:
        assert (tmp_path / EMITTED[name]).read_bytes() == (GOLDEN / EMITTED[name]).read_bytes()


def test_kernel_outputs_match_golden():
    records = json.loads((GOLDEN / "kernels.json").read_text())
    assert len(records) == KERNEL_CIRCUITS
    assert sum(r["permutation"] is not None for r in records) >= KERNEL_CIRCUITS // 2
    for record in records:
        circuit = parse_circuit(record["circuit"])
        digests = _kernel_digests(circuit, record["basis_input"])
        assert digests == {key: record[key] for key in digests}, record["circuit"]


def _init_state_digest() -> str:
    return _sha(simulate_statevector(synth_init_state_circuit(4, 5), 0).tobytes())


def test_init_state_statevector_matches_golden():
    assert _init_state_digest() == (GOLDEN / STATEVECTOR_PIN).read_text().strip()


def _regenerate() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    os.chdir(GOLDEN)
    for name, argv in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"{name} exited with {code}")
        Path(f"{name}.stdout").write_text(buf.getvalue())
    Path("kernels.json").write_text(json.dumps(_kernel_records(), indent=1) + "\n")
    Path(STATEVECTOR_PIN).write_text(_init_state_digest() + "\n")


if __name__ == "__main__":
    _regenerate()
