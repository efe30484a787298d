"""Pinned text-layer outputs: `qpmatch index` and `baseline --format json`, byte for byte.

The files under ``tests/golden/text/`` were written while `Text` and `Pattern`
still widened every byte code to int64.  Any change to an output byte fails
here.  The cases cover a text over all 95 printable ASCII symbols, a text with
bytes >= 0x80, an ACGT text and a pattern longer than 255 symbols whose best
score is above 255.

- ``<case>.index.stdout`` and ``<case>.index.json`` hold the stdout and the
  output file of ``qpmatch index``;
- ``<case>.baseline.stdout`` holds the stdout of ``qpmatch baseline --format json``.

Regenerating the pins is only right when an output change is intended::

    PYTHONPATH=src python3 tests/test_golden_text.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from qpmatch.cli import main

GOLDEN = Path(__file__).parent / "golden" / "text"
INPUTS = GOLDEN / "inputs"

# case -> (text file, pattern file); the INDEXED cases also pin `qpmatch index` on their text.
CASES = {
    "printable95": ("printable95.bin", "printable95.pat"),
    "highbytes": ("highbytes.bin", "highbytes.pat"),
    "acgt": ("acgt.bin", "acgt.pat"),
    "long_pattern": ("acgt.bin", "long300.pat"),
}
INDEXED = ("printable95", "highbytes", "acgt")


def _mutated_window(rng, text: bytes, offset: int, m: int, changes: int, alphabet: bytes) -> bytes:
    window = bytearray(text[offset : offset + m])
    for i in rng.choice(m, size=changes, replace=False):
        window[i] = alphabet[int(rng.integers(len(alphabet)))]
    return bytes(window)


def _write_inputs() -> None:
    rng = np.random.default_rng(2006)
    printable = bytes(range(32, 127))
    # Every printable symbol occurs; the length is not a multiple of 8.
    text95 = bytes(rng.permutation(np.frombuffer(printable * 31 + printable[:56], dtype=np.uint8)))
    high = rng.integers(0, 256, size=2053, dtype=np.uint8).tobytes()
    acgt = np.frombuffer(b"ACGT", dtype=np.uint8)[rng.integers(0, 4, size=4099)].tobytes()
    files = {
        "printable95.bin": text95,
        "printable95.pat": _mutated_window(rng, text95, 1000, 40, 10, printable),
        "highbytes.bin": high,
        # Bytes the text does not hold count as mismatches.
        "highbytes.pat": _mutated_window(rng, high, 700, 24, 6, bytes(range(128, 256))),
        "acgt.bin": acgt,
        "acgt.pat": _mutated_window(rng, acgt, 2222, 12, 3, b"ACGT"),
        # M = 300 with 12 redrawn symbols: the best score is above 255.
        "long300.pat": _mutated_window(rng, acgt, 1500, 300, 12, b"ACGT"),
    }
    INPUTS.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (INPUTS / name).write_bytes(data)


def _argv(case: str, command: str) -> list:
    text, pattern = CASES[case]
    if command == "index":
        return ["index", "--text", str(INPUTS / text), "--out", f"{case}.index.json"]
    return ["baseline", "--text", str(INPUTS / text), "--pattern-file", str(INPUTS / pattern),
            "--format", "json"]


@pytest.mark.parametrize("case", INDEXED)
def test_index_output_matches_golden(case, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # stdout names the relative output path
    code = main(_argv(case, "index"))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == (GOLDEN / f"{case}.index.stdout").read_text()
    assert (tmp_path / f"{case}.index.json").read_bytes() == (GOLDEN / f"{case}.index.json").read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_baseline_output_matches_golden(case, capsys):
    code = main(_argv(case, "baseline"))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == (GOLDEN / f"{case}.baseline.stdout").read_text()


def test_long_pattern_scores_above_255():
    payload = json.loads((GOLDEN / "long_pattern.baseline.stdout").read_text())
    assert payload["best_score"] > 255


def _regenerate() -> None:
    _write_inputs()
    os.chdir(GOLDEN)
    for case in CASES:
        for command in ("index", "baseline") if case in INDEXED else ("baseline",):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(_argv(case, command))
            if code != 0:
                raise SystemExit(f"{case} {command} exited with {code}")
            Path(f"{case}.{command}.stdout").write_text(buf.getvalue())


if __name__ == "__main__":
    _regenerate()
