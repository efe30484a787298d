"""Pinned `qpmatch search` outputs: JSON bundle, CSV and stdout, byte for byte.

The files under ``tests/golden/`` were written by the dense reference search
(two evolutions per trial over a complex N x K state) before the fused trial
loop replaced it.  Any change to an output byte fails here.  The cases cover
planted texts, k-gram recoding, fixed iteration counts, M = N (K = 1), a
pattern whose first symbol never occurs (|T| = 0) and a text of one repeated
symbol (|T| = N).

Regenerating the pins is only right when an output change is intended::

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qpmatch.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> search arguments; paths are relative to GOLDEN, because the bundle
# records the text path in its spec.
CASES = {
    "planted256": ["--text", "inputs/planted256.bin", "--pattern", "wxyz",
                   "--trials", "100", "--seed", "42"],
    "planted212": ["--text", "inputs/planted212.bin", "--pattern-file", "inputs/planted212.pat",
                   "--trials", "60", "--seed", "7"],
    "kgram2": ["--text", "inputs/planted256.bin", "--pattern", "wxyz",
               "--trials", "50", "--seed", "3", "--kgram", "2"],
    "fixed0": ["--text", "inputs/planted212.bin", "--pattern-file", "inputs/planted212.pat",
               "--trials", "20", "--seed", "1", "--r", "fixed:0"],
    "fixed5": ["--text", "inputs/planted256.bin", "--pattern", "wxyz",
               "--trials", "30", "--seed", "5", "--r", "fixed:5"],
    "m_equals_n": ["--text", "inputs/short61.bin", "--pattern-file", "inputs/short61.pat",
                   "--trials", "40", "--seed", "11"],
    "absent_first_symbol": ["--text", "inputs/planted256.bin", "--pattern", "Qxyz",
                            "--trials", "40", "--seed", "2"],
    "repeated_symbol": ["--text", "inputs/repeated100.bin", "--pattern", "abca",
                        "--trials", "40", "--seed", "9"],
}


def _write_inputs(inputs: Path) -> None:
    rng = np.random.default_rng(2005)
    planted256 = bytearray(rng.integers(97, 101, size=256, dtype=np.uint8).tobytes())
    planted256[200:204] = b"wxyz"
    planted212 = bytearray(rng.integers(97, 101, size=212, dtype=np.uint8).tobytes())
    planted212[190:200] = b"ABCDEFGHIJ"
    short61 = rng.integers(97, 101, size=61, dtype=np.uint8).tobytes()
    pattern61 = bytearray(short61)
    pattern61[::5] = rng.integers(97, 101, size=len(pattern61[::5]), dtype=np.uint8).tobytes()
    files = {
        "planted256.bin": bytes(planted256),
        "planted212.bin": bytes(planted212),
        "planted212.pat": b"ABCDEFGHIJ",
        "short61.bin": short61,
        "short61.pat": bytes(pattern61),
        "repeated100.bin": b"a" * 100,
    }
    inputs.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (inputs / name).write_bytes(data)


def _run(capsys, name: str, fmt: str, out: Path) -> str:
    code = main(["search", *CASES[name], "--format", fmt, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_search_output_matches_golden(name, fmt, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / f"{name}.{fmt}"
    stdout = _run(capsys, name, fmt, out)
    assert out.read_bytes() == (GOLDEN / f"{name}.{fmt}").read_bytes()
    assert stdout == (GOLDEN / f"{name}.stdout").read_text()


# Runs (out path, argv) pairs with ``main``; each command's stdout goes to ``<out>.stdout``.
_CHILD = """
import contextlib, json, sys
from qpmatch.cli import main
for out, argv in json.loads(sys.argv[1]):
    with open(out + ".stdout", "w") as fh, contextlib.redirect_stdout(fh):
        code = main(argv)
    if code:
        sys.exit(code)
"""


def _wide_simd_features() -> list:
    """The AVX512 and X86_V3/V4 features that numpy dispatches to on this CPU, read from its feature table."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [f for f in __cpu_dispatch__ if __cpu_features__.get(f) and f.startswith(("AVX512", "X86_V3", "X86_V4"))]


def test_search_bytes_do_not_depend_on_the_host(tmp_path):
    """Two searches write the pinned bytes by default, without numpy's wide SIMD kernels, and on an old BLAS core.

    Each setting is made on its own child process only; the three run side by side.
    """
    src = str(Path(main.__code__.co_filename).resolve().parents[1])
    settings = {"default": {}, "no-wide-simd": {"NPY_DISABLE_CPU_FEATURES": ",".join(_wide_simd_features())},
                "nehalem-blas": {"OPENBLAS_CORETYPE": "Nehalem"}}
    runs = [(name, fmt) for name in ("planted256", "planted212") for fmt in ("json", "csv")]
    children = []
    for setting, extra in settings.items():
        (tmp_path / setting).mkdir()
        calls = [(str(tmp_path / setting / f"{name}.{fmt}"), ["search", *CASES[name], "--format", fmt, "--out",
                                                              str(tmp_path / setting / f"{name}.{fmt}")])
                 for name, fmt in runs]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)
        children.append(subprocess.Popen([sys.executable, "-c", _CHILD, json.dumps(calls)], cwd=GOLDEN, env=env))
    assert [child.wait(timeout=120) for child in children] == [0] * len(settings)
    for setting in settings:
        for name, fmt in runs:
            out = tmp_path / setting / f"{name}.{fmt}"
            assert out.read_bytes() == (GOLDEN / f"{name}.{fmt}").read_bytes(), (setting, name, fmt)
            assert Path(f"{out}.stdout").read_text() == (GOLDEN / f"{name}.stdout").read_text(), (setting, name)


def _regenerate() -> None:
    _write_inputs(GOLDEN / "inputs")
    os.chdir(GOLDEN)
    for name in CASES:
        for fmt in ("json", "csv"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(["search", *CASES[name], "--format", fmt, "--out", f"{name}.{fmt}"])
            if code != 0:
                raise SystemExit(f"{name} ({fmt}) exited with {code}")
            Path(f"{name}.stdout").write_text(buf.getvalue())


if __name__ == "__main__":
    _regenerate()
