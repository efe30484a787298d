"""The benchmark tracer wraps names on ``qpmatch`` modules and classes by lookup.

``benchmarks/tracing.py`` reads ``owner.__dict__[attr]`` for every entry of its
patch table, so a traced benchmark run dies with KeyError as soon as one of
those names stops being bound, and its count hooks read fields of what the
wrapped calls return.  These tests catch a deletion, or a changed field, in
the regular suite.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("qpmatch_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound():
    table = _load_tracing()._patch_table()
    assert table
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in table if attr not in owner.__dict__]
    assert missing == []


def test_hooks_run_on_every_command(tmp_path, capsys):
    # The hooks read fields of what the wrapped calls return (a circuit's
    # gates); one small run of each command exercises them.  No command builds
    # a dense statevector, so its byte hook never runs.
    from qpmatch.cli import main

    text = tmp_path / "text.bin"
    text.write_bytes(b"abcabdabcaab")
    commands = [
        ["index", "--text", str(text), "--out", str(tmp_path / "index.json")],
        ["baseline", "--text", str(text), "--pattern", "abd"],
        ["search", "--text", str(text), "--pattern", "abd", "--trials", "4", "--seed", "1",
         "--out", str(tmp_path / "search.json")],
        ["synth", "oracle", "--text", "abcab", "--symbol", "a", "--verify"],
        ["synth", "init-state", "--s", "2", "--m", "3", "--verify"],
        ["synth", "transposition", "--width", "4", "--a", "1", "--b", "6", "--verify"],
        ["scaling-report", "--n-min", "2", "--n-max", "4", "--seed", "1"],
    ]
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        codes = []
        for argv in commands:
            tracer.kind = argv[0]
            codes.append(main(argv))
    finally:
        tracer.uninstall()
    out = capsys.readouterr().out
    printed = [int(line.split()[-2]) for line in out.splitlines() if line.startswith("synthesized ")]
    assert codes == [0] * len(commands)
    assert len(printed) == 3
    assert tracer.counts["gates"] == sum(printed)
    assert tracer.maxima["statevector_bytes"] == 0
    assert tracer.counts["classical_in_search"] == 1
