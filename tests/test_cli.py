import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpmatch import (
    OracleIndex,
    Text,
    build_index,
    closest_match_classical,
    gate_count,
    init_state_target,
    simulate_statevector,
    synth_boolean_oracle,
    synth_init_state_circuit,
)
from qpmatch import circuits, cli, search, simulation
from qpmatch.cli import main


@pytest.fixture
def text_file(tmp_path):
    path = tmp_path / "text.bin"
    path.write_bytes(b"abab")
    return str(path)


def _without_first_gate(circuit):
    kinds, targets, qubits, polarities, offsets = circuit.arrays
    start = offsets[1]
    return circuits.Circuit(circuit.n_qubits, kinds[1:], targets[1:], qubits[start:], polarities[start:],
                            offsets[1:] - start)


def _with_first_control_flipped(circuit):
    """``circuit`` with the polarity of its first control entry, that of the first controlled gate, flipped."""
    polarities = circuit.polarities.copy()
    polarities[0] = not polarities[0]
    return dataclasses.replace(circuit, polarities=polarities)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIndexCommand:
    def test_small_text(self, capsys, tmp_path, text_file):
        out = tmp_path / "index.json"
        code, stdout, _ = run_cli(capsys, "index", "--text", text_file, "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 4
        assert len(payload["indicators"]) == 2

    def test_idempotent(self, capsys, tmp_path, text_file):
        out = tmp_path / "index.json"
        run_cli(capsys, "index", "--text", text_file, "--out", str(out))
        first = out.read_bytes()
        run_cli(capsys, "index", "--text", text_file, "--out", str(out))
        assert out.read_bytes() == first

    def test_round_trip_equals_in_memory(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        data = bytes(rng.integers(97, 113, size=200_000, dtype=np.uint8))
        src = tmp_path / "big.bin"
        src.write_bytes(data)
        out = tmp_path / "index.json"
        code, _, _ = run_cli(capsys, "index", "--text", str(src), "--out", str(out))
        assert code == 0
        reloaded = OracleIndex.from_json(out.read_text())
        direct = build_index(Text.from_bytes(data))
        assert set(reloaded.indicators) == set(direct.indicators)
        for sym, packed in direct.indicators.items():
            assert np.array_equal(reloaded.indicators[sym], packed)

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "index", "--text", str(tmp_path / "no"), "--out", str(tmp_path / "o"))
        assert code == 2


class TestBaselineCommand:
    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"xxabxx")
        code, stdout, _ = run_cli(
            capsys, "baseline", "--text", str(path), "--pattern", "ab", "--format", "json"
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload == {"best_score": 2, "offsets": [2]}

    def test_tie_set(self, capsys, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"aaaa")
        code, stdout, _ = run_cli(
            capsys, "baseline", "--text", str(path), "--pattern", "aa", "--format", "json"
        )
        assert json.loads(stdout)["offsets"] == [0, 1, 2]


class TestSearchCommand:
    def test_absent_pattern_symmetric_distribution(self, capsys, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"abcabcabcabcabca")
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(
            capsys, "search", "--text", str(path), "--pattern", "xy",
            "--trials", "20", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        bundle = json.loads(out.read_text())
        probs = bundle["distribution"]["probabilities"]
        assert np.allclose(probs[:15], probs[0], atol=1e-12)
        assert bundle["classical_baseline"]["best_score"] == 0

    def test_byte_identical_replay(self, capsys, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"abcabdabcabc")
        args = ["search", "--text", str(path), "--pattern", "abd",
                "--trials", "15", "--seed", "11", "--format", "json"]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        code1, stdout1, _ = run_cli(capsys, *args, "--out", str(out1))
        code2, stdout2, _ = run_cli(capsys, *args, "--out", str(out2))
        assert code1 == code2 == 0
        assert stdout1 == stdout2
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_format(self, capsys, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"abcabdabcabc")
        out = tmp_path / "dist.csv"
        code, _, _ = run_cli(
            capsys, "search", "--text", str(path), "--pattern", "abd",
            "--trials", "5", "--seed", "1", "--format", "csv", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "position,probability"
        assert len(lines) == 13  # header + one row per position

    def test_kgram_option(self, capsys, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"abcabdabcabc")
        code, stdout, _ = run_cli(
            capsys, "search", "--text", str(path), "--pattern", "abd",
            "--trials", "5", "--seed", "1", "--kgram", "2",
        )
        assert code == 0

    def test_env_seed_fallback(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "t.bin"
        path.write_bytes(b"abcabdabcabc")
        monkeypatch.setenv("QPM_SEED", "42")
        out = tmp_path / "r.json"
        run_cli(capsys, "search", "--text", str(path), "--pattern", "abd",
                "--trials", "5", "--out", str(out))
        assert json.loads(out.read_text())["spec"]["seed"] == 42

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_one_classical_scan_per_command(self, capsys, tmp_path, monkeypatch, fmt):
        calls = []

        def counting(text, pattern):
            calls.append((text, pattern))
            return closest_match_classical(text, pattern)

        monkeypatch.setattr(search, "closest_match_classical", counting)
        monkeypatch.setattr(cli, "closest_match_classical", counting)
        path = tmp_path / "t.bin"
        path.write_bytes(b"abcabdabcabc")
        code, _, _ = run_cli(
            capsys, "search", "--text", str(path), "--pattern", "abd", "--trials", "5",
            "--seed", "1", "--format", fmt, "--out", str(tmp_path / "r.out"),
        )
        assert code == 0
        assert len(calls) == 1

    def test_pattern_longer_than_text(self, capsys, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"ab")
        code, _, err = run_cli(capsys, "search", "--text", str(path), "--pattern", "abc")
        assert code == 2


class TestRawByteArguments:
    # A non-UTF-8 argument byte reaches Python as a surrogate escape, as
    # "\udcff" here for byte 0xff; the command must see the byte itself.
    def test_search_pattern_matches_the_byte(self, capsys, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"ab\xffba")
        out = tmp_path / "r.json"
        code, _, err = run_cli(capsys, "search", "--text", str(path), "--pattern", "\udcff",
                               "--trials", "3", "--seed", "1", "--out", str(out))
        assert (code, err) == (0, "")
        assert json.loads(out.read_text())["classical_baseline"] == {"best_score": 1, "offsets": [2]}

    def test_baseline_pattern_matches_the_byte(self, capsys, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"a\xffb\xff")
        code, stdout, _ = run_cli(capsys, "baseline", "--text", str(path), "--pattern", "\udcffb",
                                  "--format", "json")
        assert code == 0
        assert json.loads(stdout) == {"best_score": 2, "offsets": [1]}

    def test_oracle_for_the_byte(self, capsys):
        code, stdout, err = run_cli(capsys, "synth", "oracle", "--text", "a\udcffb\udcff",
                                    "--symbol", "\udcff", "--verify")
        assert (code, err) == (0, "")
        assert "verify: PASS" in stdout


class TestSynthCommand:
    def test_transposition_verify(self, capsys, tmp_path):
        emit = tmp_path / "c.qc"
        code, stdout, _ = run_cli(
            capsys, "synth", "transposition", "--width", "2", "--a", "0", "--b", "3",
            "--verify", "--emit", str(emit),
        )
        assert code == 0
        assert "PASS" in stdout
        assert "3 gates" in stdout
        assert emit.read_text().startswith("QUBITS 2\n")

    def test_oracle_verify(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "synth", "oracle", "--text", "ab", "--symbol", "a", "--verify"
        )
        assert code == 0
        assert "PASS" in stdout

    def test_init_state_verify(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "synth", "init-state", "--s", "3", "--m", "2", "--verify"
        )
        assert code == 0
        assert "PASS" in stdout

    # The fidelity of the complex128 statevector and target, its overlap summed
    # with math.fsum: the correctly rounded sum of the products, in any order.
    # A BLAS dot of the same vectors moved its last bits with the kernel and
    # the thread count.
    @pytest.mark.parametrize("s, m", [(s, m) for s in range(1, 9) for m in range(2, 17) if s * m <= 16])
    def test_init_state_deviation_is_the_complex128_fidelity(self, capsys, s, m):
        code, stdout, _ = run_cli(capsys, "synth", "init-state", "--s", str(s), "--m", str(m), "--verify")
        out = simulate_statevector(synth_init_state_circuit(s, m), 0).real
        target = init_state_target(s, m).real
        windows = np.flatnonzero(target)
        fidelity = math.fsum((target[windows] * out[windows]).tolist()) ** 2
        assert code == 0
        assert stdout.splitlines()[2] == f"verify: PASS (max deviation {abs(1 - fidelity):.3e})"

    # The shapes whose printed deviation the one-thread BLAS dot put elsewhere.
    @pytest.mark.parametrize("s, m, deviation", [
        (6, 2, "8.882e-16"), (6, 3, "8.882e-16"), (7, 2, "8.882e-16"),
        (8, 2, "1.332e-15"), (9, 2, "1.332e-15"), (10, 2, "1.554e-15"),
    ])
    def test_init_state_deviation_pins(self, capsys, s, m, deviation):
        code, stdout, _ = run_cli(capsys, "synth", "init-state", "--s", str(s), "--m", str(m), "--verify")
        assert code == 0
        assert stdout.splitlines()[2] == f"verify: PASS (max deviation {deviation})"

    def test_init_state_output_does_not_depend_on_blas(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        printed = {(4, 5): set(), (7, 2): set()}
        for var, value in [("OPENBLAS_NUM_THREADS", "1"), ("OPENBLAS_NUM_THREADS", "2"),
                           ("OPENBLAS_CORETYPE", "Nehalem")]:
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            env[var] = value
            for s, m in printed:
                child = subprocess.run([sys.executable, "-m", "qpmatch.cli", "synth", "init-state",
                                        "--s", str(s), "--m", str(m), "--verify"],
                                       capture_output=True, env=env, check=True)
                printed[s, m].add(child.stdout)
        assert [len(outputs) for outputs in printed.values()] == [1, 1]

    @pytest.mark.parametrize("fault, deviation", [("dropped gate", "5.000e-01"), ("flipped control", "1.000e+00")])
    def test_init_state_with_a_broken_gate_fails_verification(self, capsys, monkeypatch, fault, deviation):
        def broken(s, m):
            circuit = circuits.synth_init_state_circuit(s, m)
            return _without_first_gate(circuit) if fault == "dropped gate" else _with_first_control_flipped(circuit)

        monkeypatch.setattr(cli, "synth_init_state_circuit", broken)
        code, stdout, err = run_cli(capsys, "synth", "init-state", "--s", "3", "--m", "2", "--verify")
        assert (code, err) == (2, "")
        assert stdout.splitlines()[2] == f"verify: FAIL (max deviation {deviation})"

    def test_oracle_with_a_dropped_gate_fails_verification(self, capsys, monkeypatch):
        def dropped(f, n):
            return _without_first_gate(circuits.synth_boolean_oracle(f, n))

        monkeypatch.setattr(cli, "synth_boolean_oracle", dropped)
        code, stdout, err = run_cli(capsys, "synth", "oracle", "--text", "abab", "--symbol", "a", "--verify")
        assert (code, err) == (2, "")
        assert stdout.splitlines()[1:] == [
            "gate counts: {'H': 0, 'X': 0, 'MCX': 1}, basic-gate estimate 3",
            "verify: FAIL (max deviation 1.000e+00)",
        ]

    def test_transposition_with_a_flipped_polarity_fails_verification(self, capsys, monkeypatch):
        def flipped(a, b, width):
            return _with_first_control_flipped(circuits.synth_transposition(a, b, width))

        monkeypatch.setattr(cli, "synth_transposition", flipped)
        code, stdout, err = run_cli(capsys, "synth", "transposition", "--width", "3", "--a", "0", "--b", "7",
                                    "--verify")
        assert (code, err) == (2, "")
        assert stdout.splitlines()[2] == "verify: FAIL (max deviation 1.000e+00)"

    # The check swaps a and b back on the circuit's table and asks for the identity: a circuit that
    # moves nothing, or swaps another pair, leaves a table that is not increasing.
    @pytest.mark.parametrize("wrong", [
        lambda a, b, width: circuits.parse_circuit(f"QUBITS {width}"),
        lambda a, b, width: circuits.synth_transposition(a, b ^ 1, width),
    ], ids=["identity", "another transposition"])
    def test_transposition_verify_fails_on_another_permutation(self, capsys, monkeypatch, wrong):
        monkeypatch.setattr(cli, "synth_transposition", wrong)
        code, stdout, err = run_cli(capsys, "synth", "transposition", "--width", "3", "--a", "0", "--b", "7",
                                    "--verify")
        assert (code, err) == (2, "")
        assert stdout.splitlines()[2] == "verify: FAIL (max deviation 1.000e+00)"

    def test_a_repeated_flag_takes_its_last_value(self, capsys):
        code, stdout, err = run_cli(capsys, "synth", "transposition", "--width", "4", "--a", "1", "--b", "6",
                                    "--a", "2", "--verify")
        assert (code, err) == (0, "")
        assert stdout.splitlines()[0] == "synthesized transposition 2<->6 width 4: 1 gates"
        assert stdout.splitlines()[2] == "verify: PASS (max deviation 0.000e+00)"

    def test_resource_limit_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "synth", "init-state", "--s", "8", "--m", "3", "--verify"
        )
        assert code == 3

    def test_control_entry_bound_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(circuits, "CONTROL_ENTRIES_LIMIT", 20)
        code, stdout, err = run_cli(capsys, "synth", "transposition", "--width", "4", "--a", "0", "--b", "15")
        assert code == 3 and stdout == ""
        assert err == "resource limit: transposition needs 21 control entries, beyond the limit of 20\n"

    def test_emitted_circuit_reparses(self, capsys, tmp_path):
        emit = tmp_path / "oracle.qc"
        run_cli(capsys, "synth", "oracle", "--text", "abab", "--symbol", "a",
                "--verify", "--emit", str(emit))
        from qpmatch import parse_circuit

        circuit = parse_circuit(emit.read_text())
        assert circuit.n_qubits == 3


class TestScalingReport:
    def test_table_and_fit(self, capsys, tmp_path):
        out = tmp_path / "scaling.csv"
        code, stdout, _ = run_cli(
            capsys, "scaling-report", "--n-min", "3", "--n-max", "6",
            "--seed", "0", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,x_gates,mcx_gates,basic_total,n1sq_pow2,ratio"
        totals = [int(ln.split(",")[3]) for ln in lines[1:]]
        assert totals == sorted(totals)  # monotone for growing n
        assert "fitted growth exponent" in stdout

    def test_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "scaling-report", "--n-min", "3", "--n-max", "5", "--seed", "2", "--out", str(a))
        run_cli(capsys, "scaling-report", "--n-min", "3", "--n-max", "5", "--seed", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_rows_up_to_the_top_of_the_bound(self, capsys):
        code, stdout, _ = run_cli(capsys, "scaling-report", "--n-min", "1", "--n-max", "19", "--seed", "3")
        assert code == 0
        rows = [[int(v) for v in ln.split(",")[:4]] for ln in stdout.splitlines()[1:-1]]
        assert [row[0] for row in rows] == list(range(1, 20))
        # The same seeded draws, counted from the synthesized circuits.
        rng = np.random.default_rng(3)
        for n, x_gates, mcx_gates, basic_total in rows[:12]:
            report = gate_count(synth_boolean_oracle(rng.integers(0, 2, size=2**n), n))
            assert [x_gates, mcx_gates, basic_total] == [report.counts["X"], report.counts["MCX"],
                                                         report.basic_gate_total]
        code, stdout, err = run_cli(capsys, "scaling-report", "--n-min", "1", "--n-max", "20")
        assert (code, stdout) == (3, "")
        assert err.startswith("resource limit:")


REFERENCE_NAMES = [
    (search, "init_state"), (search, "apply_query_phase"), (search, "apply_diffusion"),
    (search, "measure_first_register"), (search, "grover_step"), (search, "_evolve"), (search, "run_once"),
    (simulation, "embed_full"), (simulation, "full_apply_query"), (simulation, "full_apply_diffusion"),
    (cli, "simulate_statevector"), (cli, "init_state_target"),
]

SEARCH = ["search", "--text", "{text}", "--pattern", "abd", "--trials", "5", "--seed", "1"]
PRODUCT_COMMANDS = {
    "search-json": [*SEARCH, "--format", "json"],
    "search-csv": [*SEARCH, "--format", "csv"],
    "search-kgram": [*SEARCH, "--kgram", "2"],
    "search-fixed-r": [*SEARCH, "--r", "fixed:5"],
    "baseline": ["baseline", "--text", "{text}", "--pattern", "abd"],
    "index": ["index", "--text", "{text}", "--out", "{out}"],
    "synth-transposition": ["synth", "transposition", "--width", "2", "--a", "0", "--b", "3", "--verify"],
    "synth-oracle": ["synth", "oracle", "--text", "abab", "--symbol", "a", "--verify"],
    "synth-init-state": ["synth", "init-state", "--s", "3", "--m", "2", "--verify"],
    "scaling-report": ["scaling-report", "--n-min", "3", "--n-max", "5", "--seed", "0"],
}


class TestReferenceSimulatorsOffTheCommands:
    """The structured and N^M simulators and the dense statevector are test oracles: no command reaches them."""

    @pytest.mark.parametrize("command", list(PRODUCT_COMMANDS))
    def test_command_runs_without_them(self, capsys, tmp_path, monkeypatch, command):
        def refuse(*args, **kwargs):
            raise AssertionError("a command reached the reference simulator")

        for owner, name in REFERENCE_NAMES:
            monkeypatch.setattr(owner, name, refuse)
        path = tmp_path / "t.bin"
        path.write_bytes(b"abcabdabcabc")
        argv = [arg.format(text=path, out=tmp_path / "out") for arg in PRODUCT_COMMANDS[command]]
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")


class TestConsecutiveCalls:
    def test_no_option_leaks_into_the_next_call(self, capsys, tmp_path, monkeypatch):
        transposition = ["synth", "transposition", "--width", "2", "--a", "0", "--b", "3"]
        code, out, _ = run_cli(capsys, *transposition, "--verify")
        assert code == 0 and "verify: PASS" in out
        code, out, _ = run_cli(capsys, *transposition)
        assert code == 0 and "verify" not in out

        path = tmp_path / "t.bin"
        path.write_bytes(b"abcabdabcabc")
        search = ["search", "--text", str(path), "--pattern", "abd", "--trials", "3"]
        seeded, unseeded = tmp_path / "seeded.json", tmp_path / "unseeded.json"
        assert run_cli(capsys, *search, "--seed", "5", "--out", str(seeded))[0] == 0
        monkeypatch.setenv("QPM_SEED", "7")
        assert run_cli(capsys, *search, "--out", str(unseeded))[0] == 0
        assert json.loads(seeded.read_text())["spec"]["seed"] == 5
        assert json.loads(unseeded.read_text())["spec"]["seed"] == 7


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run_cli(capsys, "search")[0] == 1

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1

    def test_bad_r_mode(self, capsys, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"abab")
        code, _, _ = run_cli(capsys, "search", "--text", str(path), "--pattern", "ab",
                             "--trials", "2", "--r", "sometimes")
        assert code == 1

    def _assert_one_line_error(self, code, err, expected_code):
        assert code == expected_code
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(("text", "pattern", "expected"), [
        (b"abab", ["--pattern", ""], "error: empty pattern\n"),
        (b"abab", ["--pattern-file", "empty.bin"], "error: empty pattern\n"),
        (b"", ["--pattern", "ab"], "error: empty text\n"),
    ], ids=["pattern", "pattern-file", "text"])
    @pytest.mark.parametrize("command", ["baseline", "search"])
    def test_empty_inputs(self, capsys, tmp_path, monkeypatch, command, text, pattern, expected):
        monkeypatch.chdir(tmp_path)
        Path("t.bin").write_bytes(text)
        Path("empty.bin").write_bytes(b"")
        code, out, err = run_cli(capsys, command, "--text", "t.bin", *pattern)
        assert (code, out, err) == (2, "", expected)

    def test_fixed_r_not_an_integer(self, capsys, tmp_path):
        # Only canonical ASCII decimal k: int() reads most of these, under a label they were not given.
        path = tmp_path / "t.bin"
        path.write_bytes(b"abab")
        for r in ["fixed:abc", "fixed: 3", "fixed:+2", "fixed:1_0", "fixed:\u0663", "fixed:-3", "fixed:03"]:
            code, _, err = run_cli(capsys, "search", "--text", str(path), "--pattern", "ab",
                                   "--trials", "2", "--r", r)
            self._assert_one_line_error(code, err, 1)
            assert err.startswith("usage error: invalid --r value")

    def test_env_seed_not_an_integer(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "t.bin"
        path.write_bytes(b"abab")
        monkeypatch.setenv("QPM_SEED", "x")
        code, _, err = run_cli(capsys, "search", "--text", str(path), "--pattern", "ab",
                               "--trials", "2")
        self._assert_one_line_error(code, err, 1)
        assert "QPM_SEED" in err

    def test_oracle_symbol_not_one_character(self, capsys):
        code, _, err = run_cli(capsys, "synth", "oracle", "--text", "abab", "--symbol", "ab")
        self._assert_one_line_error(code, err, 1)

    def test_oracle_symbol_not_one_byte(self, capsys):
        # 'é' is one character but two UTF-8 bytes, and the text is matched by byte.
        code, out, err = run_cli(capsys, "synth", "oracle", "--text", "café", "--symbol", "é",
                                 "--verify")
        self._assert_one_line_error(code, err, 1)
        assert out == ""

    def test_permutation_check_bounded_before_allocation(self, capsys):
        code, _, err = run_cli(capsys, "synth", "transposition", "--width", "21",
                               "--a", "0", "--b", "1", "--verify")
        self._assert_one_line_error(code, err, 3)
        assert err.startswith("resource limit:")

    def test_scaling_report_bounded_before_the_table(self, capsys):
        code, out, err = run_cli(capsys, "scaling-report", "--n-min", "25", "--n-max", "26")
        self._assert_one_line_error(code, err, 3)
        assert err.startswith("resource limit:")
        assert out == ""

    @pytest.mark.parametrize("n_min", [0, -2])
    def test_scaling_report_needs_a_data_bit(self, capsys, n_min):
        code, out, err = run_cli(capsys, "scaling-report", "--n-min", str(n_min), "--n-max", "3")
        self._assert_one_line_error(code, err, 2)
        assert out == ""

    @pytest.mark.parametrize("n_min, n_max", [(5, 3), (3, 3)])
    def test_scaling_report_needs_two_rows(self, capsys, n_min, n_max):
        code, out, err = run_cli(capsys, "scaling-report", "--n-min", str(n_min),
                                 "--n-max", str(n_max))
        self._assert_one_line_error(code, err, 1)
        assert out == ""

    def test_text_is_a_directory(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "search", "--text", str(tmp_path), "--pattern", "ab",
                               "--trials", "2")
        self._assert_one_line_error(code, err, 2)

    @pytest.mark.parametrize("argv, env_seed", [
        (["search", "--text", "{text}", "--pattern", "ab", "--trials", "2", "--seed", "-1"], None),
        (["search", "--text", "{text}", "--pattern", "ab", "--trials", "2"], "-3"),
        (["scaling-report", "--n-min", "3", "--n-max", "4", "--seed", "-1"], None),
    ], ids=["search --seed", "QPM_SEED", "scaling-report --seed"])
    def test_negative_seed(self, capsys, text_file, monkeypatch, argv, env_seed):
        if env_seed is not None:
            monkeypatch.setenv("QPM_SEED", env_seed)
        code, out, err = run_cli(capsys, *(arg.format(text=text_file) for arg in argv))
        self._assert_one_line_error(code, err, 1)
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["search", "--text", "{text}", "--pattern", "ab", "--trials", "2", "--out", "{bad}"],
        ["index", "--text", "{text}", "--out", "{bad}"],
        ["baseline", "--text", "{bad}", "--pattern", "ab"],
        ["scaling-report", "--n-min", "3", "--n-max", "4", "--out", "{bad}"],
        ["synth", "transposition", "--width", "2", "--a", "0", "--b", "1", "--emit", "{bad}"],
    ], ids=lambda argv: argv[0])
    def test_path_under_a_regular_file(self, capsys, text_file, argv):
        # open() raises NotADirectoryError, an OSError like a missing file.
        bad = f"{text_file}/x"
        code, _, err = run_cli(capsys, *(arg.format(text=text_file, bad=bad) for arg in argv))
        self._assert_one_line_error(code, err, 2)
        assert "Not a directory" in err

    def test_fixed_r_bounded_before_drawing(self, capsys, text_file):
        # One schedule of 10^11 steps would take 745 GiB of picks alone.
        import tracemalloc

        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "search", "--text", text_file, "--pattern", "ab",
                                     "--trials", "2", "--r", "fixed:99999999999")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        self._assert_one_line_error(code, err, 3)
        assert err.startswith("resource limit:")
        assert out == ""
        assert peak < 32 * 2**20

    def test_search_state_bounded_before_allocation(self, capsys, tmp_path):
        # N = 40000, M = 2: the state would take 8*N*K = 12.8 GB.
        import tracemalloc

        path = tmp_path / "big.bin"
        rng = np.random.default_rng(0)
        path.write_bytes(rng.integers(97, 101, size=40_000, dtype=np.uint8).tobytes())
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, "search", "--text", str(path), "--pattern", "ab",
                                   "--trials", "2")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        self._assert_one_line_error(code, err, 3)
        assert err.startswith("resource limit:")
        assert peak < 32 * 2**20


# --- the exit contract of index, baseline and search over drawn arguments ---

R_VALUES = ["random", *(f"fixed:{k}" for k in range(7)), "fixed:-3", "fixed:03", "fixed:" + "9" * 25]


@st.composite
def cli_calls(draw):
    """A drawn command, its text file's kind and bytes, and its other arguments (None: flag left out)."""
    call = {"command": draw(st.sampled_from(["search", "search", "search", "index", "baseline"]))}
    call["text"] = draw(st.sampled_from(["bytes", "bytes", "bytes", "empty", "directory", "missing"]))
    call["data"] = draw(st.binary(min_size=1, max_size=64)) if call["text"] == "bytes" else b""
    if call["command"] == "index":
        call["out"] = draw(st.sampled_from(["file", "directory"]))  # --out is required
        return call
    # A pattern is raw bytes, non-UTF-8 ones included, passed the way the OS decodes argv.
    pattern = draw(st.sampled_from([b"", call["data"] + b"x"]) | st.binary(min_size=1, max_size=8))
    call["pattern"] = os.fsdecode(pattern)
    formats = ["text", "json"] if call["command"] == "baseline" else ["json", "csv"]
    call["format"] = draw(st.sampled_from(formats * 2 + ["csv" if call["command"] == "baseline" else "text"]))
    if call["command"] == "search":
        # A valid --trials above 8 is left out: a huge one is accepted and runs for an
        # unbounded time, which the exit contract does not cover.
        call["trials"] = draw(st.sampled_from([*range(1, 9), 0, -1]))
        call["seed"] = draw(st.sampled_from([0, 2**64, -1]))
        call["r"] = draw(st.sampled_from(R_VALUES))
        call["kgram"] = draw(st.sampled_from([None, 2, 3]))
        call["out"] = draw(st.sampled_from([None, "file", None, "file", "directory"]))
    return call


def _argv(call, tmp):
    """The command line of a drawn call, its text file written under ``tmp``; also the output file path."""
    text = {"directory": tmp, "missing": os.path.join(tmp, "missing")}.get(call["text"], os.path.join(tmp, "text"))
    if call["text"] in ("bytes", "empty"):
        with open(text, "wb") as fh:
            fh.write(call["data"])
    out = {"file": os.path.join(tmp, "out"), "directory": tmp, None: None}[call.get("out")]
    argv = [call["command"], "--text", text]
    if call["command"] != "index":
        argv += ["--pattern", call["pattern"], "--format", call["format"]]
    if call["command"] == "search":
        argv += ["--trials", str(call["trials"]), "--seed", str(call["seed"]), "--r", call["r"]]
        argv += ["--kgram", str(call["kgram"])] if call["kgram"] else []
    if out is not None:
        argv += ["--out", out]
    return argv, out if call.get("out") == "file" else None


def _run_in_process(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


# The flags each command cannot run without (--pattern stands for its group with --pattern-file).
REQUIRED = {"index": ("--text", "--out"), "baseline": ("--text", "--pattern"), "search": ("--text", "--pattern"),
            "transposition": ("--width", "--a", "--b"), "oracle": ("--text", "--symbol"), "init-state": ("--s", "--m"),
            "scaling-report": ()}
# A value every command parses for each flag, given to an earlier occurrence of it; paths go under "earlier".
EARLIER = {"--format": "json", "--kgram": "2", "--r": "random", "--pattern": "zz", "--symbol": "z"}
PATHS = ("--text", "--out", "--emit")

# No edit, most of the time; else leave out a required flag or give a flag twice, the pick-th one.
edits = st.tuples(st.sampled_from([None, None, None, None, "drop", "repeat"]), st.integers(0, 7))


def _flag_positions(argv):
    """The index of each flag in a drawn ``argv``; every flag but --verify takes one value."""
    positions = []
    i = next((i for i, arg in enumerate(argv) if arg.startswith("--")), len(argv))
    while i < len(argv):
        positions.append(i)
        i += 1 if argv[i] == "--verify" else 2
    return positions


def _assert_exit_contract(argv, out_file, edit=(None, 0), tmp=None):
    """Exit 0-3; a failure writes one stderr line and no traceback; a success replays byte for byte.

    ``edit`` leaves out a required flag, a usage error, or gives a flag an earlier occurrence, which
    changes no output byte: argparse keeps a flag's last value.
    """
    kind, pick = edit
    flags = [i for i in _flag_positions(argv) if argv[i] != "--verify"]
    required = [i for i in flags if argv[i] in REQUIRED[argv[1] if argv[0] == "synth" else argv[0]]]
    if kind == "drop" and required:
        i = required[pick % len(required)]
        code, out, err = _run_in_process(argv[:i] + argv[i + 2:])
        assert (code, out) == (1, "") and err.startswith("usage error: ") and err.count("\n") == 1
        return
    code, out, err = _run_in_process(argv)
    assert code in (0, 1, 2, 3)
    if kind == "repeat":
        flag = argv[flags[pick % len(flags)]]
        earlier = os.path.join(tmp, "earlier") if flag in PATHS else EARLIER.get(flag, "3")
        written = Path(out_file).read_bytes() if out_file and code == 0 else None
        assert _run_in_process(argv[:flags[0]] + [flag, earlier] + argv[flags[0]:]) == (code, out, err)
        assert (Path(out_file).read_bytes() if written is not None else None) == written
        assert not os.path.exists(os.path.join(tmp, "earlier"))
    if code:
        assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
        return
    written = Path(out_file).read_bytes() if out_file else None
    assert _run_in_process(argv) == (code, out, err)
    assert (Path(out_file).read_bytes() if out_file else None) == written


@settings(derandomize=True, deadline=None, max_examples=250, database=None)
@given(cli_calls(), edits)
def test_exit_contract_over_drawn_arguments(call, edit):
    # A temporary directory per example: a function-scoped fixture is shared by all examples.
    with tempfile.TemporaryDirectory() as tmp:
        _assert_exit_contract(*_argv(call, tmp), edit, tmp)


# --- the same contract for synth and scaling-report ---

def _mostly_valid(valid, invalid):
    """Half the draws from ``valid`` alone, half from every value."""
    return st.sampled_from(valid) | st.sampled_from(valid + invalid)


@st.composite
def synth_calls(draw):
    """A drawn synth or scaling-report command line and the kind of its --emit or --out target."""
    what = draw(st.sampled_from(["transposition", "oracle", "init-state", "scaling-report"]))
    if what == "transposition":
        width = draw(_mostly_valid([1, 2, 3, 4, 5, 6], [-1, 0, 21, 3000]))
        ends = [-1, 0, 1, 7, 2**63]
        a, b = draw(_mostly_valid([(0, 1), (1, 7), (7, 0)], [(a, b) for a in ends for b in ends]))
        argv = ["synth", what, "--width", width, "--a", a, "--b", b]
    elif what == "oracle":
        # A symbol is one byte, a two-byte character, a non-UTF-8 byte as the OS decodes it, or empty.
        symbol = draw(_mostly_valid(["a", os.fsdecode(b"\xff")], ["\u00e9", ""]))
        text = draw(st.lists(st.sampled_from(["a", "b", "\u00e9", os.fsdecode(b"\xff")]) | st.characters(), max_size=40))
        argv = ["synth", what, "--text", "".join(text), "--symbol", symbol]
    elif what == "init-state":
        s, m = draw(_mostly_valid([1, 2, 3, 10], [-1, 0, 11])), draw(_mostly_valid([2, 3], [-1, 1, 10**9]))
        argv = ["synth", what, "--s", s, "--m", m]
    else:
        n_min, n_max = draw(_mostly_valid([1, 2], [-1, 0, 5, 20])), draw(_mostly_valid([2, 5], [-1, 0, 1, 20]))
        seed = draw(_mostly_valid([None, 0, 2**64], [-1]))
        argv = [what, "--n-min", n_min, "--n-max", n_max] + ([] if seed is None else ["--seed", seed])
    if what != "scaling-report" and draw(st.booleans()):
        argv.append("--verify")
    return [str(arg) for arg in argv], draw(st.sampled_from([None, "file", "directory"]))


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(synth_calls(), edits)
def test_exit_contract_of_synth_and_scaling_report_over_drawn_arguments(case, edit):
    argv, target = case
    with tempfile.TemporaryDirectory() as tmp:
        out = {"file": os.path.join(tmp, "out"), "directory": tmp, None: None}[target]
        if out is not None:
            argv = argv + ["--out" if argv[0] == "scaling-report" else "--emit", out]
        _assert_exit_contract(argv, out if target == "file" else None, edit, tmp)
