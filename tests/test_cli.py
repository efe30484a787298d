import json

import numpy as np
import pytest

from qpmatch import (
    OracleIndex,
    Text,
    build_index,
    gate_count,
    init_state_target,
    simulate_statevector,
    synth_boolean_oracle,
    synth_init_state_circuit,
)
from qpmatch.cli import main


@pytest.fixture
def text_file(tmp_path):
    path = tmp_path / "text.bin"
    path.write_bytes(b"abab")
    return str(path)


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
        for sym, ind in direct.indicators.items():
            assert (reloaded.indicators[sym].bits == ind.bits).all()

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

    # A float64 dot of the same state and target sums in another order: with
    # OpenBLAS on an AVX-512 CPU it moved the last bits for s = 6 to 10 with M = 2.
    @pytest.mark.parametrize("s, m", [(s, m) for s in range(1, 9) for m in range(2, 17) if s * m <= 16])
    def test_init_state_deviation_is_the_complex128_fidelity(self, capsys, s, m):
        code, stdout, _ = run_cli(capsys, "synth", "init-state", "--s", str(s), "--m", str(m), "--verify")
        out = simulate_statevector(synth_init_state_circuit(s, m), 0)
        fidelity = abs(np.vdot(init_state_target(s, m), out)) ** 2
        assert code == 0
        assert stdout.splitlines()[2] == f"verify: PASS (max deviation {float(abs(1 - fidelity)):.3e})"

    def test_resource_limit_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "synth", "init-state", "--s", "8", "--m", "3", "--verify"
        )
        assert code == 3

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

    def test_fixed_r_not_an_integer(self, capsys, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"abab")
        code, _, err = run_cli(capsys, "search", "--text", str(path), "--pattern", "ab",
                               "--trials", "2", "--r", "fixed:abc")
        self._assert_one_line_error(code, err, 1)

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
