import numpy as np
import pytest

from qpmatch import (
    Circuit,
    DomainError,
    ResourceError,
    emit_circuit,
    expand_mcx,
    gate_count,
    gray_code,
    init_state_fidelity,
    init_state_target,
    lift_boolean,
    parse_circuit,
    permutation_action,
    permutation_to_transpositions,
    simulate_statevector,
    simulate_unitary,
    synth_boolean_oracle,
    synth_init_state_circuit,
    synth_permutation,
    synth_phase_oracle,
    synth_transposition,
)
from qpmatch import circuits
from qpmatch.circuits import apply_transpositions
from qpmatch.cli import main


def transposition_matrix(a, b, dim):
    mat = np.eye(dim)
    mat[[a, b]] = mat[[b, a]]
    return mat


def qc(n, *lines):
    """The circuit on ``n`` qubits of gate ``lines`` in the text format."""
    return parse_circuit("\n".join([f"QUBITS {n}", *lines]))


def mcx_line(target, controls):
    """The text-format line of an MCX on ``target`` with (qubit, positive) ``controls``."""
    return " ".join(["MCX", *(f"{'+' if positive else '-'}q{q}" for q, positive in controls), f"-> q{target}"])


def gate_arrays(kind, target, controls=()):
    """The five arrays of a one-gate circuit: its kind code (H 0, X 1, MCX 2), target and (qubit, positive) controls."""
    return (np.array([kind], dtype=np.uint8), np.array([target], dtype=np.int64),
            np.array([q for q, _ in controls], dtype=np.int64), np.array([p for _, p in controls], dtype=bool),
            np.array([0, len(controls)], dtype=np.int64))


def with_array(arrays, i, value):
    """``arrays`` with array i replaced by ``value``."""
    return (*arrays[:i], value, *arrays[i + 1:])


class TestGrayCode:
    def test_msb_first(self):
        assert gray_code(0b000, 0b111, 3) == (0b000, 0b100, 0b110, 0b111)

    def test_adjacent_words(self):
        assert gray_code(0b0100, 0b0110, 4) == (0b0100, 0b0110)

    def test_properties_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            width = int(rng.integers(1, 11))
            a, b = rng.choice(2**width, size=2, replace=False)
            words = gray_code(int(a), int(b), width)
            assert words[0] == a and words[-1] == b
            assert len(words) - 1 == bin(a ^ b).count("1") <= width
            for u, v in zip(words, words[1:]):
                assert bin(u ^ v).count("1") == 1

    def test_equal_endpoints_rejected(self):
        with pytest.raises(DomainError):
            gray_code(3, 3, 2)

    @pytest.mark.parametrize("width", [2.0, -1, True])
    def test_width_must_be_a_count(self, width):
        with pytest.raises(DomainError, match="width must be an integer >= 0"):
            gray_code(0, 3, width)
        with pytest.raises(DomainError, match="width must be an integer >= 0"):
            synth_transposition(0, 3, width)


class TestLiftBoolean:
    def test_constant_zero_is_identity(self):
        assert np.array_equal(lift_boolean([0, 0], 1), (0, 1, 2, 3))

    def test_identity_function(self):
        # n=1, f(x)=x: swaps (b=0,x=1) <-> (b=1,x=1)
        assert np.array_equal(lift_boolean([0, 1], 1), (0, 3, 2, 1))

    def test_involution(self):
        rng = np.random.default_rng(1)
        for n in range(1, 7):
            f = rng.integers(0, 2, size=2**n)
            p = lift_boolean(f, n)
            assert all(p[p[x]] == x for x in range(2 ** (n + 1)))

    def test_value_stored_in_top_bit(self):
        f = [1, 0, 1, 1]
        p = lift_boolean(f, 2)
        for x in range(4):
            assert p[x] == (f[x] << 2) | x

    def test_rejects_values_that_are_not_bits(self):
        with pytest.raises(DomainError, match="bits"):
            lift_boolean([0.7, 1.2], 1)

    def test_rejects_table_shorter_than_two_to_the_n(self):
        with pytest.raises(DomainError, match="entries"):
            lift_boolean([1], 2)


class TestPermutation:
    """A permutation is its image table, checked where a table from outside enters."""

    # Floats and bools are refused, not truncated: (1.5, 0.2) and (True, False) are not the swap (1 0).
    @pytest.mark.parametrize("images", [(0, 0), (1, 2), (-1, 0), ((0, 1),), 3, (1.5, 0.2), (True, False),
                                        np.array([1.0, 0.0]), (0, 2**64)])
    def test_rejects_tables_that_are_not_bijections(self, images):
        with pytest.raises(DomainError, match="image table is not a bijection"):
            permutation_to_transpositions(images)
        with pytest.raises(DomainError, match="image table is not a bijection"):
            synth_permutation(images, 1)

    @pytest.mark.parametrize("images", [(1, 0), np.array([1, 0], dtype=np.uint8), np.array([1, 0], dtype=np.uint64)])
    def test_accepts_tables_of_any_integer_dtype(self, images):
        assert permutation_to_transpositions(images) == [(0, 1)]
        assert synth_permutation(images, 1) == qc(1, "X q0")

    def test_builders_return_fresh_writable_int64_tables(self):
        circuit = synth_transposition(0, 3, 2)
        tables = (lift_boolean([0, 1], 1), apply_transpositions([(0, 3)], 4), permutation_action(circuit))
        for table in tables:
            assert type(table) is np.ndarray and table.dtype == np.int64 and table.flags.writeable
        assert permutation_action(circuit) is not permutation_action(circuit)


class TestPermutationToTranspositions:
    def test_identity_empty(self):
        assert permutation_to_transpositions(tuple(range(8))) == []

    def test_single_swap(self):
        ts = permutation_to_transpositions((3, 1, 2, 0))
        assert ts == [(0, 3)]

    def test_recomposition_random(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            w = int(rng.integers(1, 9))
            images = tuple(int(v) for v in rng.permutation(2**w))
            ts = permutation_to_transpositions(images)
            assert len(ts) <= 2**w - 1
            assert np.array_equal(apply_transpositions(ts, 2**w), images)

    @pytest.mark.parametrize("t", [(1, 9), (4, 0)])
    def test_apply_rejects_endpoints_outside_the_table(self, t):
        with pytest.raises(DomainError, match="out of range"):
            apply_transpositions([(0, 1), t], 4)

    @pytest.mark.parametrize("a", [-1, True, 1.5, np.float64(1.0), "1"])
    def test_endpoints_must_be_counts(self, a):
        # A pair is checked where it enters: synth_transposition, or apply_transpositions.
        for pair in ((a, 2), (2, a)):
            with pytest.raises(DomainError, match="endpoints must be integers >= 0"):
                synth_transposition(*pair, 3)
            with pytest.raises(DomainError, match="endpoints must be integers >= 0"):
                apply_transpositions([pair], 4)

    def test_endpoints_must_differ(self):
        with pytest.raises(DomainError, match="transposition endpoints must differ"):
            synth_transposition(2, 2, 3)
        with pytest.raises(DomainError, match="transposition endpoints must differ"):
            apply_transpositions([(0, 1), (2, 2)], 4)

    def test_numpy_integer_endpoints_are_counts(self):
        assert apply_transpositions([(np.int64(1), np.uint8(2))], 4).tolist() == [0, 2, 1, 3]
        assert synth_transposition(np.int64(1), np.uint8(2), 2) == synth_transposition(1, 2, 2)


class TestSynthTransposition:
    def test_width_one_is_single_x(self):
        assert synth_transposition(0, 1, 1) == qc(1, "X q0")

    def test_distance_two(self):
        circuit = synth_transposition(0b00, 0b11, 2)
        assert len(circuit.kinds) == 3
        assert np.array_equal(simulate_unitary(circuit).real, transposition_matrix(0, 3, 4))

    def test_random_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            width = int(rng.integers(1, 9))
            a, b = (int(v) for v in rng.choice(2**width, size=2, replace=False))
            circuit = synth_transposition(a, b, width)
            k = bin(a ^ b).count("1")
            assert len(circuit.kinds) == 2 * k - 1
            action = permutation_action(circuit)
            expected = list(range(2**width))
            expected[a], expected[b] = b, a
            assert np.array_equal(action, tuple(expected))


class TestBooleanOracle:
    def test_constant_zero_empty(self):
        assert synth_boolean_oracle([0] * 8, 3) == qc(4)

    def test_identity_function_is_controlled_x(self):
        circuit = synth_boolean_oracle([0, 1], 1)
        assert np.array_equal(permutation_action(circuit), (0, 3, 2, 1))

    def test_text_indicator(self):
        # f = indicator of 'a' in "abab" over 2 data bits
        f = [1, 0, 1, 0]
        circuit = synth_boolean_oracle(f, 2)
        assert np.array_equal(permutation_action(circuit), lift_boolean(f, 2))

    def test_random_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            f = rng.integers(0, 2, size=2**n)
            circuit = synth_boolean_oracle(f, n)
            assert np.array_equal(permutation_action(circuit), lift_boolean(f, n))


class TestPhaseOracle:
    def data_action(self, circuit, n):
        """Action on |0>|x> inputs; asserts the ancilla returns to |0>."""
        diag = np.zeros(2**n, dtype=complex)
        for x in range(2**n):
            out = simulate_statevector(circuit, x)
            assert np.linalg.norm(out[2**n :]) < 1e-10  # ancilla stays |0>
            nz = np.flatnonzero(np.abs(out) > 1e-10)
            assert nz.tolist() == [x]
            diag[x] = out[x]
        return diag

    def test_constant_zero_identity(self):
        diag = self.data_action(synth_phase_oracle([0, 0], 1), 1)
        assert np.allclose(diag, 1)

    def test_constant_one_global_phase(self):
        diag = self.data_action(synth_phase_oracle([1, 1], 1), 1)
        assert np.allclose(diag, -1)

    def test_random_diagonal(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            f = rng.integers(0, 2, size=2**n)
            diag = self.data_action(synth_phase_oracle(f, n), n)
            expected = 1.0 - 2.0 * f
            # equal up to a global phase
            ref = diag[0] / expected[0]
            assert abs(abs(ref) - 1) < 1e-10
            assert np.allclose(diag, ref * expected, atol=1e-10)


class TestInitStateCircuit:
    def test_s1_m2(self):
        out = simulate_statevector(synth_init_state_circuit(1, 2))
        expected = np.zeros(4, dtype=complex)
        expected[0b01] = expected[0b10] = 1 / np.sqrt(2)
        assert np.allclose(out, expected, atol=1e-12)

    def test_s3_m2(self):
        out = simulate_statevector(synth_init_state_circuit(3, 2))
        expected = np.zeros(64, dtype=complex)
        for k in range(8):
            expected[(k << 3) | ((k + 1) % 8)] = 1 / np.sqrt(8)
        assert np.allclose(out, expected, atol=1e-10)

    def test_s2_m3_matches_consecutive_windows(self):
        s, m = 2, 3
        out = simulate_statevector(synth_init_state_circuit(s, m))
        target = init_state_target(s, m)
        assert np.allclose(out, target, atol=1e-10)
        # Non-wrapping components are exactly the consecutive windows of a
        # uniform window superposition; wraparound only for k > 2^s - m.
        for k in range(2**s):
            idx = 0
            for t in range(m):
                idx = (idx << s) | ((k + t) % 2**s)
            assert abs(target[idx]) == pytest.approx(0.5)
            wraps = k + m - 1 >= 2**s
            consecutive = [(idx >> (s * (m - 1 - t))) & (2**s - 1) for t in range(m)]
            assert (consecutive != [k + t for t in range(m)]) == wraps

    def test_rejects_bad_sizes(self):
        with pytest.raises(DomainError):
            synth_init_state_circuit(0, 2)
        with pytest.raises(DomainError):
            synth_init_state_circuit(2, 1)

    @pytest.mark.parametrize("s, m", [(2.5, 2), (2, 2.0), (True, 2), (2, "3")])
    def test_rejects_sizes_that_are_not_integers(self, s, m):
        with pytest.raises(DomainError, match="require s >= 1 and M >= 2"):
            synth_init_state_circuit(s, m)


class TestInitStateFidelity:
    @pytest.mark.parametrize("s, m", [(s, m) for s in range(1, 9) for m in range(2, 17) if s * m <= 16])
    def test_agrees_with_the_dense_overlap(self, s, m):
        circuit = synth_init_state_circuit(s, m)
        dense = abs(np.vdot(init_state_target(s, m), simulate_statevector(circuit, 0))) ** 2
        assert abs(init_state_fidelity(circuit, s, m) - dense) <= 1e-15

    def test_limit_checked_before_any_gate_runs(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a gate ran")

        monkeypatch.setattr(circuits, "_apply_gates_sparse", refuse)
        with pytest.raises(ResourceError, match="21 qubits exceeds the statevector limit of 20"):
            init_state_fidelity(synth_init_state_circuit(7, 3), 7, 3)

    def test_windows_off_the_support_count_as_zero(self):
        # |0...0> holds no window: register 2 of window k is k + 1.
        assert init_state_fidelity(qc(6), 3, 2) == 0.0

    def test_support_off_the_windows_is_ignored(self):
        # The uniform state on 2 qubits holds the windows (0, 1) and (1, 0) at 1/2 each,
        # and (0, 0) and (1, 1) off them: overlap 2^(-1/2) * (1/2 + 1/2).
        assert init_state_fidelity(qc(2, "H q0", "H q1"), 1, 2) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("s, m", [(2, 3), (0, 9), (1.5, 6), (True, 9)])
    def test_rejects_a_shape_that_is_not_the_width(self, s, m):
        with pytest.raises(DomainError, match="require s >= 1 and s\\*M = 9 qubits"):
            init_state_fidelity(qc(9), s, m)


class TestDenseSimulation:
    def test_empty_circuit_identity(self):
        assert np.array_equal(simulate_unitary(qc(3)), np.eye(8))

    def test_single_x(self):
        mat = simulate_unitary(qc(1, "X q0"))
        assert np.array_equal(mat.real, [[0, 1], [1, 0]])

    def test_mirror_gives_identity(self):
        lines = ("H q0", "X q2", "MCX +q0 -q2 -> q1", "H q1")
        circuit = qc(3, *lines, *reversed(lines))
        assert np.allclose(simulate_unitary(circuit), np.eye(8), atol=1e-12)

    def test_statevector_limit(self):
        with pytest.raises(ResourceError):
            simulate_statevector(qc(21))

    @pytest.mark.parametrize("basis_input", [True, False, 0.5, 1.0, -1, 2, np.int64(2), "1", None])
    def test_basis_input_is_an_integer_in_range(self, basis_input):
        with pytest.raises(DomainError, match="basis input out of range"):
            simulate_statevector(qc(1), basis_input)

    def test_basis_input_may_be_a_numpy_integer(self):
        assert np.array_equal(simulate_statevector(qc(1), np.int64(1)), [0, 1])

    def test_unitary_limit(self):
        with pytest.raises(ResourceError):
            simulate_unitary(qc(13))

    def test_permutation_action_rejects_hadamard(self):
        with pytest.raises(DomainError):
            permutation_action(qc(1, "H q0"))

    def test_negative_controls(self):
        assert np.array_equal(permutation_action(qc(2, "MCX -q0 -> q1")), (1, 0, 2, 3))

    def test_mcx_controlled_by_every_other_qubit(self):
        # Fixing all five qubits leaves one amplitude on each side of the gate
        # (for the unitary, one row of 32 columns per side).
        circuit = qc(5, "MCX +q0 -q1 +q3 -q4 -> q2")
        low, high = 0b10010, 0b10110
        images = list(range(32))
        images[low], images[high] = high, low
        for x in range(32):
            expected = np.zeros(32, dtype=np.complex128)
            expected[images[x]] = 1
            assert np.array_equal(simulate_statevector(circuit, x), expected)
        assert np.array_equal(simulate_unitary(circuit), np.eye(32)[:, images])

    def test_permutation_action_at_qubit_limit(self):
        t1, t2 = (3, 2**20 - 5), (2**19 + 7, 12345)
        # t1's ladder comes first and acts first, so t1 is the last factor of the operator product.
        expected = apply_transpositions([t2, t1], 2**20)
        assert np.array_equal(permutation_action(circuits._ladders([t1, t2], 20)), expected)


def full_sweep_from_basis_state(circuit, basis_input):
    """The dense kernel's full sweep over all 2^n amplitudes, from one basis state."""
    n = circuit.n_qubits
    state = np.zeros(2**n)
    state[basis_input] = 1.0
    circuits._apply_gates(state, circuit)
    return state.astype(np.complex128)


class TestBasisTracking:
    """``simulate_statevector`` follows the basis state's support and skips every +0 amplitude."""

    @staticmethod
    def statevector(circuit, basis_input):
        out = simulate_statevector(circuit, basis_input)
        column = np.ascontiguousarray(simulate_unitary(circuit)[:, basis_input])
        assert out.tobytes() == column.tobytes()
        return out

    @staticmethod
    def expected(n, amplitudes):
        vec = np.zeros(2**n, dtype=np.complex128)
        for index, amplitude in amplitudes.items():
            vec[index] = amplitude
        return vec

    def test_tracked_control_of_wrong_polarity_skips_the_gate(self):
        # From |100>, -q0 does not fire, so q1 stays 0 and the X lands on |101>.
        circuit = qc(3, "MCX -q0 -> q1", "X q2")
        assert np.array_equal(self.statevector(circuit, 0b100), self.expected(3, {0b101: 1}))

    def test_all_tracked_controls_flip_the_target_bit(self):
        circuit = qc(3, "X q0", "MCX +q0 -q2 -> q1", "MCX +q1 -> q2")
        assert np.array_equal(self.statevector(circuit, 0), self.expected(3, {0b111: 1}))

    def test_hadamard_untracks_its_target(self):
        circuit = qc(2, "H q0", "MCX +q0 -> q1")
        half = 1 / np.sqrt(2)
        assert np.array_equal(self.statevector(circuit, 0), self.expected(2, {0b00: half, 0b11: half}))

    def test_untracked_control_untracks_the_target(self):
        half = 1 / np.sqrt(2)
        circuit = qc(3, "H q0", "MCX +q0 -> q1", "MCX +q1 -> q2")
        assert np.array_equal(self.statevector(circuit, 0), self.expected(3, {0b000: half, 0b111: half}))

    def test_cnot_fan_out_keeps_the_support_size(self):
        circuit = qc(3, "H q0", "MCX +q0 -> q1", "MCX +q0 -> q2")
        pos, amp = circuits._apply_gates_sparse(circuit, 0)
        assert sorted(pos.tolist()) == [0b000, 0b111]
        half = 1 / np.sqrt(2)
        assert np.array_equal(self.statevector(circuit, 0), self.expected(3, {0b000: half, 0b111: half}))

    def test_control_of_wrong_polarity_on_a_sparse_support(self):
        # From |010>, H q0 gives {|010>, |110>}: -q1 fires on neither, -q0 only on |010>.
        lines = ("H q0", "MCX -q1 -> q2", "MCX -q0 -> q2")
        pos, amp = circuits._apply_gates_sparse(qc(3, *lines[:2]), 0b010)
        assert sorted(pos.tolist()) == [0b010, 0b110]
        circuit = qc(3, *lines)
        pos, amp = circuits._apply_gates_sparse(circuit, 0b010)
        assert sorted(pos.tolist()) == [0b011, 0b110]
        half = 1 / np.sqrt(2)
        assert np.array_equal(self.statevector(circuit, 0b010), self.expected(3, {0b011: half, 0b110: half}))

    def test_hadamard_pairs_with_a_missing_partner_as_zero(self):
        # After H q0 and CNOT q0 -> q1 the support is {|00>, |11>}: an H on q1 finds each
        # position's partner missing, and a second H on q0 then pairs every position.
        lines = ("H q0", "MCX +q0 -> q1", "H q1", "H q0")
        pos, amp = circuits._apply_gates_sparse(qc(2, *lines[:3]), 0)
        assert len(pos) == 4
        circuit = qc(2, *lines)
        full = full_sweep_from_basis_state(circuit, 0)
        assert self.statevector(circuit, 0).tobytes() == full.tobytes()


class TestSparseSupport:
    """The sparse support gives the bytes of the full sweep over all 2^n amplitudes."""

    @staticmethod
    def random_lines(rng, n, n_gates, hadamards):
        lines = []
        for _ in range(n_gates):
            target = int(rng.integers(n))
            kind = "H" if rng.random() < hadamards else ("X", "MCX")[int(rng.integers(2))]
            if kind != "MCX":
                lines.append(f"{kind} q{target}")
                continue
            others = rng.permutation([q for q in range(n) if q != target])[: int(rng.integers(1, 4))]
            lines.append(mcx_line(target, [(int(q), bool(rng.integers(2))) for q in others]))
        return lines

    @pytest.mark.parametrize("seed", range(6))
    def test_random_circuits_match_the_full_sweep(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(11, 21))
        circuit = qc(n, *self.random_lines(rng, n, 3 * n, hadamards=0.3))
        basis_input = int(rng.integers(2**n))
        expected = full_sweep_from_basis_state(circuit, basis_input).tobytes()
        assert simulate_statevector(circuit, basis_input).tobytes() == expected

    @pytest.mark.parametrize("seed", range(2))
    def test_a_support_that_fills_the_state_matches_the_full_sweep(self, seed):
        # An H on every qubit first takes the support to all 2^n positions.
        rng = np.random.default_rng(10 + seed)
        n = int(rng.integers(11, 15))
        hadamards = [f"H q{q}" for q in range(n)]
        circuit = qc(n, *hadamards, *self.random_lines(rng, n, 2 * n, hadamards=0.3))
        basis_input = int(rng.integers(2**n))
        assert len(circuits._apply_gates_sparse(qc(n, *hadamards), basis_input)[0]) == 2**n
        expected = full_sweep_from_basis_state(circuit, basis_input).tobytes()
        assert simulate_statevector(circuit, basis_input).tobytes() == expected


def full_sweep_images(circuit):
    """The image table from the dense kernel's full sweep over the labels, inverted."""
    n = circuit.n_qubits
    moved = np.arange(2**n)
    circuits._apply_gates(moved, circuit)
    images = np.empty_like(moved)
    images[moved] = np.arange(2**n)
    return images


class TestPermutationAction:
    """The per-run kernel gives the image table of the full sweep over the labels."""

    @staticmethod
    def assert_matches_the_full_sweep(circuit):
        images = permutation_action(circuit)
        assert images.dtype == np.int64
        assert images.tobytes() == full_sweep_images(circuit).tobytes()

    @staticmethod
    def random_line(rng, n, target):
        others = rng.permutation([q for q in range(n) if q != target])[: int(rng.integers(n))]
        controls = [(int(q), bool(rng.integers(2))) for q in others]
        return mcx_line(target, controls) if controls else f"X q{target}"

    @pytest.mark.parametrize("n", range(1, 15))
    def test_random_runs_match_the_full_sweep(self, n):
        # Runs of one to four gates on one target; a run may repeat one of its gates.
        rng = np.random.default_rng(n)
        lines = []
        for _ in range(int(rng.integers(1, 12))):
            target = int(rng.integers(n))
            run = [self.random_line(rng, n, target) for _ in range(int(rng.integers(1, 5)))]
            if rng.random() < 0.5:
                run.insert(int(rng.integers(len(run) + 1)), run[int(rng.integers(len(run)))])
            lines += run
        self.assert_matches_the_full_sweep(qc(n, *lines))

    def test_a_gate_repeated_within_a_run_cancels(self):
        g, h = "MCX +q0 -q3 -> q2", "MCX +q1 -> q2"
        circuit = qc(4, g, h, g)
        self.assert_matches_the_full_sweep(circuit)
        assert np.array_equal(permutation_action(circuit), permutation_action(qc(4, h)))
        assert np.array_equal(permutation_action(qc(4, g, g)), permutation_action(qc(4)))

    def test_an_uncontrolled_x_inside_a_run(self):
        # The X flips q1 everywhere; with +q0 also firing, words with q0 = 1 keep their q1.
        lines = ("MCX +q0 -> q1", "X q1", "MCX -q2 -> q1")
        self.assert_matches_the_full_sweep(qc(3, *lines))
        images = permutation_action(qc(3, *lines[:2]))
        assert images.tolist() == [2, 3, 0, 1, 4, 5, 6, 7]

    def test_partial_controls_of_mixed_polarity(self):
        # Qubits 1 and 4 are free, so the gate fires on 4 words and moves 8 labels.
        circuit = qc(6, "MCX +q0 -q2 +q5 -> q3")
        self.assert_matches_the_full_sweep(circuit)
        moved = np.flatnonzero(permutation_action(circuit) != np.arange(64))
        assert len(moved) == 8
        assert all(x >> 5 & 1 and not x >> 3 & 1 and x & 1 for x in moved)

    def test_a_change_of_target_ends_the_run(self):
        circuit = qc(2, "MCX +q1 -> q0", "MCX +q0 -> q1", "MCX +q1 -> q0")
        self.assert_matches_the_full_sweep(circuit)
        assert permutation_action(circuit).tolist() == [0, 2, 1, 3]

    @pytest.mark.parametrize("circuit", [qc(0), qc(3)])
    def test_empty_circuits_are_the_identity(self, circuit):
        self.assert_matches_the_full_sweep(circuit)
        assert permutation_action(circuit).tolist() == list(range(2**circuit.n_qubits))


class TestGateCount:
    def test_empty(self):
        report = gate_count(qc(2))
        assert report.basic_gate_total == 0
        assert all(v == 0 for v in report.counts.values())

    def test_transposition_count(self):
        circuit = synth_transposition(0b0000, 0b1111, 4)
        report = gate_count(circuit)
        assert report.counts["MCX"] == 7  # 2k - 1 with k = 4
        assert report.basic_gate_total == 7 * (2 * 3 - 1)

    def test_cost_model(self):
        circuit = qc(4, "H q0", "X q1", "MCX +q0 -> q2", "MCX +q0 -q1 +q2 -> q3")
        assert gate_count(circuit).basic_gate_total == 1 + 1 + 1 + 5


class TestExpandMcx:
    def test_small_gates_unchanged(self):
        circuit = qc(3, "H q0", "MCX +q0 +q1 -> q2", "X q1", "MCX -> q0")
        assert expand_mcx(circuit) == circuit

    def test_negative_controls_become_x_conjugation(self):
        circuit = qc(2, "MCX -q0 -> q1")
        out = expand_mcx(circuit)
        assert emit_circuit(out) == "QUBITS 2\nX q0\nMCX +q0 -> q1\nX q0\n"
        assert np.array_equal(permutation_action(out), permutation_action(circuit))

    def test_action_preserved_with_clean_work_register(self):
        rng = np.random.default_rng(6)
        for n_controls in (3, 4, 5):
            qubits = n_controls + 1
            controls = [(q, bool(rng.integers(0, 2))) for q in range(n_controls)]
            circuit = qc(qubits, mcx_line(n_controls, controls))
            expanded = expand_mcx(circuit)
            assert expanded.n_qubits == qubits + n_controls - 2
            base = permutation_action(circuit)
            action = permutation_action(expanded)
            shift = (n_controls - 2)  # work qubits appended at the bottom
            for x in range(2**qubits):
                assert action[x << shift] == base[x] << shift  # work register returns to 0

    def test_only_basic_gates_remain(self):
        expanded = expand_mcx(synth_transposition(0, 2**6 - 1, 6))
        assert np.diff(expanded.offsets).max() <= 2
        assert expanded.polarities.all()

    def test_the_and_ladder_of_a_four_control_gate(self):
        out = expand_mcx(qc(5, "MCX +q0 -q1 +q2 +q3 -> q4"))
        assert emit_circuit(out) == ("QUBITS 7\nX q1\nMCX +q0 +q1 -> q5\nMCX +q2 +q5 -> q6\nMCX +q3 +q6 -> q4\n"
                                     "MCX +q2 +q5 -> q6\nMCX +q0 +q1 -> q5\nX q1\n")


class TestTextFormat:
    def test_round_trip(self):
        # H q0, X q3, MCX +q0 -q1 -> q2, MCX -q3 -> q0
        circuit = Circuit(4, np.array([0, 1, 2, 2], dtype=np.uint8), np.array([0, 3, 2, 0], dtype=np.int64),
                          np.array([0, 1, 3], dtype=np.int64), np.array([True, False, False]),
                          np.array([0, 0, 0, 2, 3], dtype=np.int64))
        assert parse_circuit(emit_circuit(circuit)) == circuit

    def test_emitted_format(self):
        circuit = Circuit(2, *gate_arrays(2, 1, [(0, True)]))
        assert emit_circuit(circuit) == "QUBITS 2\nMCX +q0 -> q1\n"

    def test_round_trip_synthesized(self):
        circuit = synth_boolean_oracle([1, 0, 0, 1], 2)
        assert parse_circuit(emit_circuit(circuit)) == circuit

    def test_parse_errors(self):
        with pytest.raises(DomainError):
            parse_circuit("H q0\n")
        with pytest.raises(DomainError):
            parse_circuit("QUBITS 2\nCZ q0\n")
        with pytest.raises(DomainError):
            parse_circuit("QUBITS 2\nMCX q0 q1\n")
        for document in (
            "QUBITS abc\n",
            "QUBITS 2\nH qx\n",
            "QUBITS 2\nMCX +q1 -> qz\n",
            "QUBITS 2\nMCX +q1 ->\n",
            "QUBITS -1\n",
        ):
            with pytest.raises(DomainError):
                parse_circuit(document)

    @pytest.mark.parametrize(
        ("source", "message"),
        [
            (gate_arrays(3, 0), "unknown gate kind"),
            (gate_arrays(7, 1, [(0, True)]), "unknown gate kind"),
            (gate_arrays(0, 0, [(1, True)]), "H takes no controls"),
            (gate_arrays(1, 1, [(0, False)]), "X takes no controls"),
            (gate_arrays(2, 1, [(0, True), (0, False)]), "distinct"),
            ("MCX +q0 +q0 -> q1", "distinct"),
            (gate_arrays(2, 1, [(1, True)]), "distinct"),
            ("MCX +q1 -> q1", "distinct"),
            (gate_arrays(1, -1), "outside the circuit"),
            (gate_arrays(2, 0, [(-1, True)]), "outside the circuit"),
            ("H q2", "outside the circuit"),
            ("MCX -q2 -> q0", "outside the circuit"),
        ],
    )
    def test_circuit_checks_each_gate(self, source, message):
        """Each check raises from ``Circuit``, built from arrays or parsed."""
        with pytest.raises(DomainError, match=message):
            if isinstance(source, str):
                parse_circuit(f"QUBITS 2\n{source}\n")
            else:
                Circuit(2, *source)

    # A bool is not qubit 1 and 2 is not a polarity: an array of any other dtype is refused, not converted.
    @pytest.mark.parametrize(
        "gate",
        [
            with_array(gate_arrays(1, 0), 1, np.array([1.0])),
            with_array(gate_arrays(1, 0), 1, np.array([True])),
            with_array(gate_arrays(0, 0), 1, np.array([0], dtype=np.int32)),
            with_array(gate_arrays(1, 0), 1, [1]),
            with_array(gate_arrays(2, 0, [(1, True)]), 3, np.array([2])),
            with_array(gate_arrays(2, 0, [(1, True)]), 3, np.array([1], dtype=np.uint8)),
            with_array(gate_arrays(2, 0, [(1, True)]), 2, np.array([True])),
            with_array(gate_arrays(2, 1, [(0, False)]), 2, np.array([0.0])),
            with_array(gate_arrays(2, 1, [(0, True)]), 2, np.array([[0]])),
        ],
    )
    def test_circuit_refuses_qubits_and_polarities_of_other_types(self, gate):
        with pytest.raises(DomainError, match="CSR form"):
            Circuit(2, *gate)

    def test_numpy_integer_qubits_and_bool_polarities_are_accepted(self):
        circuit = Circuit(np.int64(2), *gate_arrays(2, 1, [(0, True)]))
        assert type(circuit.n_qubits) is int
        assert emit_circuit(circuit) == "QUBITS 2\nMCX +q0 -> q1\n"
        assert permutation_action(circuit).tolist() == [0, 1, 3, 2]

    @pytest.mark.parametrize("n_qubits", [-1, 2.5, True, "2"])
    def test_circuit_qubit_count_must_be_a_count(self, n_qubits):
        with pytest.raises(DomainError, match="qubit count must be an integer >= 0"):
            Circuit(n_qubits, *gate_arrays(1, 0))

    def test_zero_controls_and_whitespace_runs(self):
        # MCX -> q0, MCX +q0 -q1 -> q2, H q1
        circuit = Circuit(3, np.array([2, 2, 0], dtype=np.uint8), np.array([0, 2, 1], dtype=np.int64),
                          np.array([0, 1], dtype=np.int64), np.array([True, False]),
                          np.array([0, 0, 2, 2], dtype=np.int64))
        assert emit_circuit(circuit).splitlines()[1] == "MCX -> q0"
        assert parse_circuit(" QUBITS \t3\n\nMCX  -> q0\nMCX\t+q0   -q1 ->  q2 \nH\tq1\n") == circuit


class TestArrayForm:
    """A circuit is its five arrays; one check runs on them however they were built."""

    def test_gates_convert_into_csr_arrays(self):
        circuit = qc(3, "H q0", "MCX +q0 -q1 -> q2", "X q1", "MCX -> q0")
        expected = ([0, 2, 1, 2], [0, 2, 1, 0], [0, 1], [True, False], [0, 0, 2, 2, 2])
        for array, dtype, values in zip(circuit.arrays, (np.uint8, np.int64, np.int64, np.bool_, np.int64), expected):
            assert array.dtype == dtype and array.tolist() == values and not array.flags.writeable
        assert circuit.gates == (("H", 0, ()), ("MCX", 2, ((0, True), (1, False))), ("X", 1, ()), ("MCX", 0, ()))
        assert Circuit(3, *(a.copy() for a in circuit.arrays)) == circuit

    @pytest.mark.parametrize("change", [
        {0: np.array([2], dtype=np.int64)},  # kinds of the wrong dtype
        {1: np.array([1], dtype=np.int32)},  # targets of the wrong dtype
        {2: [0]},  # qubits that are not an array
        {3: np.array([1], dtype=np.uint8)},  # polarities that are not bools
        {4: np.array([0, 2], dtype=np.int64)},  # offsets past the controls
        {1: np.array([1, 1], dtype=np.int64)},  # one target too many
        {3: np.array([], dtype=bool)},  # a qubit without its polarity
        {4: np.array([[0, 1]], dtype=np.int64)},  # offsets of two dimensions
    ])
    def test_arrays_are_checked_by_dtype_and_shape(self, change):
        arrays = list(gate_arrays(2, 1, [(0, True)]))
        assert Circuit(2, *arrays).gates == (("MCX", 1, ((0, True),)),)
        for i, value in change.items():
            arrays[i] = value
        with pytest.raises(DomainError, match="CSR form"):
            Circuit(2, *arrays)

    def test_decreasing_offsets_are_refused(self):
        arrays = (np.array([2, 2], dtype=np.uint8), np.array([1, 1], dtype=np.int64), np.array([0], dtype=np.int64),
                  np.array([True]), np.array([0, 2, 1], dtype=np.int64))
        with pytest.raises(DomainError, match="CSR form"):
            Circuit(3, *arrays)

    def test_an_unknown_kind_code_is_refused(self):
        with pytest.raises(DomainError, match="unknown gate kind"):
            Circuit(1, *gate_arrays(3, 0))

    def test_a_qubit_beyond_int64_cannot_enter(self):
        # An int64 array cannot hold one, and the text format reads at most nine digits.
        with pytest.raises(DomainError, match="CSR form"):
            Circuit(2, *with_array(gate_arrays(1, 0), 1, np.array([2**64 - 1], dtype=np.uint64)))
        with pytest.raises(DomainError, match="malformed gate line"):
            parse_circuit(f"QUBITS 2\nX q{2**64}\n")

    def test_keys_that_would_overflow_are_refused(self):
        # 4 · 2^62 wraps to 0 in int64, so gates 0 and 4 on qubit 0 would read as one gate repeating it.
        def xs(count):  # ``count`` X gates on qubit 0
            return (np.full(count, 1, dtype=np.uint8), np.zeros(count, dtype=np.int64), np.array([], dtype=np.int64),
                    np.array([], dtype=bool), np.zeros(count + 1, dtype=np.int64))

        assert Circuit(2**62, *xs(2)).n_qubits == 2**62
        with pytest.raises(ResourceError, match="overflow the int64 keys"):
            Circuit(2**62, *xs(5))

    @pytest.mark.parametrize("argv", [
        ["synth", "oracle", "--text", "abcab" * 200, "--symbol", "a", "--verify"],
        ["synth", "transposition", "--width", "8", "--a", "3", "--b", "200", "--verify"],
        ["synth", "init-state", "--s", "3", "--m", "4", "--verify"],
        ["synth", "oracle", "--text", "abcab" * 20, "--symbol", "b", "--verify", "--emit", "{tmp}/oracle.qc"],
    ])
    def test_synth_commands_build_no_gate(self, monkeypatch, capsys, tmp_path, argv):
        monkeypatch.setattr(circuits, "Gate", _no_gate)
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 0
        assert "verify: PASS" in capsys.readouterr().out

    def test_library_paths_build_no_gate(self, monkeypatch, tmp_path):
        circuit = qc(4, "H q0", "X q3", "MCX +q0 -q1 +q3 -> q2", "MCX -> q1")
        monkeypatch.setattr(circuits, "Gate", _no_gate)
        assert parse_circuit(emit_circuit(circuit)) == circuit
        expanded = expand_mcx(circuit)
        assert expanded.n_qubits == 5
        assert np.array_equal(simulate_statevector(circuit, 3), simulate_unitary(circuit)[:, 3])
        assert simulate_unitary(expanded).shape == (32, 32)


class TestSynthPermutation:
    def test_random_permutations_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            w = int(rng.integers(1, 7))
            images = tuple(int(v) for v in rng.permutation(2**w))
            circuit = synth_permutation(images, w)
            assert np.array_equal(permutation_action(circuit), images)


class TestSynthesisStructure:
    def test_one_circuit_per_synthesis(self, monkeypatch):
        built = []
        original = Circuit.__post_init__

        def counting(circuit):
            built.append(circuit)
            original(circuit)

        monkeypatch.setattr(Circuit, "__post_init__", counting)
        rng = np.random.default_rng(8)
        p = tuple(int(v) for v in rng.permutation(32))
        f = rng.integers(0, 2, size=64)
        calls = (
            lambda: synth_transposition(0b00101, 0b11010, 5),
            lambda: synth_permutation(p, 5),
            lambda: synth_boolean_oracle(f, 6),
        )
        for call in calls:
            built.clear()
            assert len(call().kinds)  # a nontrivial circuit ...
            assert len(built) == 1  # ... built as one Circuit

    def test_backward_sweep_mirrors_forward_sweep(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            width = int(rng.integers(1, 11))
            a, b = (int(v) for v in rng.choice(2**width, size=2, replace=False))
            gates = synth_transposition(a, b, width).gates
            k = bin(a ^ b).count("1")
            assert gates[k:] == gates[: k - 1][::-1]


def _control_entries(circuit):
    return len(circuit.qubits)


def _no_gate(*args):
    raise AssertionError("a gate was built")


SYNTHESES = {
    "transposition": lambda: synth_transposition(0b00101, 0b11010, 5),
    "permutation": lambda: synth_permutation(np.random.default_rng(8).permutation(32), 5),
    "oracle": lambda: synth_boolean_oracle(np.random.default_rng(8).integers(0, 2, size=64), 6),
    "phase oracle": lambda: synth_phase_oracle(np.random.default_rng(8).integers(0, 2, size=64), 6),
    "init-state": lambda: synth_init_state_circuit(3, 4),
}


class TestControlEntryBound:
    """Synthesis counts its control entries in closed form and refuses a circuit above the cap unbuilt."""

    @pytest.mark.parametrize("name", SYNTHESES)
    def test_refused_above_the_cap_before_any_gate(self, monkeypatch, name):
        build = SYNTHESES[name]
        entries = _control_entries(build())
        monkeypatch.setattr(circuits, "CONTROL_ENTRIES_LIMIT", entries)
        assert _control_entries(build()) == entries
        monkeypatch.setattr(circuits, "CONTROL_ENTRIES_LIMIT", entries - 1)
        monkeypatch.setattr(circuits, "Gate", _no_gate)
        with pytest.raises(ResourceError, match=f"needs {entries} control entries"):
            build()

    def test_closed_forms_count_the_built_entries(self):
        rng = np.random.default_rng(12)
        for width in range(1, 8):
            a, b = (int(v) for v in rng.choice(2**width, size=2, replace=False))
            d = bin(a ^ b).count("1")
            assert _control_entries(synth_transposition(a, b, width)) == (2 * d - 1) * (width - 1)
        for s in range(1, 6):
            for m in range(2, 5):
                assert _control_entries(synth_init_state_circuit(s, m)) == (m - 1) * (s + s * (s - 1) // 2)
        f = rng.integers(0, 2, size=2**7)
        assert _control_entries(synth_boolean_oracle(f, 7)) == int(f.sum()) * 7

    @pytest.mark.parametrize("name", ["transpositions", "oracle", "init-state"])
    def test_mcx_expansion_counted_and_refused_unbuilt(self, monkeypatch, name):
        rng = np.random.default_rng(5)
        if name == "transpositions":
            inputs = [synth_transposition(*(int(v) for v in rng.choice(2**w, 2, replace=False)), w)
                      for w in range(3, 17)]
        elif name == "oracle":
            inputs = [synth_boolean_oracle(rng.integers(0, 2, size=2**8), 8)]
        else:
            inputs = [synth_init_state_circuit(4, 5)]
        for circuit in inputs:
            entries = _control_entries(expand_mcx(circuit))
            monkeypatch.setattr(circuits, "CONTROL_ENTRIES_LIMIT", entries)
            assert _control_entries(expand_mcx(circuit)) == entries
            monkeypatch.setattr(circuits, "CONTROL_ENTRIES_LIMIT", entries - 1)
            monkeypatch.setattr(circuits, "Gate", _no_gate)
            with pytest.raises(ResourceError, match=f"MCX expansion needs {entries} control entries"):
                expand_mcx(circuit)
            monkeypatch.undo()

    def test_domain_errors_come_before_the_bound(self, monkeypatch):
        monkeypatch.setattr(circuits, "CONTROL_ENTRIES_LIMIT", 0)
        with pytest.raises(DomainError, match="out of range"):
            synth_transposition(0, 2**40 - 1, 3)
        with pytest.raises(DomainError, match="width"):
            synth_transposition(0, 3, 2.5)
        with pytest.raises(DomainError, match="out of range"):
            synth_permutation(np.arange(8)[::-1], 2)
