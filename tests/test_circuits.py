import numpy as np
import pytest

from qpmatch import (
    Circuit,
    DomainError,
    Gate,
    Permutation,
    ResourceError,
    Transposition,
    emit_circuit,
    expand_mcx,
    gate_count,
    gray_code,
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
from qpmatch.circuits import apply_transpositions


def transposition_matrix(a, b, dim):
    mat = np.eye(dim)
    mat[[a, b]] = mat[[b, a]]
    return mat


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
            synth_transposition(Transposition(0, 3), width)


class TestLiftBoolean:
    def test_constant_zero_is_identity(self):
        assert np.array_equal(lift_boolean([0, 0], 1).images, (0, 1, 2, 3))

    def test_identity_function(self):
        # n=1, f(x)=x: swaps (b=0,x=1) <-> (b=1,x=1)
        assert np.array_equal(lift_boolean([0, 1], 1).images, (0, 3, 2, 1))

    def test_involution(self):
        rng = np.random.default_rng(1)
        for n in range(1, 7):
            f = rng.integers(0, 2, size=2**n)
            p = lift_boolean(f, n)
            assert all(p(p(x)) == x for x in range(2 ** (n + 1)))

    def test_value_stored_in_top_bit(self):
        f = [1, 0, 1, 1]
        p = lift_boolean(f, 2)
        for x in range(4):
            assert p(x) == (f[x] << 2) | x

    def test_rejects_values_that_are_not_bits(self):
        with pytest.raises(DomainError, match="bits"):
            lift_boolean([0.7, 1.2], 1)

    def test_rejects_table_shorter_than_two_to_the_n(self):
        with pytest.raises(DomainError, match="entries"):
            lift_boolean([1], 2)


class TestPermutation:
    def test_images_are_a_read_only_int64_array(self):
        source = np.array([2, 0, 1])
        p = Permutation(source)
        source[0] = 0
        assert p.images.dtype == np.int64
        assert np.array_equal(p.images, (2, 0, 1))
        with pytest.raises(ValueError):
            p.images[0] = 1

    def test_equal_tables_compare_equal_and_are_not_hashable(self):
        assert Permutation((1, 0, 2)) == Permutation(np.array([1, 0, 2]))
        assert Permutation((1, 0, 2)) != Permutation((0, 1, 2))
        assert Permutation((1, 0)) != (1, 0)
        with pytest.raises(TypeError):
            hash(Permutation((1, 0)))

    @pytest.mark.parametrize("images", [(0, 0), (1, 2), (-1, 0), ((0, 1),), 3])
    def test_rejects_tables_that_are_not_bijections(self, images):
        with pytest.raises(DomainError):
            Permutation(images)


class TestPermutationToTranspositions:
    def test_identity_empty(self):
        assert permutation_to_transpositions(Permutation(tuple(range(8)))) == []

    def test_single_swap(self):
        ts = permutation_to_transpositions(Permutation((3, 1, 2, 0)))
        assert ts == [Transposition(0, 3)]

    def test_recomposition_random(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            w = int(rng.integers(1, 9))
            images = tuple(int(v) for v in rng.permutation(2**w))
            p = Permutation(images)
            ts = permutation_to_transpositions(p)
            assert len(ts) <= 2**w - 1
            assert np.array_equal(apply_transpositions(ts, 2**w).images, images)

    @pytest.mark.parametrize("t", [Transposition(1, 9), Transposition(4, 0)])
    def test_apply_rejects_endpoints_outside_the_table(self, t):
        with pytest.raises(DomainError, match="out of range"):
            apply_transpositions([Transposition(0, 1), t], 4)

    @pytest.mark.parametrize("a", [-1, True, 1.5, np.float64(1.0), "1"])
    def test_endpoints_must_be_counts(self, a):
        with pytest.raises(DomainError, match="endpoints must be integers >= 0"):
            Transposition(a, 2)
        with pytest.raises(DomainError, match="endpoints must be integers >= 0"):
            Transposition(2, a)

    def test_numpy_integer_endpoints_are_counts(self):
        t = Transposition(np.int64(1), np.uint8(2))
        assert apply_transpositions([t], 4).images.tolist() == [0, 2, 1, 3]


class TestSynthTransposition:
    def test_width_one_is_single_x(self):
        circuit = synth_transposition(Transposition(0, 1), 1)
        assert circuit.gates == (Gate("X", 0),)

    def test_distance_two(self):
        circuit = synth_transposition(Transposition(0b00, 0b11), 2)
        assert len(circuit.gates) == 3
        assert np.array_equal(simulate_unitary(circuit).real, transposition_matrix(0, 3, 4))

    def test_random_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            width = int(rng.integers(1, 9))
            a, b = (int(v) for v in rng.choice(2**width, size=2, replace=False))
            circuit = synth_transposition(Transposition(a, b), width)
            k = bin(a ^ b).count("1")
            assert len(circuit.gates) == 2 * k - 1
            action = permutation_action(circuit)
            expected = list(range(2**width))
            expected[a], expected[b] = b, a
            assert np.array_equal(action.images, tuple(expected))


class TestBooleanOracle:
    def test_constant_zero_empty(self):
        assert synth_boolean_oracle([0] * 8, 3).gates == ()

    def test_identity_function_is_controlled_x(self):
        circuit = synth_boolean_oracle([0, 1], 1)
        assert np.array_equal(permutation_action(circuit).images, (0, 3, 2, 1))

    def test_text_indicator(self):
        # f = indicator of 'a' in "abab" over 2 data bits
        f = [1, 0, 1, 0]
        circuit = synth_boolean_oracle(f, 2)
        assert np.array_equal(permutation_action(circuit).images, lift_boolean(f, 2).images)

    def test_random_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            f = rng.integers(0, 2, size=2**n)
            circuit = synth_boolean_oracle(f, n)
            assert np.array_equal(permutation_action(circuit).images, lift_boolean(f, n).images)


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


class TestDenseSimulation:
    def test_empty_circuit_identity(self):
        assert np.array_equal(simulate_unitary(Circuit(3)), np.eye(8))

    def test_single_x(self):
        mat = simulate_unitary(Circuit(1, (Gate("X", 0),)))
        assert np.array_equal(mat.real, [[0, 1], [1, 0]])

    def test_mirror_gives_identity(self):
        gates = (
            Gate("H", 0),
            Gate("X", 2),
            Gate("MCX", 1, ((0, True), (2, False))),
            Gate("H", 1),
        )
        circuit = Circuit(3, gates + tuple(reversed(gates)))
        assert np.allclose(simulate_unitary(circuit), np.eye(8), atol=1e-12)

    def test_statevector_limit(self):
        with pytest.raises(ResourceError):
            simulate_statevector(Circuit(21))

    def test_unitary_limit(self):
        with pytest.raises(ResourceError):
            simulate_unitary(Circuit(13))

    def test_permutation_action_rejects_hadamard(self):
        with pytest.raises(DomainError):
            permutation_action(Circuit(1, (Gate("H", 0),)))

    def test_negative_controls(self):
        circuit = Circuit(2, (Gate("MCX", 1, ((0, False),)),))
        assert np.array_equal(permutation_action(circuit).images, (1, 0, 2, 3))

    def test_mcx_controlled_by_every_other_qubit(self):
        # Fixing all five qubits leaves one amplitude on each side of the gate
        # (for the unitary, one row of 32 columns per side).
        controls = ((0, True), (1, False), (3, True), (4, False))
        circuit = Circuit(5, (Gate("MCX", 2, controls),))
        low, high = 0b10010, 0b10110
        images = list(range(32))
        images[low], images[high] = high, low
        for x in range(32):
            expected = np.zeros(32, dtype=np.complex128)
            expected[images[x]] = 1
            assert np.array_equal(simulate_statevector(circuit, x), expected)
        assert np.array_equal(simulate_unitary(circuit), np.eye(32)[:, images])

    def test_permutation_action_at_qubit_limit(self):
        t1, t2 = Transposition(3, 2**20 - 5), Transposition(2**19 + 7, 12345)
        gates = synth_transposition(t1, 20).gates + synth_transposition(t2, 20).gates
        # t1's gates act first, so t1 is the last factor of the operator product.
        expected = apply_transpositions([t2, t1], 2**20)
        assert permutation_action(Circuit(20, gates)) == expected


class TestBasisTracking:
    """``simulate_statevector`` skips the region where a tracked qubit holds its other bit."""

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
        circuit = Circuit(3, (Gate("MCX", 1, ((0, False),)), Gate("X", 2)))
        assert np.array_equal(self.statevector(circuit, 0b100), self.expected(3, {0b101: 1}))

    def test_all_tracked_controls_flip_the_target_bit(self):
        gates = (Gate("X", 0), Gate("MCX", 1, ((0, True), (2, False))), Gate("MCX", 2, ((1, True),)))
        circuit = Circuit(3, gates)
        assert np.array_equal(self.statevector(circuit, 0), self.expected(3, {0b111: 1}))

    def test_hadamard_untracks_its_target(self):
        circuit = Circuit(2, (Gate("H", 0), Gate("MCX", 1, ((0, True),))))
        half = 1 / np.sqrt(2)
        assert np.array_equal(self.statevector(circuit, 0), self.expected(2, {0b00: half, 0b11: half}))

    def test_untracked_control_untracks_the_target(self):
        gates = (Gate("H", 0), Gate("MCX", 1, ((0, True),)), Gate("MCX", 2, ((1, True),)))
        half = 1 / np.sqrt(2)
        circuit = Circuit(3, gates)
        assert np.array_equal(self.statevector(circuit, 0), self.expected(3, {0b000: half, 0b111: half}))


class TestGateCount:
    def test_empty(self):
        report = gate_count(Circuit(2))
        assert report.basic_gate_total == 0
        assert all(v == 0 for v in report.counts.values())

    def test_transposition_count(self):
        circuit = synth_transposition(Transposition(0b0000, 0b1111), 4)
        report = gate_count(circuit)
        assert report.counts["MCX"] == 7  # 2k - 1 with k = 4
        assert report.basic_gate_total == 7 * (2 * 3 - 1)

    def test_cost_model(self):
        circuit = Circuit(
            4,
            (
                Gate("H", 0),
                Gate("X", 1),
                Gate("MCX", 2, ((0, True),)),
                Gate("MCX", 3, ((0, True), (1, False), (2, True))),
            ),
        )
        assert gate_count(circuit).basic_gate_total == 1 + 1 + 1 + 5


class TestExpandMcx:
    def test_small_gates_unchanged(self):
        circuit = Circuit(3, (Gate("H", 0), Gate("MCX", 2, ((0, True), (1, True)))))
        assert expand_mcx(circuit).gates == circuit.gates

    def test_negative_controls_become_x_conjugation(self):
        circuit = Circuit(2, (Gate("MCX", 1, ((0, False),)),))
        out = expand_mcx(circuit)
        assert [g.kind for g in out.gates] == ["X", "MCX", "X"]
        assert np.array_equal(permutation_action(out).images, permutation_action(circuit).images)

    def test_action_preserved_with_clean_work_register(self):
        rng = np.random.default_rng(6)
        for n_controls in (3, 4, 5):
            qubits = n_controls + 1
            controls = tuple((q, bool(rng.integers(0, 2))) for q in range(n_controls))
            circuit = Circuit(qubits, (Gate("MCX", n_controls, controls),))
            expanded = expand_mcx(circuit)
            assert expanded.n_qubits == qubits + n_controls - 2
            base = permutation_action(circuit)
            action = permutation_action(expanded)
            shift = (n_controls - 2)  # work qubits appended at the bottom
            for x in range(2**qubits):
                assert action(x << shift) == base(x) << shift  # work register returns to 0

    def test_only_basic_gates_remain(self):
        circuit = synth_transposition(Transposition(0, 2**6 - 1), 6)
        expanded = expand_mcx(circuit)
        for g in expanded.gates:
            assert len(g.controls) <= 2
            assert all(pos for _, pos in g.controls)


class TestTextFormat:
    def test_round_trip(self):
        circuit = Circuit(
            4,
            (
                Gate("H", 0),
                Gate("X", 3),
                Gate("MCX", 2, ((0, True), (1, False))),
                Gate("MCX", 0, ((3, False),)),
            ),
        )
        assert parse_circuit(emit_circuit(circuit)) == circuit

    def test_emitted_format(self):
        circuit = Circuit(2, (Gate("MCX", 1, ((0, True),)),))
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
            (Gate("Z", 0), "unknown gate kind"),
            (Gate("CZ", 1, ((0, True),)), "unknown gate kind"),
            (Gate("H", 0, ((1, True),)), "H takes no controls"),
            (Gate("X", 1, ((0, False),)), "X takes no controls"),
            (Gate("MCX", 1, ((0, True), (0, False))), "distinct"),
            ("MCX +q0 +q0 -> q1", "distinct"),
            (Gate("MCX", 1, ((1, True),)), "distinct"),
            ("MCX +q1 -> q1", "distinct"),
            (Gate("X", -1), "outside the circuit"),
            (Gate("MCX", 0, ((-1, True),)), "outside the circuit"),
            ("H q2", "outside the circuit"),
            ("MCX -q2 -> q0", "outside the circuit"),
        ],
    )
    def test_circuit_checks_each_gate(self, source, message):
        """A gate is plain data; each check raises from ``Circuit``, built directly or parsed."""
        with pytest.raises(DomainError, match=message):
            if isinstance(source, Gate):
                Circuit(2, (source,))
            else:
                parse_circuit(f"QUBITS 2\n{source}\n")

    @pytest.mark.parametrize("n_qubits", [-1, 2.5, True, "2"])
    def test_circuit_qubit_count_must_be_a_count(self, n_qubits):
        with pytest.raises(DomainError, match="qubit count must be an integer >= 0"):
            Circuit(n_qubits, (Gate("X", 0),))

    def test_zero_controls_and_whitespace_runs(self):
        circuit = Circuit(3, (Gate("MCX", 0), Gate("MCX", 2, ((0, True), (1, False))), Gate("H", 1)))
        assert emit_circuit(circuit).splitlines()[1] == "MCX -> q0"
        assert parse_circuit(" QUBITS \t3\n\nMCX  -> q0\nMCX\t+q0   -q1 ->  q2 \nH\tq1\n") == circuit


class TestSynthPermutation:
    def test_random_permutations_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            w = int(rng.integers(1, 7))
            images = tuple(int(v) for v in rng.permutation(2**w))
            circuit = synth_permutation(Permutation(images), w)
            assert np.array_equal(permutation_action(circuit).images, images)


class TestSynthesisStructure:
    def test_one_circuit_per_synthesis(self, monkeypatch):
        built = []
        original = Circuit.__post_init__

        def counting(circuit):
            built.append(circuit)
            original(circuit)

        monkeypatch.setattr(Circuit, "__post_init__", counting)
        rng = np.random.default_rng(8)
        p = Permutation(tuple(int(v) for v in rng.permutation(32)))
        f = rng.integers(0, 2, size=64)
        calls = (
            lambda: synth_transposition(Transposition(0b00101, 0b11010), 5),
            lambda: synth_permutation(p, 5),
            lambda: synth_boolean_oracle(f, 6),
        )
        for call in calls:
            built.clear()
            assert call().gates  # a nontrivial circuit ...
            assert len(built) == 1  # ... built as one Circuit

    def test_backward_sweep_mirrors_forward_sweep(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            width = int(rng.integers(1, 11))
            a, b = (int(v) for v in rng.choice(2**width, size=2, replace=False))
            gates = synth_transposition(Transposition(a, b), width).gates
            k = bin(a ^ b).count("1")
            assert gates[k:] == gates[: k - 1][::-1]
