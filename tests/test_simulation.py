import numpy as np
import pytest

from qpmatch import (
    DomainError,
    ResourceError,
    Text,
    apply_diffusion,
    apply_query_phase,
    build_index,
    embed_full,
    full_apply_diffusion,
    full_apply_query,
    init_state,
    measure_first_register,
)


def indicator_from(text: str, symbol: str) -> np.ndarray:
    return build_index(Text.from_bytes(text.encode())).indicator_for(ord(symbol))


def random_state(n, m, rng) -> np.ndarray:
    amps = rng.normal(size=(n, n - m + 1)) + 1j * rng.normal(size=(n, n - m + 1))
    amps /= np.linalg.norm(amps)
    return amps


def norm_sq(amps) -> float:
    return float(np.sum(np.abs(amps) ** 2))


class TestInitState:
    def test_n4_m2(self):
        state = init_state(4, 2)
        nz = {(i, k) for i, k in zip(*np.nonzero(state))}
        assert nz == {(0, 0), (1, 1), (2, 2)}
        assert np.allclose(state[0, 0], 1 / np.sqrt(3))

    def test_single_cell(self):
        state = init_state(1, 1)
        assert state.shape == (1, 1)
        assert state[0, 0] == 1

    def test_figure_scale(self):
        state = init_state(212, 10)
        nz = np.nonzero(state)
        assert len(nz[0]) == 203
        assert np.allclose(state[nz], 1 / np.sqrt(203))

    def test_rejects_bad_sizes(self):
        with pytest.raises(DomainError):
            init_state(3, 4)
        with pytest.raises(DomainError):
            init_state(3, 0)

    def test_size_limit_before_allocation(self):
        # 16 * N * K = 16 * 100000 * 99999 bytes, about 160 GB: the check must
        # fire before np.zeros is asked for the state.
        with pytest.raises(ResourceError):
            init_state(100_000, 2)


class TestQueryPhase:
    def test_all_zero_indicator_is_identity(self):
        state = init_state(5, 2)
        bits = np.zeros(5, dtype=np.uint8)
        out = apply_query_phase(state, 1, bits)
        assert np.array_equal(out, state)

    def test_involution(self):
        rng = np.random.default_rng(0)
        state = random_state(6, 3, rng)
        bits = rng.integers(0, 2, size=6).astype(np.uint8)
        for j in (1, 2, 3):
            twice = apply_query_phase(apply_query_phase(state, j, bits), j, bits)
            assert np.array_equal(twice, state)

    def test_tail_register_position(self):
        # N=4, M=2: symbol present only at position 2, queried at register 2.
        # Tail k=1 holds position 2, so only entry (1, 1) of psi0 flips.
        state = init_state(4, 2)
        bits = np.array([0, 0, 1, 0], dtype=np.uint8)
        out = apply_query_phase(state, 2, bits)
        expected = state.copy()
        expected[1, 1] *= -1
        assert np.array_equal(out, expected)

    def test_register_out_of_range(self):
        state = init_state(4, 2)
        bits = np.zeros(4, dtype=np.uint8)
        for j in (0, 3, True, 1.5):
            with pytest.raises(DomainError, match="register index"):
                apply_query_phase(state, j, bits)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        state = random_state(7, 3, rng)
        bits = rng.integers(0, 2, size=7).astype(np.uint8)
        out = apply_query_phase(state, 2, bits)
        assert abs(norm_sq(out) - 1) < 1e-10


class TestDiffusion:
    def test_fixes_uniform_columns(self):
        n, m = 5, 2
        amps = np.full((n, n - m + 1), 1 / np.sqrt(n * (n - m + 1)), dtype=complex)
        out = apply_diffusion(amps)
        assert np.allclose(out, amps, atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(2)
        state = random_state(8, 3, rng)
        twice = apply_diffusion(apply_diffusion(state))
        assert np.allclose(twice, state, atol=1e-12)

    def test_point_mass_formula(self):
        n, m = 6, 2
        amps = np.zeros((n, n - m + 1), dtype=complex)
        amps[2, 3] = 1.0
        out = apply_diffusion(amps)
        expected = np.zeros_like(amps)
        expected[:, 3] = 2 / n
        expected[2, 3] = 2 / n - 1
        assert np.allclose(out, expected, atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        state = random_state(9, 4, rng)
        assert abs(norm_sq(apply_diffusion(state)) - 1) < 1e-10


class TestMeasurement:
    def test_initial_state_uniform_prefix(self):
        probs = measure_first_register(init_state(4, 2))
        assert np.allclose(probs[:3], 1 / 3)
        assert probs[3] == 0

    def test_point_mass(self):
        amps = np.zeros((5, 3), dtype=complex)
        amps[4, 1] = 1.0
        probs = measure_first_register(amps)
        assert probs[4] == 1 and probs.sum() == 1

    def test_matches_full_reference_marginal(self):
        rng = np.random.default_rng(4)
        for n, m in [(5, 2), (6, 3), (8, 3)]:
            state = random_state(n, m, rng)
            ref = embed_full(state)
            marginal = np.abs(ref.reshape(n, -1)) ** 2
            assert np.allclose(
                measure_first_register(state), marginal.sum(axis=1), atol=1e-10
            )

    @pytest.mark.xfail(strict=True, reason=(
        "at M = 1 the K windows share the empty tail, so their columns must add coherently "
        "before squaring; ROADMAP item 10"
    ))
    def test_matches_full_reference_marginal_at_m_1(self):
        # States the operators reach: at M = 1 the columns of a random array need not embed
        # to a unit vector.  Here the first register reads 0.0625 at position 15, the reference 0.961.
        bits = np.zeros(16, dtype=np.uint8)
        bits[15] = 1
        state = init_state(16, 1)
        for _ in range(3):
            state = apply_diffusion(apply_query_phase(state, 1, bits))
        ref = embed_full(state)
        assert np.isclose(np.linalg.norm(ref), 1.0)
        assert np.allclose(measure_first_register(state), np.abs(ref) ** 2, atol=1e-10)


class TestFullReference:
    def test_query_involution(self):
        ref = embed_full(init_state(5, 2))
        ind = indicator_from("ababa", "a")
        twice = full_apply_query(full_apply_query(ref, 2, ind), 2, ind)
        assert np.array_equal(twice, ref)

    def test_query_checks_indicator_length_and_register(self):
        ref = embed_full(init_state(4, 2))
        for text in ("ababa", "aba"):  # 5 and 3 bits against N = 4
            with pytest.raises(DomainError, match="indicator length"):
                full_apply_query(ref, 1, indicator_from(text, "a"))
        for j in (0, 3, True, 1.5):
            with pytest.raises(DomainError, match="register index"):
                full_apply_query(ref, j, indicator_from("abab", "a"))

    def test_embeds_the_initial_window_superposition(self):
        # psi0 = sum_k |k, k+1, ..., k+M-1> / sqrt(K), built index by index.
        # At M = 1 all K columns share the empty tail and must add up.
        for n, m in [(4, 1), (5, 1), (4, 2), (6, 3), (5, 5)]:
            k = n - m + 1
            expected = np.zeros((n,) * m, dtype=complex)
            for col in range(k):
                expected[tuple(range(col, col + m))] = 1 / np.sqrt(k)
            assert np.array_equal(embed_full(init_state(n, m)), expected), (n, m)

    def test_diffusion_fixes_uniform_first_register(self):
        n, m = 4, 2
        ref = np.zeros((n,) * m, dtype=complex)
        ref[:, 1] = 1 / 2  # uniform first register, fixed tail
        out = full_apply_diffusion(ref)
        assert np.allclose(out, ref, atol=1e-12)

    def test_lockstep_equivalence_random_schedules(self):
        rng = np.random.default_rng(5)
        for n, m in [(4, 2), (6, 2), (6, 3), (8, 3), (4, 1), (5, 1), (5, 5)]:
            text = Text(rng.integers(0, 3, size=n))
            idx = build_index(text)
            state = init_state(n, m)
            ref = embed_full(state)
            for _ in range(50):
                if rng.random() < 0.5:
                    j = int(rng.integers(1, m + 1))
                    sym = int(rng.integers(0, 3))
                    ind = idx.indicator_for(sym)
                    state = apply_query_phase(state, j, ind)
                    ref = full_apply_query(ref, j, ind)
                else:
                    state = apply_diffusion(state)
                    ref = full_apply_diffusion(ref)
                assert np.abs(embed_full(state) - ref).max() < 1e-10

    def test_dimension_limit(self):
        with pytest.raises(ResourceError):
            embed_full(init_state(64, 5))


class TestDegenerateAndExport:
    def test_m_equals_n(self):
        state = init_state(5, 5)
        assert state.shape == (5, 1)
        out = apply_diffusion(state)
        assert abs(norm_sq(out) - 1) < 1e-10
        expected = np.full((5, 1), 2 / 5, dtype=complex)
        expected[0, 0] = 2 / 5 - 1
        assert np.allclose(out, expected)
