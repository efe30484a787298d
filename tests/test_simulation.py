import io

import numpy as np
import pytest

from qpmatch import (
    DomainError,
    ResourceError,
    SymbolIndicator,
    Text,
    TailEntangledState,
    apply_diffusion,
    apply_query_phase,
    build_index,
    embed_full,
    export_snapshot_csv,
    full_apply_diffusion,
    full_apply_query,
    full_init_state,
    init_state,
    measure_first_register,
)


def indicator_from(text: str, symbol: str) -> SymbolIndicator:
    return build_index(Text.from_bytes(text.encode())).indicator_for(ord(symbol))


def random_state(n, m, rng) -> TailEntangledState:
    amps = rng.normal(size=(n, n - m + 1)) + 1j * rng.normal(size=(n, n - m + 1))
    amps /= np.linalg.norm(amps)
    return TailEntangledState(n, m, amps)


class TestInitState:
    def test_n4_m2(self):
        state = init_state(4, 2)
        nz = {(i, k) for i, k in zip(*np.nonzero(state.amps))}
        assert nz == {(0, 0), (1, 1), (2, 2)}
        assert np.allclose(state.amps[0, 0], 1 / np.sqrt(3))

    def test_single_cell(self):
        state = init_state(1, 1)
        assert state.amps.shape == (1, 1)
        assert state.amps[0, 0] == 1

    def test_figure_scale(self):
        state = init_state(212, 10)
        nz = np.nonzero(state.amps)
        assert len(nz[0]) == 203
        assert np.allclose(state.amps[nz], 1 / np.sqrt(203))

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
        ind = SymbolIndicator(0, np.packbits(bits), len(bits))
        out = apply_query_phase(state, 1, ind)
        assert np.array_equal(out.amps, state.amps)

    def test_involution(self):
        rng = np.random.default_rng(0)
        state = random_state(6, 3, rng)
        bits = rng.integers(0, 2, size=6).astype(np.uint8)
        ind = SymbolIndicator(0, np.packbits(bits), len(bits))
        for j in (1, 2, 3):
            twice = apply_query_phase(apply_query_phase(state, j, ind), j, ind)
            assert np.array_equal(twice.amps, state.amps)

    def test_tail_register_position(self):
        # N=4, M=2: symbol present only at position 2, queried at register 2.
        # Tail k=1 holds position 2, so only entry (1, 1) of psi0 flips.
        state = init_state(4, 2)
        bits = np.array([0, 0, 1, 0], dtype=np.uint8)
        ind = SymbolIndicator(0, np.packbits(bits), len(bits))
        out = apply_query_phase(state, 2, ind)
        expected = state.amps.copy()
        expected[1, 1] *= -1
        assert np.array_equal(out.amps, expected)

    def test_register_out_of_range(self):
        state = init_state(4, 2)
        bits = np.zeros(4, dtype=np.uint8)
        ind = SymbolIndicator(0, np.packbits(bits), len(bits))
        with pytest.raises(DomainError):
            apply_query_phase(state, 3, ind)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        state = random_state(7, 3, rng)
        bits = rng.integers(0, 2, size=7).astype(np.uint8)
        ind = SymbolIndicator(0, np.packbits(bits), len(bits))
        out = apply_query_phase(state, 2, ind)
        assert abs(out.norm_sq() - 1) < 1e-10


class TestDiffusion:
    def test_fixes_uniform_columns(self):
        n, m = 5, 2
        amps = np.full((n, n - m + 1), 1 / np.sqrt(n * (n - m + 1)), dtype=complex)
        state = TailEntangledState(n, m, amps)
        out = apply_diffusion(state)
        assert np.allclose(out.amps, state.amps, atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(2)
        state = random_state(8, 3, rng)
        twice = apply_diffusion(apply_diffusion(state))
        assert np.allclose(twice.amps, state.amps, atol=1e-12)

    def test_point_mass_formula(self):
        n, m = 6, 2
        amps = np.zeros((n, n - m + 1), dtype=complex)
        amps[2, 3] = 1.0
        out = apply_diffusion(TailEntangledState(n, m, amps))
        expected = np.zeros_like(amps)
        expected[:, 3] = 2 / n
        expected[2, 3] = 2 / n - 1
        assert np.allclose(out.amps, expected, atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        state = random_state(9, 4, rng)
        assert abs(apply_diffusion(state).norm_sq() - 1) < 1e-10


class TestMeasurement:
    def test_initial_state_uniform_prefix(self):
        probs = measure_first_register(init_state(4, 2)).probabilities
        assert np.allclose(probs[:3], 1 / 3)
        assert probs[3] == 0

    def test_point_mass(self):
        amps = np.zeros((5, 3), dtype=complex)
        amps[4, 1] = 1.0
        probs = measure_first_register(TailEntangledState(5, 3, amps)).probabilities
        assert probs[4] == 1 and probs.sum() == 1

    def test_matches_full_reference_marginal(self):
        rng = np.random.default_rng(4)
        for n, m in [(5, 2), (6, 3), (8, 3)]:
            state = random_state(n, m, rng)
            ref = embed_full(state)
            marginal = np.abs(ref.amps.reshape(n, -1)) ** 2
            assert np.allclose(
                measure_first_register(state).probabilities, marginal.sum(axis=1), atol=1e-10
            )


class TestFullReference:
    def test_query_involution(self):
        ref = full_init_state(5, 2)
        ind = indicator_from("ababa", "a")
        twice = full_apply_query(full_apply_query(ref, 2, ind), 2, ind)
        assert np.array_equal(twice.amps, ref.amps)

    def test_diffusion_fixes_uniform_first_register(self):
        n, m = 4, 2
        vec = np.zeros(n**m, dtype=complex)
        vec.reshape(n, n)[:, 1] = 1 / 2  # uniform first register, fixed tail
        from qpmatch import FullStateReference

        ref = FullStateReference(n, m, vec)
        out = full_apply_diffusion(ref)
        assert np.allclose(out.amps, ref.amps, atol=1e-12)

    def test_lockstep_equivalence_random_schedules(self):
        rng = np.random.default_rng(5)
        for n, m in [(4, 2), (6, 2), (6, 3), (8, 3)]:
            text = Text.from_codes(rng.integers(0, 3, size=n))
            idx = build_index(text)
            state = init_state(n, m)
            ref = full_init_state(n, m)
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
                assert np.abs(embed_full(state).amps - ref.amps).max() < 1e-10

    def test_dimension_limit(self):
        with pytest.raises(ResourceError):
            full_init_state(64, 5)


class TestDegenerateAndExport:
    def test_m_equals_n(self):
        state = init_state(5, 5)
        assert state.k == 1
        out = apply_diffusion(state)
        assert abs(out.norm_sq() - 1) < 1e-10
        expected = np.full((5, 1), 2 / 5, dtype=complex)
        expected[0, 0] = 2 / 5 - 1
        assert np.allclose(out.amps, expected)

    def test_snapshot_csv(self):
        state = init_state(4, 2)
        buf = io.StringIO()
        export_snapshot_csv(state, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "i,k,re,im"
        assert len(lines) == 4  # header + three nonzero entries
        i, k, re, im = lines[1].split(",")
        assert (int(i), int(k)) == (0, 0)
        assert float(re) == pytest.approx(1 / np.sqrt(3))
        assert float(im) == 0.0
