import tracemalloc

import numpy as np
import pytest

from qpmatch import (
    DomainError,
    Pattern,
    ResourceError,
    RunConfig,
    Text,
    build_index,
    draw_schedule,
    estimate_distribution,
    grover_step,
    init_state,
    max_iterations,
    measure_first_register,
    pad_to_power_of_two,
    run_once,
    success_probability,
    wilson_interval,
)
from qpmatch import search
from qpmatch.search import GroverSchedule, _evolve, _state_buffer, _walk_schedules, trial_rng

AMPLIFICATION_XFAIL = (
    "diffusion on the first register only cannot amplify matched windows; "
    "see README section 'A note on amplification'"
)


def planted_instance(n, m, offset, seed=0, alphabet=4):
    """Text with a planted pattern whose symbols occur nowhere else."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, alphabet, size=n)
    pat = np.arange(100, 100 + m)
    codes[offset : offset + m] = pat
    text = Text.from_codes(codes)
    return text, Pattern.from_codes(pat), build_index(text)


class TestDrawSchedule:
    def test_degenerate_bound(self):
        for seed in range(50):
            sched = draw_schedule(trial_rng(seed), 8, 8)
            assert sched.r in (0, 1)

    def test_figure_scale_bound(self):
        assert max_iterations(212, 10) == 14
        rs = {draw_schedule(trial_rng(seed), 212, 10).r for seed in range(300)}
        assert rs <= set(range(15))

    def test_j_range(self):
        for seed in range(30):
            sched = draw_schedule(trial_rng(seed), 20, 5)
            assert all(1 <= j <= 5 for j in sched.j_choices)
            assert len(sched.j_choices) == sched.r

    @pytest.mark.parametrize("r_mode", ["bogus", 2.5, True, -1])
    def test_rejects_bad_r_modes(self, r_mode):
        with pytest.raises(DomainError, match="iteration count"):
            draw_schedule(trial_rng(0), 8, 2, r_mode)

    def test_reproducible_from_seed(self):
        assert draw_schedule(trial_rng(123), 50, 4) == draw_schedule(trial_rng(123), 50, 4)

    def test_r_frequencies_uniform(self):
        # 10^5 draws; every r value within 5 sigma of the uniform expectation
        n, m = 26, 2  # K = 25, r in [0, 5]
        counts = np.zeros(6)
        trials = 100_000
        for seed in range(trials):
            counts[draw_schedule(trial_rng(seed), n, m).r] += 1
        p = 1 / 6
        sigma = np.sqrt(trials * p * (1 - p))
        assert np.abs(counts - trials * p).max() < 5 * sigma


class TestGroverStep:
    def test_absent_symbol_is_pure_diffusion(self):
        text = Text.from_codes([0, 1, 2, 1, 0])
        idx = build_index(text)
        pattern = Pattern.from_codes([9, 9])
        state = init_state(5, 2)
        from qpmatch import apply_diffusion

        out = grover_step(state, 1, pattern, idx)
        assert np.array_equal(out.amps, apply_diffusion(state).amps)

    def test_double_step_absent_symbol_is_identity(self):
        text = Text.from_codes([0, 1, 2, 1, 0])
        idx = build_index(text)
        pattern = Pattern.from_codes([9, 9])
        state = init_state(5, 2)
        out = grover_step(grover_step(state, 2, pattern, idx), 2, pattern, idx)
        assert np.allclose(out.amps, state.amps, atol=1e-12)

    @pytest.mark.xfail(strict=True, reason=AMPLIFICATION_XFAIL)
    def test_match_amplitude_grows_monotonically(self):
        # Unique exact match, j alternating between the two registers.
        text, pattern, idx = planted_instance(16, 2, 9)
        state = init_state(16, 2)
        steps = int(np.floor(np.pi / 4 * np.sqrt(15)))
        last = measure_first_register(state).probabilities[9]
        for t in range(steps):
            state = grover_step(state, 1 + t % 2, pattern, idx)
            prob = measure_first_register(state).probabilities[9]
            assert prob > last
            last = prob


class TestRunOnce:
    def test_zero_iterations_supported_region(self):
        text, pattern, idx = planted_instance(32, 4, 10)
        for trial in range(20):
            out = run_once(text, pattern, idx, seed=5, trial=trial, r_mode=0)
            assert 0 <= out.measured_position <= 28
            assert out.schedule.r == 0

    def test_deterministic(self):
        text, pattern, idx = planted_instance(40, 3, 7)
        a = run_once(text, pattern, idx, seed=77, trial=3)
        b = run_once(text, pattern, idx, seed=77, trial=3)
        assert a == b

    def test_success_flag_matches_tie_set(self):
        text, pattern, idx = planted_instance(32, 4, 10)
        out = run_once(text, pattern, idx, seed=1, trial=0)
        assert out.success == (out.measured_position == 10)


class TestEstimateDistribution:
    def test_zero_iteration_law(self):
        text, pattern, idx = planted_instance(20, 4, 3)
        config = RunConfig(trials=1, seed=0, r_mode=0)
        dist = estimate_distribution(text, pattern, idx, config)
        assert np.allclose(dist.probabilities[:17], 1 / 17, atol=1e-12)
        assert np.allclose(dist.probabilities[17:], 0)

    def test_no_match_law(self):
        # No pattern symbol occurs anywhere and r is pinned to 0: every
        # schedule yields psi0 exactly, so the estimate has zero spread.
        text = Text.from_codes(np.arange(12) % 3)
        idx = build_index(text)
        pattern = Pattern.from_codes([7, 8])
        dist = estimate_distribution(text, pattern, idx, RunConfig(trials=50, seed=4, r_mode=0))
        assert np.allclose(dist.probabilities[:11], 1 / 11, atol=1e-12)
        assert (dist.stderr[:11] < 1e-15).all()

    def test_reproducible(self):
        text, pattern, idx = planted_instance(30, 3, 12)
        config = RunConfig(trials=25, seed=9)
        a = estimate_distribution(text, pattern, idx, config)
        b = estimate_distribution(text, pattern, idx, config)
        assert np.array_equal(a.probabilities, b.probabilities)

    @pytest.mark.parametrize("r_mode", ["bogus", "cycle", 2.5, True, -1, None])
    def test_config_rejects_bad_r_modes(self, r_mode):
        with pytest.raises(DomainError, match="r mode"):
            RunConfig(trials=1, seed=0, r_mode=r_mode)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    def test_config_rejects_bad_seeds(self, seed):
        with pytest.raises(DomainError, match="seed"):
            RunConfig(trials=1, seed=seed)

    def test_config_accepts_counts(self):
        assert RunConfig(trials=1, seed=np.int64(4), r_mode=np.int64(0)).r_mode_label() == "fixed:0"
        assert RunConfig(trials=1, seed=0, r_mode=5).r_mode_label() == "fixed:5"
        assert RunConfig(trials=1, seed=0).r_mode_label() == "random"

    def test_metadata(self):
        text, pattern, idx = planted_instance(30, 3, 12)
        dist = estimate_distribution(text, pattern, idx, RunConfig(trials=5, seed=2, r_mode=3))
        assert dist.trials == 5 and dist.seed == 2 and dist.r_mode == "fixed:3"
        assert abs(dist.probabilities.sum() - 1) < 1e-9

    @pytest.mark.xfail(strict=True, reason=AMPLIFICATION_XFAIL)
    def test_exact_match_amplification(self):
        # Fixed r = floor(pi/4 sqrt(K)), j cycling: match probability > 0.5.
        text, pattern, idx = planted_instance(19, 4, 5)  # K = 16
        r = int(np.floor(np.pi / 4 * np.sqrt(16)))
        state = init_state(19, 4)
        for t in range(r):
            state = grover_step(state, 1 + t % 4, pattern, idx)
        probabilities = measure_first_register(state).probabilities
        assert probabilities[5] > 0.5


class TestSuccessProbability:
    def test_no_match_anywhere_is_symmetric(self):
        # With every query a no-op, only diffusions act; by symmetry the
        # window positions remain exchangeable even though the distribution
        # is no longer exactly the psi0 law for odd iteration counts.
        text = Text.from_codes(np.arange(12) % 3)
        idx = build_index(text)
        pattern = Pattern.from_codes([7, 8])
        dist = estimate_distribution(text, pattern, idx, RunConfig(trials=30, seed=1))
        assert np.allclose(dist.probabilities[:11], dist.probabilities[0], atol=1e-12)
        assert abs(dist.probabilities.sum() - 1) < 1e-9

    def test_degenerate_full_text_pattern(self):
        # M = N: K = 1, success means measuring position 0.
        codes = np.arange(6)
        text = Text.from_codes(codes)
        idx = build_index(text)
        pattern = Pattern.from_codes(codes)
        est = success_probability(text, pattern, idx, trials=200, seed=3)
        assert est.trials == 200
        assert 0 <= est.estimate <= 1
        assert est.wilson_low <= est.estimate <= est.wilson_high

    def test_wilson_interval(self):
        low, high = wilson_interval(50, 100)
        assert low == pytest.approx(0.4038, abs=1e-3)
        assert high == pytest.approx(0.5962, abs=1e-3)
        assert wilson_interval(0, 10)[0] == 0.0


def _edge_instances():
    """(label, text, pattern, index) covering the shapes the fused loop special-cases."""
    rng = np.random.default_rng(11)
    cases = [
        ("planted N=212", *planted_instance(212, 10, 190, seed=1)[:2]),
        ("planted N=256", *planted_instance(256, 4, 200, seed=0)[:2]),
        ("random N=255", Text.from_codes(rng.integers(0, 4, size=255)),
         Pattern.from_codes(rng.integers(0, 4, size=3))),
        ("K=2", Text.from_codes(rng.integers(0, 3, size=40)),
         Pattern.from_codes(rng.integers(0, 3, size=39))),
        ("|T|=0", Text.from_codes(rng.integers(0, 4, size=50)), Pattern.from_codes([9, 1, 2])),
        ("|T|=N", Text.from_codes(np.zeros(33, dtype=np.int64)), Pattern.from_codes([0, 1])),
    ]
    for n in (61, 97, 212):  # K = 1 at odd and even N
        codes = rng.integers(0, 4, size=n)
        cases.append((f"K=1 N={n}", Text.from_codes(codes), Pattern.from_codes(np.roll(codes, 1))))
    padded = pad_to_power_of_two(Text.from_codes(rng.integers(0, 4, size=100)), 5)
    cases.append(("padded", padded, Pattern.from_codes(rng.integers(0, 4, size=5))))
    return [(label, text, pattern, build_index(text)) for label, text, pattern in cases]


SCHEDULE_MODES = ["random", 0, 7]


def _mode_id(r_mode):
    # "<r mode>-random": the register picks are uniform in every mode.
    return f"{r_mode}-random"


def _reduced(schedule):
    return tuple(j == 1 for j in schedule.j_choices)


def _first_symbol_positions(pattern, idx):
    return idx.indicator_for(int(pattern.symbols[0])).bits.view(bool)


def _expected(n, m, schedule, pattern, idx):
    return measure_first_register(_evolve(n, m, schedule, pattern, idx)).probabilities


class TestFusedTrialLoop:
    """The prefix-shared walk must reproduce the dense complex reference bit for bit.

    Two rounding traps make ``allclose`` the wrong check: a float64 ``mean``
    divides by N where the complex128 one multiplies by 1/N, and at K = 1
    numpy's pairwise column sum unrolls differently for float64 and
    complex128.  Either slip moves probabilities by ~1e-18 and can flip an
    ``argmax`` among exactly tied positions.
    """

    @pytest.mark.parametrize("r_mode", SCHEDULE_MODES, ids=_mode_id)
    def test_schedule_probabilities_bit_identical(self, r_mode):
        for label, text, pattern, idx in _edge_instances():
            n, m = text.n, pattern.m
            amps = _state_buffer(n, m)
            in_t = _first_symbol_positions(pattern, idx)
            schedules = [draw_schedule(trial_rng(3, trial), n, m, r_mode) for trial in range(8)]
            together = _walk_schedules(amps, dict.fromkeys(map(_reduced, schedules)), in_t)
            for schedule in schedules:
                expected = _expected(n, m, schedule, pattern, idx)
                alone = _walk_schedules(amps, [_reduced(schedule)], in_t)
                assert np.array_equal(together[_reduced(schedule)], expected), (label, schedule)
                assert np.array_equal(alone[_reduced(schedule)], expected), (label, schedule)

    def test_walk_shapes(self):
        # Duplicates, a schedule that is a prefix of others, r = 0 alone and
        # in company, and keys whose j >= 2 steps use different registers.
        keys = [(), (True,), (True, False), (True, False), (True, False, True, True),
                (False, False, False), (True, False, True), (False,), (True, True, False)]
        for label, text, pattern, idx in _edge_instances():
            n, m = text.n, pattern.m
            if m < 2:
                continue
            amps = _state_buffer(n, m)
            in_t = _first_symbol_positions(pattern, idx)
            for group in (keys, [()], keys[::-1]):
                got = _walk_schedules(amps, dict.fromkeys(group), in_t)
                assert set(got) == set(group), label
                for key in group:
                    js = tuple(1 if flag else 2 + t % (m - 1) for t, flag in enumerate(key))
                    expected = _expected(n, m, GroverSchedule(js), pattern, idx)
                    assert np.array_equal(got[key], expected), (label, key)

    @pytest.mark.parametrize("r_mode", ["random", 6], ids=_mode_id)
    def test_loop_matches_separate_replays(self, r_mode):
        # The loop used to be two: one averaging distributions, one sampling
        # run_once.  Its mean, stderr and success count must equal theirs.
        trials, seed = 12, 5
        for label, text, pattern, idx in _edge_instances():
            n, m = text.n, pattern.m
            acc, acc_sq = np.zeros(n), np.zeros(n)
            for trial in range(trials):
                schedule = draw_schedule(trial_rng(seed, trial), n, m, r_mode)
                probs = measure_first_register(_evolve(n, m, schedule, pattern, idx)).probabilities
                acc += probs
                acc_sq += probs * probs
            mean = acc / trials
            stderr = np.sqrt(np.maximum(acc_sq / trials - mean**2, 0.0) / trials)
            successes = sum(
                run_once(text, pattern, idx, seed, trial, r_mode=r_mode).success
                for trial in range(trials)
            )
            config = RunConfig(trials=trials, seed=seed, r_mode=r_mode)
            dist = estimate_distribution(text, pattern, idx, config)
            assert np.array_equal(dist.probabilities, mean), label
            assert np.array_equal(dist.stderr, stderr), label
            assert dist.success.successes == successes, label
            assert dist.success == success_probability(text, pattern, idx, trials, seed, r_mode=r_mode)

    def test_same_bytes_without_checkpoint(self, monkeypatch):
        # Between 8*N*K and 16*N*K bytes the state fits but its checkpoint does not.
        text, pattern, idx = planted_instance(256, 4, 200, seed=0)
        config = RunConfig(trials=300, seed=8)
        with_checkpoint = estimate_distribution(text, pattern, idx, config)
        monkeypatch.setattr(search, "STATE_BYTES_LIMIT", 12 * 256 * 253)
        without = estimate_distribution(text, pattern, idx, config)
        assert with_checkpoint.probabilities.tobytes() == without.probabilities.tobytes()
        assert with_checkpoint.stderr.tobytes() == without.stderr.tobytes()
        assert with_checkpoint.success == without.success

    def test_k1_state_counted_at_its_complex_size(self, monkeypatch):
        # M = N keeps a complex128 buffer: 16*N bytes, not 8*N.
        n = 61
        monkeypatch.setattr(search, "STATE_BYTES_LIMIT", 12 * n)
        with pytest.raises(ResourceError, match=f"{16 * n} bytes"):
            _state_buffer(n, n)
        monkeypatch.setattr(search, "STATE_BYTES_LIMIT", 16 * n)
        assert _state_buffer(n, n).nbytes == 16 * n

    def test_fixed_r_schedules_bounded_before_drawing(self, monkeypatch):
        text, pattern, idx = planted_instance(20, 4, 3)  # K = 17
        config = RunConfig(trials=5, seed=0, r_mode=100)
        # 8 bytes per step for each of the block's 5 trials, plus two in flight.
        monkeypatch.setattr(search, "STATE_BYTES_LIMIT", 8 * 100 * 7)
        assert estimate_distribution(text, pattern, idx, config).trials == 5
        monkeypatch.setattr(search, "STATE_BYTES_LIMIT", 8 * 100 * 7 - 1)
        monkeypatch.setattr(search, "draw_schedule", None)  # never reached
        with pytest.raises(ResourceError, match="r = 100"):
            estimate_distribution(text, pattern, idx, config)

    def test_peak_memory_is_a_few_states(self):
        # One state buffer, one checkpoint and at most K stored distributions;
        # a buffer per schedule depth would take up to 17 states here.
        text, pattern, idx = planted_instance(256, 4, 200, seed=0)
        state_bytes = 8 * 256 * 253
        tracemalloc.start()
        try:
            estimate_distribution(text, pattern, idx, RunConfig(trials=64, seed=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * state_bytes
