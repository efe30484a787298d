import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpmatch import (
    DomainError,
    Pattern,
    ResourceError,
    RunConfig,
    Text,
    build_index,
    closest_match_classical,
    draw_schedule,
    estimate_distribution,
    grover_step,
    init_state,
    max_iterations,
    measure_first_register,
    recode_kgrams,
    run_once,
    success_probability,
    wilson_interval,
)
from qpmatch import search
from qpmatch.search import _evolve, _state_buffer, _walk_schedules, trial_rng
from qpmatch.simulation import NORM_TOL

AMPLIFICATION_XFAIL = (
    "diffusion on the first register only cannot amplify matched windows; "
    "see README section 'A note on amplification'"
)


M1_XFAIL = (
    "at M = 1 the K windows share the empty tail, so their columns must add coherently "
    "before squaring; ROADMAP item 10"
)


def planted_instance(n, m, offset, seed=0, alphabet=4):
    """Text with a planted pattern whose symbols occur nowhere else."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, alphabet, size=n)
    pat = np.arange(100, 100 + m)
    codes[offset : offset + m] = pat
    text = Text(codes)
    return text, Pattern(pat), build_index(text)


class TestDrawSchedule:
    def test_degenerate_bound(self):
        for seed in range(50):
            sched = draw_schedule(trial_rng(seed), 8, 8)
            assert len(sched) in (0, 1)

    def test_figure_scale_bound(self):
        assert max_iterations(212, 10) == 14
        rs = {len(draw_schedule(trial_rng(seed), 212, 10)) for seed in range(300)}
        assert rs <= set(range(15))

    def test_j_range(self):
        for seed in range(30):
            sched = draw_schedule(trial_rng(seed), 20, 5)
            assert all(1 <= j <= 5 for j in sched)
            assert len(sched) <= max_iterations(20, 5)

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
            counts[len(draw_schedule(trial_rng(seed), n, m))] += 1
        p = 1 / 6
        sigma = np.sqrt(trials * p * (1 - p))
        assert np.abs(counts - trials * p).max() < 5 * sigma


class TestGroverStep:
    def test_absent_symbol_is_pure_diffusion(self):
        text = Text([0, 1, 2, 1, 0])
        idx = build_index(text)
        pattern = Pattern([9, 9])
        state = init_state(5, 2)
        from qpmatch import apply_diffusion

        out = grover_step(state, 1, pattern, idx)
        assert np.array_equal(out, apply_diffusion(state))

    def test_double_step_absent_symbol_is_identity(self):
        text = Text([0, 1, 2, 1, 0])
        idx = build_index(text)
        pattern = Pattern([9, 9])
        state = init_state(5, 2)
        out = grover_step(grover_step(state, 2, pattern, idx), 2, pattern, idx)
        assert np.allclose(out, state, atol=1e-12)

    @pytest.mark.xfail(strict=True, reason=AMPLIFICATION_XFAIL)
    def test_match_amplitude_grows_monotonically(self):
        # Unique exact match, j alternating between the two registers.
        text, pattern, idx = planted_instance(16, 2, 9)
        state = init_state(16, 2)
        steps = int(np.floor(np.pi / 4 * np.sqrt(15)))
        last = measure_first_register(state)[9]
        for t in range(steps):
            state = grover_step(state, 1 + t % 2, pattern, idx)
            prob = measure_first_register(state)[9]
            assert prob > last
            last = prob


class TestRunOnce:
    def test_zero_iterations_supported_region(self):
        text, pattern, idx = planted_instance(32, 4, 10)
        for trial in range(20):
            out = run_once(text, pattern, idx, seed=5, trial=trial, r_mode=0)
            assert 0 <= out.measured_position <= 28
            assert out.schedule == ()

    def test_deterministic(self):
        text, pattern, idx = planted_instance(40, 3, 7)
        a = run_once(text, pattern, idx, seed=77, trial=3)
        b = run_once(text, pattern, idx, seed=77, trial=3)
        assert a == b

    def test_success_flag_matches_tie_set(self):
        text, pattern, idx = planted_instance(32, 4, 10)
        out = run_once(text, pattern, idx, seed=1, trial=0)
        assert out.success == (out.measured_position == 10)

    @pytest.mark.parametrize(
        ("seed", "trial"), [(1.5, 0), (True, 0), (-1, 0), ("3", 0), (0, -1), (0, 2.0), (0, True)]
    )
    def test_seed_and_trial_must_be_counts(self, seed, trial):
        text, pattern, idx = planted_instance(12, 2, 3)
        with pytest.raises(DomainError, match="seed and trial must be integers"):
            trial_rng(seed, trial)
        with pytest.raises(DomainError, match="seed and trial must be integers"):
            run_once(text, pattern, idx, seed=seed, trial=trial)

    def test_numpy_integer_seeds_draw_the_same_stream(self):
        assert trial_rng(np.int64(3), np.uint8(2)).random() == trial_rng(3, 2).random()


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
        text = Text(np.arange(12) % 3)
        idx = build_index(text)
        pattern = Pattern([7, 8])
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

    @pytest.mark.parametrize("trials", [0, -1, 2.5, True, "3", None])
    def test_config_rejects_bad_trials(self, trials):
        with pytest.raises(DomainError, match="trials"):
            RunConfig(trials=trials, seed=0)

    @pytest.mark.parametrize("r_mode", ["random", 0])
    def test_index_must_fit_the_text(self, r_mode):
        text, pattern, _ = planted_instance(8, 2, 3)
        other = build_index(planted_instance(9, 2, 3)[0])
        with pytest.raises(DomainError, match="indicator length does not match text length"):
            estimate_distribution(text, pattern, other, RunConfig(trials=4, seed=0, r_mode=r_mode))

    def test_config_accepts_counts(self):
        assert RunConfig(trials=1, seed=np.int64(4), r_mode=np.int64(0)).r_mode_label() == "fixed:0"
        assert RunConfig(trials=1, seed=0, r_mode=5).r_mode_label() == "fixed:5"
        assert RunConfig(trials=1, seed=0).r_mode_label() == "random"

    def test_metadata(self):
        text, pattern, idx = planted_instance(30, 3, 12)
        dist = estimate_distribution(text, pattern, idx, RunConfig(trials=5, seed=2, r_mode=3))
        assert abs(dist.probabilities.sum() - 1) < 1e-9

    @pytest.mark.parametrize("r_mode", ["random", 2])
    @pytest.mark.parametrize("pat", [[0, 1], [7, 8]], ids=["ties", "absent"])
    def test_baseline_is_the_classical_scan(self, pat, r_mode):
        text, pattern = Text(np.arange(12) % 3), Pattern(pat)
        config = RunConfig(trials=5, seed=2, r_mode=r_mode)
        dist = estimate_distribution(text, pattern, build_index(text), config)
        assert dist.baseline == closest_match_classical(text, pattern)

    @pytest.mark.xfail(strict=True, reason=AMPLIFICATION_XFAIL)
    def test_exact_match_amplification(self):
        # Fixed r = floor(pi/4 sqrt(K)), j cycling: match probability > 0.5.
        text, pattern, idx = planted_instance(19, 4, 5)  # K = 16
        r = int(np.floor(np.pi / 4 * np.sqrt(16)))
        state = init_state(19, 4)
        for t in range(r):
            state = grover_step(state, 1 + t % 4, pattern, idx)
        probabilities = measure_first_register(state)
        assert probabilities[5] > 0.5

    @pytest.mark.xfail(strict=True, reason=M1_XFAIL)
    def test_single_symbol_pattern_is_plain_grover_search(self):
        # At M = 1 every step queries register 1, so the search is Grover's
        # over N positions: one N-vector, built here from the codes alone.
        plain = (Text.from_bytes(b"abcdefghijklmnoX"), Pattern.from_bytes(b"X"))
        recoded = recode_kgrams(Text.from_bytes(b"abcdefghijklmnoXY"), Pattern.from_bytes(b"XY"), 2)
        for text, pattern in (plain, recoded):
            assert pattern.m == 1
            marked = text.symbols == pattern.symbols[0]
            for r in (1, 2, 3):
                x = np.full(text.n, 1 / np.sqrt(text.n))
                for _ in range(r):
                    x[marked] *= -1
                    x = 2 * x.mean() - x
                config = RunConfig(trials=3, seed=0, r_mode=r)
                dist = estimate_distribution(text, pattern, build_index(text), config)
                np.testing.assert_allclose(dist.probabilities, x**2, rtol=0, atol=1e-12)


class TestSuccessProbability:
    def test_no_match_anywhere_is_symmetric(self):
        # With every query a no-op, only diffusions act; by symmetry the
        # window positions remain exchangeable even though the distribution
        # is no longer exactly the psi0 law for odd iteration counts.
        text = Text(np.arange(12) % 3)
        idx = build_index(text)
        pattern = Pattern([7, 8])
        dist = estimate_distribution(text, pattern, idx, RunConfig(trials=30, seed=1))
        assert np.allclose(dist.probabilities[:11], dist.probabilities[0], atol=1e-12)
        assert abs(dist.probabilities.sum() - 1) < 1e-9

    def test_degenerate_full_text_pattern(self):
        # M = N: K = 1, success means measuring position 0.
        codes = np.arange(6)
        text = Text(codes)
        idx = build_index(text)
        pattern = Pattern(codes)
        est = success_probability(text, pattern, idx, trials=200, seed=3)
        assert est.trials == 200
        assert 0 <= est.estimate <= 1
        assert est.wilson_low <= est.estimate <= est.wilson_high

    def test_wilson_interval(self):
        low, high = wilson_interval(50, 100)
        assert low == pytest.approx(0.4038, abs=1e-3)
        assert high == pytest.approx(0.5962, abs=1e-3)
        assert wilson_interval(0, 10)[0] == 0.0

    @pytest.mark.parametrize(("successes", "trials"), [(5, 3), (-1, 3), (0, 0)])
    def test_wilson_interval_rejects_counts_outside_the_domain(self, successes, trials):
        with pytest.raises(DomainError):
            wilson_interval(successes, trials)


def _edge_instances():
    """(label, text, pattern, index) covering the shapes the fused loop special-cases."""
    rng = np.random.default_rng(11)
    cases = [
        ("planted N=212", *planted_instance(212, 10, 190, seed=1)[:2]),
        ("planted N=256", *planted_instance(256, 4, 200, seed=0)[:2]),
        ("random N=255", Text(rng.integers(0, 4, size=255)),
         Pattern(rng.integers(0, 4, size=3))),
        ("K=2", Text(rng.integers(0, 3, size=40)),
         Pattern(rng.integers(0, 3, size=39))),
        ("|T|=0", Text(rng.integers(0, 4, size=50)), Pattern([9, 1, 2])),
        ("|T|=N", Text(np.zeros(33, dtype=np.int64)), Pattern([0, 1])),
    ]
    for n in (61, 97, 212):  # K = 1 at odd and even N
        codes = rng.integers(0, 4, size=n)
        cases.append((f"K=1 N={n}", Text(codes), Pattern(np.roll(codes, 1))))
    # The last 33 positions hold a code that no pattern position holds.
    tail = Text(np.concatenate([rng.integers(0, 4, size=100), np.full(33, 4)]))
    cases.append(("never-matching tail", tail, Pattern(rng.integers(0, 4, size=5))))
    cases.append(("M=1", Text(rng.integers(0, 4, size=40)), Pattern([1])))
    return [(label, text, pattern, build_index(text)) for label, text, pattern in cases]


SCHEDULE_MODES = ["random", 0, 7]


def _mode_id(r_mode):
    # "<r mode>-random": the register picks are uniform in every mode.
    return f"{r_mode}-random"


def _reduced(schedule):
    return tuple(j == 1 for j in schedule)


def _first_symbol_positions(pattern, idx):
    return idx.indicator_for(int(pattern.symbols[0])).view(bool)


def _expected(n, m, schedule, pattern, idx):
    return measure_first_register(_evolve(n, m, schedule, pattern, idx))


def _schedule_of(key, m):
    """A schedule whose reduced schedule is ``key``, its j >= 2 steps cycling over registers 2..M (M >= 2)."""
    return tuple(1 if flag else 2 + t % (m - 1) for t, flag in enumerate(key))


def _prefix_count(keys):
    """The distinct non-empty prefixes of ``keys``: the nodes of their trie below the root."""
    return len({key[:depth] for key in keys for depth in range(1, len(key) + 1)})


#: Small edge shapes on which the dense reference is cheap; every j >= 2 has a register to use.
SMALL_INSTANCES = [case for case in _edge_instances() if case[1].n <= 64 and case[2].m >= 2]

#: Fixed reduced schedules: none, single flips and steps, runs and alternations.
THREE_VALUE_KEYS = [(), (True,), (False,), (True, True), (True, False, True),
                    (False, True, False, True), (True,) * 5, (True, False) * 4]


@st.composite
def _key_lists(draw):
    """Reduced schedules with duplicates, prefixes of one another and ``()`` among them."""
    keys = draw(st.lists(st.lists(st.booleans(), max_size=6).map(tuple), min_size=1, max_size=6))
    cuts = draw(st.lists(st.tuples(st.sampled_from(keys), st.integers(0, 6)), max_size=4))
    return keys + [key[:cut] for key, cut in cuts]


def _tiny_instances():
    """Edge shapes as in ``SMALL_INSTANCES`` (K = 2, |T| = 0, |T| = N, K = 1) at N <= 16, where deep keys
    keep the dense reference cheap."""
    rng = np.random.default_rng(13)
    cases = [
        ("planted N=16", *planted_instance(16, 3, 9, seed=2)[:2]),
        ("K=2", Text(rng.integers(0, 3, size=12)), Pattern(rng.integers(0, 3, size=11))),
        ("|T|=0", Text(rng.integers(0, 4, size=10)), Pattern([9, 1, 2])),
        ("|T|=N", Text(np.zeros(8, dtype=np.int64)), Pattern([0, 1])),
    ]
    for n in (7, 8):  # K = 1 at odd and even N
        codes = rng.integers(0, 4, size=n)
        cases.append((f"K=1 N={n}", Text(codes), Pattern(np.roll(codes, 1))))
    return [(label, text, pattern, build_index(text)) for label, text, pattern in cases]


TINY_INSTANCES = _tiny_instances()

#: Branches at depths 3, 4 and 5 of one path, each walked while the shallower ones wait stacked.
NESTED_BRANCHES = [(False, True, False, True, True, False, True), (False, True, False, False, False),
                   (False, True, False, True, False, False), (False, True, False, True, True, True),
                   (False, True, False), (False,)]


@st.composite
def _deep_key_lists(draw):
    """1-8 keys of up to 40 steps.  Each key after the first is cut from one before it and then
    extended, or branched off it at the cut, so runs nest many levels deep on the walk's stack."""
    keys = [draw(st.lists(st.booleans(), max_size=40).map(tuple))]
    for _ in range(draw(st.integers(0, 7))):
        stem = draw(st.sampled_from(keys))
        cut = len(stem) - draw(st.integers(0, len(stem)))  # shrinks toward deep cuts
        branch = (not stem[cut],) if cut < len(stem) and draw(st.booleans()) else ()
        keys.append(stem[:cut] + branch + tuple(draw(st.lists(st.booleans(), max_size=39 - cut))))
    return keys


class _ReadCounter(tuple):
    """A reduced schedule that counts the flags read from it by index or by slice."""

    reads = 0

    def __getitem__(self, index):
        item = super().__getitem__(index)
        _ReadCounter.reads += len(item) if isinstance(index, slice) else 1
        return item


class _StepCounter(np.ndarray):
    """A float64 state buffer that counts the walk's diffusion steps per measured key.

    Each step takes one column sum, ``sum(axis=0)``, and each measurement one
    row sum, ``sum(axis=1)``, which closes the count of the key it measures.
    """

    steps, costs = 0, []

    def sum(self, *args, **kwargs):
        if kwargs.get("axis") == 0:
            _StepCounter.steps += 1
        elif kwargs.get("axis") == 1:
            _StepCounter.costs.append(_StepCounter.steps)
            _StepCounter.steps = 0
        return super().sum(*args, **kwargs)


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
                    expected = _expected(n, m, _schedule_of(key, m), pattern, idx)
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
                probs = measure_first_register(_evolve(n, m, schedule, pattern, idx))
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
        # The budget holds the N x K scratch, the working (3, K) state, the initial one and
        # `kept` checkpoints.  A node it cannot hold is replayed: more steps, the same bytes.
        text, pattern, idx = planted_instance(256, 4, 200, seed=0)
        in_t = _first_symbol_positions(pattern, idx)
        keys = dict.fromkeys(_reduced(draw_schedule(trial_rng(8, t), 256, 4)) for t in range(253))
        config = RunConfig(trials=300, seed=8)
        with_checkpoints = estimate_distribution(text, pattern, idx, config)
        walked = _walk_schedules(_state_buffer(256, 4), keys, in_t)
        steps = []
        for kept in (0, 1, 2, 3):
            monkeypatch.setattr(search, "STATE_BYTES_LIMIT", 8 * 256 * 253 + (kept + 2) * 8 * 3 * 253)
            squeezed = estimate_distribution(text, pattern, idx, config)
            assert with_checkpoints.probabilities.tobytes() == squeezed.probabilities.tobytes(), kept
            assert with_checkpoints.stderr.tobytes() == squeezed.stderr.tobytes(), kept
            assert with_checkpoints.success == squeezed.success, kept
            _StepCounter.steps, _StepCounter.costs = 0, []
            got = _walk_schedules(_state_buffer(256, 4).view(_StepCounter), keys, in_t)
            assert all(got[key].tobytes() == walked[key].tobytes() for key in keys), kept
            steps.append(sum(_StepCounter.costs))
        # A stacked run the budget cannot hold replays from the deepest state kept, but a key
        # still shares the walk of the key it extends: the steps lie between one per trie node
        # and one per step of each key, and each checkpoint kept saves some.
        assert all(_prefix_count(keys) <= step <= sum(map(len, keys)) for step in steps)
        assert steps == sorted(steps, reverse=True)
        assert steps == [1220, 995, 710, 591]

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
        assert estimate_distribution(text, pattern, idx, config).success.trials == 5
        monkeypatch.setattr(search, "STATE_BYTES_LIMIT", 8 * 100 * 7 - 1)
        monkeypatch.setattr(search, "draw_schedule", None)  # never reached
        with pytest.raises(ResourceError, match="r = 100"):
            estimate_distribution(text, pattern, idx, config)

    def test_walk_shares_prefixes(self):
        # Blocks of 16 trials, as one search-small command runs them.  Each distinct non-empty
        # prefix costs one step, and the total is pinned, so a change that loses sharing shows here.
        total = own = 0
        for n, m, offset, seed in ((256, 4, 200, 0), (212, 10, 190, 1)):
            _, pattern, idx = planted_instance(n, m, offset, seed=seed)
            in_t = _first_symbol_positions(pattern, idx)
            for mc_seed in range(4):
                keys = dict.fromkeys(_reduced(draw_schedule(trial_rng(mc_seed, t), n, m)) for t in range(16))
                _StepCounter.steps, _StepCounter.costs = 0, []
                got = _walk_schedules(_state_buffer(n, m).view(_StepCounter), keys, in_t)
                assert len(_StepCounter.costs) == len(keys)
                # The dict is filled in walk order, one key per measurement.
                for key, cost in zip(got, _StepCounter.costs):
                    assert cost <= len(key), (n, mc_seed, key)
                assert sum(_StepCounter.costs) == _prefix_count(keys), (n, mc_seed)
                total += sum(_StepCounter.costs)
                own += sum(map(len, keys))
        assert (total, own) == (559, 1005)

    def test_peak_memory_is_a_few_states(self):
        # One N x K scratch buffer, a stack of 3K-float checkpoints and at most K stored
        # distributions; an N x K buffer per schedule depth would take up to 17 states here.
        text, pattern, idx = planted_instance(256, 4, 200, seed=0)
        state_bytes = 8 * 256 * 253
        tracemalloc.start()
        try:
            estimate_distribution(text, pattern, idx, RunConfig(trials=64, seed=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * state_bytes

    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(case=st.sampled_from(SMALL_INSTANCES), keys=_key_lists())
    def test_walk_property(self, case, keys):
        # Any key set: each distribution is the dense reference's, byte for byte, and the walk
        # takes one step per node of the keys' trie.
        label, text, pattern, idx = case
        n, m = text.n, pattern.m
        _StepCounter.steps, _StepCounter.costs = 0, []
        amps = _state_buffer(n, m).view(_StepCounter)
        got = _walk_schedules(amps, dict.fromkeys(keys), _first_symbol_positions(pattern, idx))
        assert set(got) == set(keys), label
        assert sum(_StepCounter.costs) == _prefix_count(keys), label
        for key in got:
            assert got[key].tobytes() == _expected(n, m, _schedule_of(key, m), pattern, idx).tobytes(), (label, key)

    @settings(derandomize=True, deadline=None, max_examples=30, database=None)
    @given(case=st.sampled_from(TINY_INSTANCES), keys=_deep_key_lists(),
           kept=st.sampled_from([0, 1, 2, 3, None]))
    @example(case=TINY_INSTANCES[0], keys=NESTED_BRANCHES, kept=1)
    @example(case=TINY_INSTANCES[-1], keys=NESTED_BRANCHES, kept=2)
    def test_deep_keys_under_a_squeezed_budget(self, case, keys, kept):
        # A budget of `kept` checkpoints (None: no bound) stacks runs without a state, which
        # replay from whichever state is kept deepest below them, the initial one or a checkpoint
        # (at depth 3 or 4 for the explicit examples).
        label, text, pattern, idx = case
        n, m = text.n, pattern.m
        amps = _state_buffer(n, m)
        limit = search.STATE_BYTES_LIMIT if kept is None else amps.nbytes + (kept + 2) * 3 * amps[0].nbytes
        with mock.patch.object(search, "STATE_BYTES_LIMIT", limit):
            got = _walk_schedules(amps, dict.fromkeys(keys), _first_symbol_positions(pattern, idx))
        assert set(got) == set(keys), label
        for key in got:
            assert got[key].tobytes() == _expected(n, m, _schedule_of(key, m), pattern, idx).tobytes(), (label, key)

    def test_walk_reads_a_few_flags_per_step(self):
        # The keys below a trie node are a run of the sorted keys, so the walk finds each branch
        # by comparing the run's first and last keys at one depth: a constant number of flags
        # read per step, where a prefix sliced at every step reads r / 2 and makes the walk r^2.
        _, pattern, idx = planted_instance(8, 2, 3, seed=0)
        rng = np.random.default_rng(5)
        stems = [tuple((rng.random(4000) < 0.5).tolist()) for _ in range(3)]
        keys = dict.fromkeys(map(_ReadCounter, stems + [stems[0][:2500] + stems[1][2500:]]))
        _StepCounter.steps, _StepCounter.costs, _ReadCounter.reads = 0, [], 0
        _walk_schedules(_state_buffer(8, 2).view(_StepCounter), keys, _first_symbol_positions(pattern, idx))
        steps, reads = sum(_StepCounter.costs), _ReadCounter.reads
        assert len(_StepCounter.costs) == len(keys) and steps > 3 * 4000
        assert reads <= 3 * steps, reads / steps

    def test_dense_columns_hold_three_values(self):
        # What the walk keeps of the reference: column k of the dense state holds one float on
        # row k, one on the other rows of k's class (in T or not) and one on the other class.
        for label, text, pattern, idx in _edge_instances():
            n, m = text.n, pattern.m
            k = n - m + 1
            in_t = _first_symbol_positions(pattern, idx)
            role = np.where(in_t[:, None] == in_t[None, :k], 1, 2)
            role[np.arange(k), np.arange(k)] = 0
            for key in THREE_VALUE_KEYS:
                schedule = _schedule_of(key, m) if m > 1 else (1,) * len(key)
                bits = _evolve(n, m, schedule, pattern, idx).view(np.uint64).reshape(n, k, 2)
                for r in (1, 2):
                    held = bits[np.argmax(role == r, axis=0), np.arange(k)]  # a row of role r, if any
                    assert ((bits == held).all(axis=2) | (role != r)).all(), (label, key, r)


GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def _golden_shapes():
    """(label, text, pattern, config) of each ``tests/golden`` search, built through the library."""
    planted256 = Text.from_file(GOLDEN_INPUTS / "planted256.bin")
    planted212 = Text.from_file(GOLDEN_INPUTS / "planted212.bin")
    pattern212 = Pattern.from_bytes((GOLDEN_INPUTS / "planted212.pat").read_bytes())
    wxyz = Pattern.from_bytes(b"wxyz")
    return [
        ("planted256", planted256, wxyz, RunConfig(100, 42)),
        ("planted212", planted212, pattern212, RunConfig(60, 7)),
        ("kgram2", *recode_kgrams(planted256, wxyz, 2), RunConfig(50, 3)),
        ("fixed0", planted212, pattern212, RunConfig(20, 1, 0)),
        ("fixed5", planted256, wxyz, RunConfig(30, 5, 5)),
        ("m_equals_n", Text.from_file(GOLDEN_INPUTS / "short61.bin"),
         Pattern.from_bytes((GOLDEN_INPUTS / "short61.pat").read_bytes()), RunConfig(40, 11)),
        ("absent_first_symbol", planted256, Pattern.from_bytes(b"Qxyz"), RunConfig(40, 2)),
        ("repeated_symbol", Text.from_file(GOLDEN_INPUTS / "repeated100.bin"),
         Pattern.from_bytes(b"abca"), RunConfig(40, 9)),
    ]


def _health_cases():
    for label, text, pattern, idx in _edge_instances():
        for r_mode in SCHEDULE_MODES:
            yield f"{label} {_mode_id(r_mode)}", text, pattern, idx, RunConfig(12, 5, r_mode)
    for label, text, pattern, config in _golden_shapes():
        yield label, text, pattern, build_index(text), config


class TestNumericalHealth:
    def test_distributions_sum_to_one(self, monkeypatch):
        # Every distribution the walk measures, and every averaged estimate,
        # is a probability vector within simulation.NORM_TOL.
        walked = []

        def recording_walk(amps, keys, in_t):
            distributions = _walk_schedules(amps, keys, in_t)
            walked.extend(distributions.values())
            return distributions

        monkeypatch.setattr(search, "_walk_schedules", recording_walk)
        for label, text, pattern, idx, config in _health_cases():
            walked.clear()
            dist = estimate_distribution(text, pattern, idx, config)
            assert walked, label
            for probs in walked:
                assert abs(probs.sum() - 1.0) <= NORM_TOL, label
            assert abs(dist.probabilities.sum() - 1.0) <= NORM_TOL, label


def _exact_walk(n, k, in_t, key):
    """The walk of one reduced schedule in exact integers: (c, K·N^(2t)) with p_i = Σ_k c_ik² / (K·N^(2t)).

    Scaled by √K·N^t the amplitudes are integers: the initial state is the identity on the first
    K rows, a ``j = 1`` step negates the rows of T, and the diffusion maps c to 2·colsum(c) − N·c.
    Python integers in numpy object arrays keep every value exact.
    """
    c = np.zeros((n, k), dtype=object)
    c[np.arange(k), np.arange(k)] = 1
    for j1 in key:
        if j1:
            c[in_t] = -c[in_t]
        c = 2 * c.sum(axis=0) - n * c
    return (c * c).sum(axis=1), k * n ** (2 * len(key))


def _exact_class_walk(n, k, in_t, key):
    """:func:`_exact_walk` from three integers per column type, in O(r) steps per key instead of O(r·N·K).

    Every column of one type, in T or not, holds the same x on its own row, y on the other rows
    of its class and z on the rows of the other class, so its sum is x + (c_same − 1)·y + c_other·z.
    """
    size = {True: int(np.count_nonzero(in_t)), False: n - int(np.count_nonzero(in_t))}
    columns = {True: (1, 0, 0), False: (1, 0, 0)}  # (x, y, z) of a column in T and of one outside
    for j1 in key:
        for c, (x, y, z) in columns.items():
            if j1:  # the rows of T flip: x and y of a column in T, z of a column outside
                x, y, z = (-x, -y, z) if c else (x, y, -z)
            total = x + (size[c] - 1) * y + (n - size[c]) * z
            columns[c] = (2 * total - n * x, 2 * total - n * y, 2 * total - n * z)
    own = {True: int(np.count_nonzero(in_t[:k])), False: k - int(np.count_nonzero(in_t[:k]))}

    def numerator(c, diagonal):  # row of class c; ``diagonal`` when it is also a column, i < K
        x, y, _ = columns[c]
        return diagonal * x * x + (own[c] - diagonal) * y * y + own[not c] * columns[not c][2] ** 2

    values = {(c, d): numerator(c, d) for c in (True, False) for d in (0, 1)}
    numerators = np.array([values[bool(in_t[i]), int(i < k)] for i in range(n)], dtype=object)
    return numerators, k * n ** (2 * len(key))


class TestExactReference:
    """The float walk against Grover's iteration in exact integer arithmetic."""

    #: Largest distance, in units of the spacing of floats at 1/K, from a walked probability to the
    #: correctly rounded exact one; the keys below reach 8.
    ULPS = 16

    @staticmethod
    def _keys(n, m):
        return dict.fromkeys(_reduced(draw_schedule(trial_rng(1, t), n, m)) for t in range(4))

    def test_class_walk_equals_the_exact_walk(self):
        for label, text, pattern, idx in _edge_instances():
            n, m = text.n, pattern.m
            k = n - m + 1
            in_t = _first_symbol_positions(pattern, idx)
            # Any row permutation keeping T and the first K rows commutes with the walk, so the
            # exact value depends only on (i in T, i < K).
            classes = in_t * 2 + (np.arange(n) < k)
            for key in self._keys(n, m):
                numerators, denominator = _exact_walk(n, k, in_t, key)
                assert sum(numerators) == denominator, (label, key)
                assert all(len(set(numerators[classes == c])) <= 1 for c in range(4)), (label, key)
                by_class = _exact_class_walk(n, k, in_t, key)
                assert (list(by_class[0]), by_class[1]) == (list(numerators), denominator), (label, key)

    def test_walk_within_ulps_of_the_exact_reference(self):
        for label, text, pattern, idx in _edge_instances():
            n, m = text.n, pattern.m
            k = n - m + 1
            in_t = _first_symbol_positions(pattern, idx)
            keys = self._keys(n, m)
            walked = _walk_schedules(_state_buffer(n, m), keys, in_t)
            for key in keys:
                numerators, denominator = _exact_class_walk(n, k, in_t, key)
                exact = np.array([x / denominator for x in numerators])  # int / int rounds correctly
                assert np.abs(walked[key] - exact).max() <= self.ULPS * np.spacing(1 / k), (label, key)

    def test_printed_argmax_lies_in_the_exact_maximum_class(self):
        # Each golden: the exact mean over its trials' schedules, as integers over one denominator.
        for label, text, pattern, config in _golden_shapes():
            n, m = text.n, pattern.m
            in_t = _first_symbol_positions(pattern, build_index(text))
            keys = [_reduced(draw_schedule(trial_rng(config.seed, t), n, m, config.r_mode))
                    for t in range(config.trials)]
            depth = max(map(len, keys))
            total = sum(_exact_class_walk(n, n - m + 1, in_t, key)[0] * n ** (2 * (depth - len(key)))
                        for key in keys)
            printed = (GOLDEN_INPUTS.parent / f"{label}.stdout").read_text().splitlines()[0]
            assert printed.startswith("measured argmax: "), label
            assert total[int(printed.split()[-1])] == max(total), label
