"""The randomized closest-match search and its Monte Carlo estimators.

Randomness uses numpy's PCG64 generator.  The stream-splitting rule is:
trial t of a run seeded with s draws from ``default_rng([s, t])``, so trials
are independent, order-insensitive and bit-reproducible across platforms.
Within one trial a single generator serves, in order: the iteration count r,
the r register choices j, then the measurement sample.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError, _is_count
from .simulation import (
    STATE_BYTES_LIMIT,
    apply_diffusion,
    apply_query_phase,
    init_state,
    measure_first_register,
)
from .text import ClassicalMatchResult, OracleIndex, Pattern, Text, closest_match_classical

R_MODE_RANDOM = "random"
WILSON_Z = 1.959963984540054  # the two-sided 95% standard normal quantile


@dataclass(frozen=True)
class RunConfig:
    """Knobs of a Monte Carlo estimation run."""

    trials: int
    seed: int
    r_mode: object = R_MODE_RANDOM  # "random" or an int for a fixed count

    def __post_init__(self):
        if not _is_count(self.trials) or self.trials < 1:
            raise DomainError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not _is_count(self.seed):
            raise DomainError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.r_mode != R_MODE_RANDOM and not _is_count(self.r_mode):
            raise DomainError(f"r mode must be {R_MODE_RANDOM!r} or an integer >= 0, got {self.r_mode!r}")

    def r_mode_label(self) -> str:
        return self.r_mode if self.r_mode == R_MODE_RANDOM else f"fixed:{int(self.r_mode)}"


@dataclass(frozen=True)
class RunOutcome:
    """One measured position plus the schedule, the register picks j of its r steps, that produced it."""

    measured_position: int
    schedule: tuple
    success: bool


@dataclass(frozen=True)
class SuccessEstimate:
    """Empirical success fraction with its Wilson 95% interval."""

    successes: int
    trials: int
    estimate: float
    wilson_low: float
    wilson_high: float


@dataclass(frozen=True)
class MatchDistribution:
    """Measured position probabilities averaged over a run's trials, the main observable output."""

    probabilities: np.ndarray
    stderr: np.ndarray
    #: Sampled success of the same trials, counted against ``baseline``'s tie set.
    success: SuccessEstimate
    baseline: ClassicalMatchResult


def max_iterations(n: int, m: int) -> int:
    """Upper end of the iteration draw, floor(sqrt(N - M + 1))."""
    return math.isqrt(n - m + 1)


def trial_rng(seed: int, trial: int = 0) -> np.random.Generator:
    """Generator for one trial under the documented stream-splitting rule."""
    if not (_is_count(seed) and _is_count(trial)):
        raise DomainError(f"seed and trial must be integers >= 0, got {seed!r} and {trial!r}")
    return np.random.default_rng([seed, trial])


def draw_schedule(rng: np.random.Generator, n: int, m: int, r_mode=R_MODE_RANDOM) -> tuple:
    """Draw r uniform on [0, floor(sqrt(N-M+1))] (or fixed); the schedule is r picks j uniform on [1, M]."""
    if not 1 <= m <= n:
        raise DomainError(f"require 1 <= M <= N, got M={m}, N={n}")
    if r_mode == R_MODE_RANDOM:
        r = int(rng.integers(0, max_iterations(n, m) + 1))
    elif _is_count(r_mode):
        r = int(r_mode)
    else:
        raise DomainError(f"fixed iteration count must be an integer >= 0, got {r_mode!r}")
    return tuple(rng.integers(1, m + 1, size=r).tolist())


def grover_step(state: np.ndarray, j: int, pattern: Pattern, index: OracleIndex) -> np.ndarray:
    """One iteration: query phase for pattern symbol j, then diffusion."""
    indicator = index.indicator_for(int(pattern.symbols[j - 1]))
    return apply_diffusion(apply_query_phase(state, j, indicator))


def _evolve(n, m, schedule, pattern, index) -> np.ndarray:
    state = init_state(n, m)
    for j in schedule:
        state = grover_step(state, j, pattern, index)
    return state


def run_once(
    text: Text,
    pattern: Pattern,
    index: OracleIndex,
    seed: int,
    trial: int = 0,
    r_mode=R_MODE_RANDOM,
) -> RunOutcome:
    """Execute the full algorithm once and sample a single measured position."""
    rng = trial_rng(seed, trial)
    schedule = draw_schedule(rng, text.n, pattern.m, r_mode)
    state = _evolve(text.n, pattern.m, schedule, pattern, index)
    probs = measure_first_register(state)
    position = int(rng.choice(text.n, p=probs / probs.sum()))
    ties = set(closest_match_classical(text, pattern).offsets)
    return RunOutcome(position, schedule, position in ties)


def _state_buffer(n: int, m: int) -> np.ndarray:
    """The N x K scratch that :func:`_walk_schedules` fills for its ordered sums, size-checked first."""
    k = n - m + 1
    # Every operator is real, so float64 holds the reference's exact values.
    # At K = 1 numpy sums the single contiguous column pairwise, and its
    # unrolling differs between float64 and complex128: keep complex there.
    dtype = np.dtype(np.complex128 if k == 1 else np.float64)
    nbytes = dtype.itemsize * n * k
    if nbytes > STATE_BYTES_LIMIT:
        raise ResourceError(f"search state of {nbytes} bytes (N={n}, K={k}, {dtype}) "
                            f"exceeds {STATE_BYTES_LIMIT}")
    return np.empty((n, k), dtype=dtype)


def _walk_schedules(amps: np.ndarray, keys, in_t: np.ndarray) -> dict:
    """``measure_first_register(_evolve(...))`` of each reduced schedule, bit for bit.

    A reduced schedule is the tuple of ``j == 1`` flags of a schedule's steps:
    the j >= 2 queries are skipped, because each negates whole columns
    exactly, the diffusion of a negated column is the exact negation of its
    diffusion (IEEE rounding is symmetric under sign), and |amp|^2 drops the
    sign.  ``keys`` are distinct reduced schedules; ``in_t`` marks the
    positions of the pattern's first symbol.

    Column k of the dense state holds three floats: one on row k, one on the
    other rows outside T and one on the other rows in T.  They start so, and
    a flip negates the rows of T while the diffusion maps every entry of a
    column the same way, so equal entries stay bit for bit equal.  The walk
    evolves these rows of a (3, K) state.  Each diffusion fills ``amps`` from
    them and sums its columns over every row in order, as the dense state
    does, and each measurement squares them into ``amps`` and sums its rows.

    The keys run in one sorted order, a preorder of their trie with the
    ``j == 1`` branch first (usually the smaller subtree, as P(j = 1) = 1/M),
    so the keys below each trie node form a run.  At each node the walk
    measures the key ending there, which sorts first in its run, stacks the
    ``j >= 2`` run and steps into the ``j == 1`` one: one step per trie node.
    A stacked run keeps a copy of the node's state if ``STATE_BYTES_LIMIT``
    holds it with ``amps`` and the states kept; if not, it is replayed from
    the deepest state kept below it, never refused.  ``amps`` is overwritten.
    """
    n, k = amps.shape
    rows_in_t = np.flatnonzero(in_t)
    flip = np.stack([in_t[:k], np.zeros(k, bool), np.ones(k, bool)])
    # complex128 mean() multiplies by 1/N; float64 mean() would divide by N
    inv_n = 1.0 / n
    re = amps.real
    diagonal, re_diagonal = (np.einsum("ii->i", dense[:k]) for dense in (amps, re))
    initial = np.zeros((3, k), dtype=amps.dtype)
    initial[0] = 1.0 / np.sqrt(k)
    order = sorted(keys, key=lambda key: [not j1 for j1 in key])
    # (first, end, depth, state or None): runs of `order` left to walk below the node at
    # `depth`, with its state if the budget held a copy.  The empty bottom run holds the initial state.
    stack, held = [(0, 0, 0, initial)], 1
    first, end, depth, state = 0, len(order), 0, initial.copy()
    distributions = {}
    while first < end or len(stack) > 1:
        if first == end:
            first, end, depth, state = stack.pop()
            if state is None:
                depth, state = next((d, saved.copy()) for *_, d, saved in reversed(stack) if saved is not None)
            else:
                held -= 1
        elif len(order[first]) == depth:
            # The imaginary part is always +-0, so |amp|^2 == re*re exactly.
            _fill(re, re_diagonal, np.square(state.real), rows_in_t)
            distributions[order[first]] = re.sum(axis=1)
            first += 1
        else:
            j1 = order[first][depth]
            if j1 != order[end - 1][depth]:
                split = bisect_left(order, True, first, end, key=lambda key: not key[depth])
                kept = amps.nbytes + (held + 2) * state.nbytes <= STATE_BYTES_LIMIT
                stack.append((split, end, depth, state.copy() if kept else None))
                held, end = held + kept, split
            if j1:
                np.negative(state, out=state, where=flip)
            _fill(amps, diagonal, state, rows_in_t)
            np.subtract(2.0 * (amps.sum(axis=0) * inv_n), state, out=state)
            depth += 1
    return distributions


def _fill(dense: np.ndarray, diagonal: np.ndarray, rows: np.ndarray, rows_in_t: np.ndarray) -> None:
    """Write the N x K values of a (3, K) state into ``dense``, whose diagonal view is ``diagonal``."""
    dense[...] = rows[1]
    dense[rows_in_t] = rows[2]
    diagonal[...] = rows[0]


def estimate_distribution(text: Text, pattern: Pattern, index: OracleIndex, config: RunConfig) -> MatchDistribution:
    """Average the exact per-schedule measurement distributions over trials.

    No outcome sampling is involved, so the estimate converges quadratically
    faster than counting sampled positions.  The result carries a per-position
    standard error of the trial mean.  The same trials also sample one
    measured position each, as :func:`run_once` does, and the fraction landing
    in the classical tie set is attached as ``success``, with the classical
    result itself as ``baseline``.

    Trials run in blocks of K = N - M + 1: a block's schedules are drawn
    first, :func:`_walk_schedules` evolves their distinct reduced schedules in
    one depth-first pass, a step per node of their trie, and the sums and
    success draws then follow in trial order.  A block's distributions take
    at most the state's N*K floats.
    """
    if pattern.m > text.n:
        raise DomainError("pattern longer than text")
    if index.n != text.n:
        raise DomainError("indicator length does not match text length")
    n, m = text.n, pattern.m
    if config.r_mode != R_MODE_RANDOM:
        # A block's keys hold one 8-byte reference per step and trial; the
        # draws in flight (the last schedule, the next picks) hold two more.
        nbytes = 8 * config.r_mode * (min(n - m + 1, config.trials) + 2)
        if nbytes > STATE_BYTES_LIMIT:
            raise ResourceError(f"schedules of r = {config.r_mode} steps take {nbytes} bytes "
                                f"per block of trials, beyond {STATE_BYTES_LIMIT}")
    amps = _state_buffer(n, m)
    k = amps.shape[1]
    in_t = index.indicator_for(int(pattern.symbols[0])).view(bool)
    baseline = closest_match_classical(text, pattern)
    is_tie = np.zeros(n, dtype=bool)
    is_tie[list(baseline.offsets)] = True
    acc = np.zeros(n)
    acc_sq = np.zeros(n)
    successes = 0
    for start in range(0, config.trials, k):
        rngs, keys = [], []
        for trial in range(start, min(start + k, config.trials)):
            rng = trial_rng(config.seed, trial)
            rngs.append(rng)
            keys.append(tuple(j == 1 for j in draw_schedule(rng, n, m, config.r_mode)))
        distributions = _walk_schedules(amps, dict.fromkeys(keys), in_t)
        for rng, key in zip(rngs, keys):
            probs = distributions[key]
            acc += probs
            acc_sq += probs * probs
            successes += bool(is_tie[rng.choice(n, p=probs / probs.sum())])
        del distributions  # before the next block's walk stores its own
    mean = acc / config.trials
    var = np.maximum(acc_sq / config.trials - mean**2, 0.0)
    stderr = np.sqrt(var / config.trials)
    low, high = wilson_interval(successes, config.trials)
    success = SuccessEstimate(successes, config.trials, successes / config.trials, low, high)
    return MatchDistribution(mean, stderr, success, baseline)


def wilson_interval(successes: int, trials: int) -> tuple:
    """Wilson score interval, at the 95% level of :data:`WILSON_Z`, for a binomial proportion."""
    if trials < 1 or not 0 <= successes <= trials:
        raise DomainError(f"need trials >= 1 and 0 <= successes <= trials, got {successes} of {trials}")
    p = successes / trials
    denom = 1.0 + WILSON_Z**2 / trials
    center = (p + WILSON_Z**2 / (2 * trials)) / denom
    half = (WILSON_Z / denom) * math.sqrt(p * (1 - p) / trials + WILSON_Z**2 / (4 * trials**2))
    return (max(0.0, center - half), min(1.0, center + half))


def success_probability(
    text: Text,
    pattern: Pattern,
    index: OracleIndex,
    trials: int,
    seed: int,
    r_mode=R_MODE_RANDOM,
) -> SuccessEstimate:
    """Fraction of sampled runs whose measurement lands in the classical tie set."""
    config = RunConfig(trials=trials, seed=seed, r_mode=r_mode)
    return estimate_distribution(text, pattern, index, config).success
