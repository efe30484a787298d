"""The randomized closest-match search and its Monte Carlo estimators.

Randomness uses numpy's PCG64 generator.  The stream-splitting rule is:
trial t of a run seeded with s draws from ``default_rng([s, t])``, so trials
are independent, order-insensitive and bit-reproducible across platforms.
Within one trial a single generator serves, in order: the iteration count r,
the r register choices j, then the measurement sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError, _is_count
from .simulation import (
    STATE_BYTES_LIMIT,
    MatchDistribution,
    TailEntangledState,
    apply_diffusion,
    apply_query_phase,
    init_state,
    measure_first_register,
)
from .text import OracleIndex, Pattern, Text, closest_match_classical

R_MODE_RANDOM = "random"
WILSON_Z = 1.959963984540054  # the two-sided 95% standard normal quantile


@dataclass(frozen=True)
class GroverSchedule:
    """The random choices pinning one run: the register pick j of each of its r iterations."""

    j_choices: tuple

    @property
    def r(self) -> int:
        return len(self.j_choices)


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
    """One measured position plus the schedule that produced it."""

    measured_position: int
    schedule: GroverSchedule
    success: bool


@dataclass(frozen=True)
class SuccessEstimate:
    """Empirical success fraction with its Wilson 95% interval."""

    successes: int
    trials: int
    estimate: float
    wilson_low: float
    wilson_high: float


def max_iterations(n: int, m: int) -> int:
    """Upper end of the iteration draw, floor(sqrt(N - M + 1))."""
    return math.isqrt(n - m + 1)


def trial_rng(seed: int, trial: int = 0) -> np.random.Generator:
    """Generator for one trial under the documented stream-splitting rule."""
    return np.random.default_rng([int(seed), int(trial)])


def draw_schedule(rng: np.random.Generator, n: int, m: int, r_mode=R_MODE_RANDOM) -> GroverSchedule:
    """Draw r uniform on [0, floor(sqrt(N-M+1))] (or fixed), then r i.i.d. picks j uniform on [1, M]."""
    if not 1 <= m <= n:
        raise DomainError(f"require 1 <= M <= N, got M={m}, N={n}")
    if r_mode == R_MODE_RANDOM:
        r = int(rng.integers(0, max_iterations(n, m) + 1))
    elif _is_count(r_mode):
        r = int(r_mode)
    else:
        raise DomainError(f"fixed iteration count must be an integer >= 0, got {r_mode!r}")
    return GroverSchedule(tuple(rng.integers(1, m + 1, size=r).tolist()))


def grover_step(state: TailEntangledState, j: int, pattern: Pattern, index: OracleIndex) -> TailEntangledState:
    """One iteration: query phase for pattern symbol j, then diffusion."""
    indicator = index.indicator_for(int(pattern.symbols[j - 1]))
    return apply_diffusion(apply_query_phase(state, j, indicator))


def _evolve(n, m, schedule, pattern, index) -> TailEntangledState:
    state = init_state(n, m)
    for j in schedule.j_choices:
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
    probs = measure_first_register(state).probabilities
    position = int(rng.choice(text.n, p=probs / probs.sum()))
    ties = set(closest_match_classical(text, pattern).offsets)
    return RunOutcome(position, schedule, position in ties)


def _state_buffer(n: int, m: int) -> np.ndarray:
    """The one state buffer a trial loop evolves in place, size-checked first."""
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


def _visit_order(keys) -> list:
    """The distinct reduced schedules ``keys`` in the order of a depth-first walk of their trie.

    At each node the schedule ending there comes first, then the child subtree
    holding fewer schedules, and the larger one last.
    """
    order = []
    stack = [(list(keys), 0)]
    while stack:
        group, depth = stack.pop()
        if len(group) == 1:
            order.append(group[0])
            continue
        children = ([], [])
        for key in group:
            if len(key) == depth:
                order.append(key)
            else:
                children[key[depth]].append(key)
        # The stack is last-in first-out: push the larger subtree first.
        for child in sorted(children, key=len, reverse=True):
            if child:
                stack.append((child, depth + 1))
    return order


def _common_prefix(a: tuple, b: tuple) -> int:
    length = 0
    for x, y in zip(a, b):
        if x != y:
            break
        length += 1
    return length


def _walk_schedules(amps: np.ndarray, keys, in_t: np.ndarray) -> dict:
    """``measure_first_register(_evolve(...)).probabilities`` of each reduced schedule, bit for bit.

    A reduced schedule is the tuple of ``j == 1`` flags of a schedule's steps:
    the j >= 2 queries are skipped, because each negates whole columns
    exactly, the diffusion of a negated column is the exact negation of its
    diffusion (IEEE rounding is symmetric under sign), and |amp|^2 drops the
    sign.  ``keys`` are distinct reduced schedules; ``in_t`` marks the
    positions of the pattern's first symbol.

    Each step of a prefix that several of ``keys`` share runs once.  One
    checkpoint buffer holds the state of the deepest prefix that still has a
    branch left to run; a branch whose prefix the checkpoint does not hold is
    replayed from the initial state, so no schedule costs more steps than its
    own evolution.  ``amps`` is overwritten.
    """
    n, k = amps.shape
    flip = in_t[:, None]
    # complex128 mean() multiplies by 1/N; float64 mean() would divide by N
    inv_n = 1.0 / n
    may_checkpoint = 2 * amps.nbytes <= STATE_BYTES_LIMIT
    checkpoint, held = None, None
    order = _visit_order(keys)
    distributions = {}
    for i, key in enumerate(order):
        branch = _common_prefix(key, order[i + 1]) if i + 1 < len(order) else -1
        if held is not None and key[: len(held)] == held:
            np.copyto(amps, checkpoint)
            depth = len(held)
        else:
            amps.fill(0.0)
            np.fill_diagonal(amps, 1.0 / np.sqrt(k))
            depth = 0
        while True:
            if depth == branch and may_checkpoint and held != key[:depth]:
                if checkpoint is None:
                    checkpoint = np.empty_like(amps)
                np.copyto(checkpoint, amps)
                held = key[:depth]
            if depth == len(key):
                break
            if key[depth]:
                np.negative(amps, out=amps, where=flip)
            mu = amps.sum(axis=0) * inv_n
            np.subtract(2.0 * mu, amps, out=amps)
            depth += 1
        # The imaginary part is always +-0, so |amp|^2 == re*re exactly.
        re = amps.real
        np.square(re, out=re)
        distributions[key] = re.sum(axis=1)
    return distributions


def estimate_distribution(text: Text, pattern: Pattern, index: OracleIndex, config: RunConfig) -> MatchDistribution:
    """Average the exact per-schedule measurement distributions over trials.

    No outcome sampling is involved, so the estimate converges quadratically
    faster than counting sampled positions.  The result carries a per-position
    standard error of the trial mean.  The same trials also sample one
    measured position each, as :func:`run_once` does, and the fraction landing
    in the classical tie set is attached as ``success``.

    Trials run in blocks of K = N - M + 1: a block's schedules are drawn
    first, each distinct reduced schedule is evolved once by
    :func:`_walk_schedules`, and the sums and success draws then follow in
    trial order.  A block's distributions take at most the state's N*K floats.
    """
    if pattern.m > text.n:
        raise DomainError("pattern longer than text")
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
    in_t = index.indicator_for(int(pattern.symbols[0])).bits.view(bool)
    is_tie = np.zeros(n, dtype=bool)
    is_tie[list(closest_match_classical(text, pattern).offsets)] = True
    acc = np.zeros(n)
    acc_sq = np.zeros(n)
    successes = 0
    for start in range(0, config.trials, k):
        rngs, keys = [], []
        for trial in range(start, min(start + k, config.trials)):
            rng = trial_rng(config.seed, trial)
            schedule = draw_schedule(rng, n, m, config.r_mode)
            rngs.append(rng)
            keys.append(tuple(j == 1 for j in schedule.j_choices))
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
    return MatchDistribution(
        mean,
        n,
        m,
        trials=config.trials,
        seed=config.seed,
        r_mode=config.r_mode_label(),
        stderr=stderr,
        success=SuccessEstimate(successes, config.trials, successes / config.trials, low, high),
    )


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
