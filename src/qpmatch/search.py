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

from .errors import DomainError, ResourceError
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
J_MODE_RANDOM = "random"
J_MODE_CYCLE = "cycle"


@dataclass(frozen=True)
class GroverSchedule:
    """The random choices pinning one run: iteration count r and register picks."""

    r: int
    j_choices: tuple

    def __post_init__(self):
        if self.r != len(self.j_choices):
            raise DomainError("schedule length does not match iteration count")


@dataclass(frozen=True)
class RunConfig:
    """Knobs of a Monte Carlo estimation run."""

    trials: int
    seed: int
    r_mode: object = R_MODE_RANDOM  # "random" or an int for a fixed count
    j_mode: str = J_MODE_RANDOM  # "random" (the default protocol) or "cycle"

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        if self.j_mode not in (J_MODE_RANDOM, J_MODE_CYCLE):
            raise DomainError(f"unknown j mode {self.j_mode!r}")

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


def draw_schedule(rng: np.random.Generator, n: int, m: int, r_mode=R_MODE_RANDOM,
                  j_mode: str = J_MODE_RANDOM) -> GroverSchedule:
    """Draw r uniform on [0, floor(sqrt(N-M+1))] (or fixed), then r picks j in [1, M] (i.i.d. or cycling)."""
    if not 1 <= m <= n:
        raise DomainError(f"require 1 <= M <= N, got M={m}, N={n}")
    if r_mode == R_MODE_RANDOM:
        r = int(rng.integers(0, max_iterations(n, m) + 1))
    else:
        r = int(r_mode)
        if r < 0:
            raise DomainError("fixed iteration count must be >= 0")
    if j_mode == J_MODE_CYCLE:
        js = tuple(1 + (t % m) for t in range(r))
    else:
        js = tuple(int(j) for j in rng.integers(1, m + 1, size=r))
    return GroverSchedule(r, js)


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
    j_mode: str = J_MODE_RANDOM,
) -> RunOutcome:
    """Execute the full algorithm once and sample a single measured position."""
    rng = trial_rng(seed, trial)
    schedule = draw_schedule(rng, text.n, pattern.m, r_mode, j_mode)
    state = _evolve(text.n, pattern.m, schedule, pattern, index)
    probs = measure_first_register(state).probabilities
    position = int(rng.choice(text.n, p=probs / probs.sum()))
    ties = set(closest_match_classical(text, pattern).offsets)
    return RunOutcome(position, schedule, position in ties)


def _state_buffer(n: int, m: int) -> np.ndarray:
    """The one state buffer a trial loop evolves in place, size-checked first."""
    k = n - m + 1
    nbytes = 8 * n * k
    if nbytes > STATE_BYTES_LIMIT:
        raise ResourceError(f"search state of N*K*8 = {nbytes} bytes (N={n}, K={k}) "
                            f"exceeds {STATE_BYTES_LIMIT}")
    # Every operator is real, so float64 holds the reference's exact values.
    # At K = 1 numpy sums the single contiguous column pairwise, and its
    # unrolling differs between float64 and complex128: keep complex there.
    return np.empty((n, k), dtype=np.complex128 if k == 1 else np.float64)


def _schedule_probabilities(amps: np.ndarray, j_choices, signs: np.ndarray) -> np.ndarray:
    """``measure_first_register(_evolve(...)).probabilities``, bit for bit.

    ``amps`` is overwritten.  The j >= 2 queries are skipped: each negates
    whole columns exactly, the diffusion of a negated column is the exact
    negation of its diffusion (IEEE rounding is symmetric under sign), and
    |amp|^2 drops the sign.
    """
    n, k = amps.shape
    amps.fill(0.0)
    np.fill_diagonal(amps, 1.0 / np.sqrt(k))
    # complex128 mean() multiplies by 1/N; float64 mean() would divide by N
    inv_n = 1.0 / n
    for j in j_choices:
        if j == 1:
            amps *= signs[:, None]
        mu = amps.sum(axis=0) * inv_n
        np.subtract(2.0 * mu, amps, out=amps)
    # The imaginary part is always +-0, so |amp|^2 == re*re exactly.
    re = amps.real
    np.square(re, out=re)
    return re.sum(axis=1)


def estimate_distribution(text: Text, pattern: Pattern, index: OracleIndex, config: RunConfig) -> MatchDistribution:
    """Average the exact per-schedule measurement distributions over trials.

    No outcome sampling is involved, so the estimate converges quadratically
    faster than counting sampled positions.  The result carries a per-position
    standard error of the trial mean.  The same trials also sample one
    measured position each, as :func:`run_once` does, and the fraction landing
    in the classical tie set is attached as ``success``.
    """
    if pattern.m > text.n:
        raise DomainError("pattern longer than text")
    n, m = text.n, pattern.m
    amps = _state_buffer(n, m)
    signs = 1.0 - 2.0 * index.indicator_for(int(pattern.symbols[0])).bits.astype(np.float64)
    is_tie = np.zeros(n, dtype=bool)
    is_tie[list(closest_match_classical(text, pattern).offsets)] = True
    acc = np.zeros(n)
    acc_sq = np.zeros(n)
    successes = 0
    for trial in range(config.trials):
        rng = trial_rng(config.seed, trial)
        schedule = draw_schedule(rng, n, m, config.r_mode, config.j_mode)
        probs = _schedule_probabilities(amps, schedule.j_choices, signs)
        acc += probs
        acc_sq += probs * probs
        successes += bool(is_tie[rng.choice(n, p=probs / probs.sum())])
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


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    p = successes / trials
    denom = 1.0 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2))
    return (max(0.0, center - half), min(1.0, center + half))


def success_probability(
    text: Text,
    pattern: Pattern,
    index: OracleIndex,
    trials: int,
    seed: int,
    r_mode=R_MODE_RANDOM,
    j_mode: str = J_MODE_RANDOM,
) -> SuccessEstimate:
    """Fraction of sampled runs whose measurement lands in the classical tie set."""
    config = RunConfig(trials=trials, seed=seed, r_mode=r_mode, j_mode=j_mode)
    return estimate_distribution(text, pattern, index, config).success
