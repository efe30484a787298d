"""Exact simulation of the search state in its structured representation.

The algorithm's state never leaves the span of the N*(N-M+1) basis vectors
|i> (x) |k+1, ..., k+M-1|: the query operators are diagonal and the diffusion
acts on the first register only.  We therefore store a complex matrix indexed
(i, k) -- row i is the value of the first register, column k labels the
consecutive tail -- instead of the naive N^M tensor.  A dense
:class:`FullStateReference` over the full tensor space is kept as a
brute-force oracle for equivalence testing at small sizes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, ResourceError
from .text import SymbolIndicator

if TYPE_CHECKING:
    from .search import SuccessEstimate

#: Hard cap on the naive tensor dimension N^M.
FULL_REFERENCE_LIMIT = 2**20

#: Hard cap, in bytes, on an N x K search state: the trial loop's float64
#: buffer and :func:`init_state`'s complex one.
STATE_BYTES_LIMIT = 2**28

NORM_TOL = 1e-10


@dataclass(frozen=True)
class TailEntangledState:
    """Amplitudes a[i, k] of |i> (x) |k+1, ..., k+M-1>, zero-based positions."""

    n: int
    m: int
    amps: np.ndarray

    @property
    def k(self) -> int:
        """Number of tail columns, N - M + 1."""
        return self.n - self.m + 1

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))


@dataclass(frozen=True)
class MatchDistribution:
    """Measured position probabilities, the main observable output."""

    probabilities: np.ndarray
    n: int
    m: int
    trials: int | None = None
    seed: int | None = None
    r_mode: str | None = None
    stderr: np.ndarray | None = None
    #: Sampled success of the same trials; kept out of the distribution's JSON.
    success: SuccessEstimate | None = None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "trials": self.trials,
            "seed": self.seed,
            "r_mode": self.r_mode,
            "probabilities": [float(p) for p in self.probabilities],
        }

    def write_csv(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["position", "probability"])
        for pos, p in enumerate(self.probabilities):
            writer.writerow([pos, repr(float(p))])


def init_state(n: int, m: int) -> TailEntangledState:
    """Uniform superposition over the N-M+1 consecutive windows."""
    if not 1 <= m <= n:
        raise DomainError(f"require 1 <= M <= N, got M={m}, N={n}")
    k = n - m + 1
    nbytes = 16 * n * k
    if nbytes > STATE_BYTES_LIMIT:
        raise ResourceError(f"structured state of N*K*16 = {nbytes} bytes (N={n}, K={k}) "
                            f"exceeds {STATE_BYTES_LIMIT}")
    amps = np.zeros((n, k), dtype=np.complex128)
    amps[np.arange(k), np.arange(k)] = 1.0 / np.sqrt(k)
    return TailEntangledState(n, m, amps)


def apply_query_phase(state: TailEntangledState, j: int, indicator: SymbolIndicator) -> TailEntangledState:
    """Phase-flip by the symbol membership of register j.

    Register 1 holds the free value i; register j >= 2 of tail column k holds
    position k + j - 1, so its phase is determined by the column alone.
    """
    if not 1 <= j <= state.m:
        raise DomainError(f"register index {j} out of range [1, {state.m}]")
    if indicator.n != state.n:
        raise DomainError("indicator length does not match text length")
    signs = 1.0 - 2.0 * indicator.bits.astype(np.float64)
    if j == 1:
        amps = state.amps * signs[:, None]
    else:
        positions = np.arange(state.k) + j - 1
        amps = state.amps * signs[positions][None, :]
    return TailEntangledState(state.n, state.m, amps)


def apply_diffusion(state: TailEntangledState) -> TailEntangledState:
    """Inversion about the average of the first register, per tail column."""
    mu = state.amps.mean(axis=0)
    return TailEntangledState(state.n, state.m, 2.0 * mu[None, :] - state.amps)


def measure_first_register(state: TailEntangledState) -> MatchDistribution:
    """Marginal distribution of the first register over positions [0, N)."""
    probs = np.sum(np.abs(state.amps) ** 2, axis=1)
    return MatchDistribution(probs, state.n, state.m)


def export_snapshot_csv(state: TailEntangledState, fh, threshold: float = 1e-14) -> None:
    """Debug snapshot: rows "i,k,re,im" for entries with magnitude > threshold."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["i", "k", "re", "im"])
    rows, cols = np.nonzero(np.abs(state.amps) > threshold)
    for i, k in zip(rows, cols):
        a = state.amps[i, k]
        writer.writerow([int(i), int(k), repr(float(a.real)), repr(float(a.imag))])


# --- brute-force reference over the full tensor space ---


@dataclass(frozen=True)
class FullStateReference:
    """Naive statevector over all N^M basis states, for verification only."""

    n: int
    m: int
    amps: np.ndarray = field(repr=False)


def _check_full_dims(n: int, m: int) -> int:
    dim = n**m
    if dim > FULL_REFERENCE_LIMIT:
        raise ResourceError(f"full reference dimension N^M = {dim} exceeds {FULL_REFERENCE_LIMIT}")
    return dim


def _tail_indices(n: int, m: int) -> np.ndarray:
    """Tensor index of the tail |k+1, ..., k+M-1> for each column k."""
    k = n - m + 1
    tails = np.zeros(k, dtype=np.int64)
    for t in range(1, m):
        tails = tails * n + (np.arange(k) + t)
    return tails


def embed_full(state: TailEntangledState) -> FullStateReference:
    """Embed the structured state into the N^M-dimensional tensor space."""
    dim = _check_full_dims(state.n, state.m)
    vec = np.zeros(dim, dtype=np.complex128)
    tails = _tail_indices(state.n, state.m)
    stride = state.n ** (state.m - 1)
    for i in range(state.n):
        np.add.at(vec, i * stride + tails, state.amps[i])
    return FullStateReference(state.n, state.m, vec)


def full_init_state(n: int, m: int) -> FullStateReference:
    return embed_full(init_state(n, m))


def full_apply_query(ref: FullStateReference, j: int, indicator: SymbolIndicator) -> FullStateReference:
    """Apply the literal operator I^(j-1) (x) U_sigma (x) I^(M-j)."""
    if not 1 <= j <= ref.m:
        raise DomainError(f"register index {j} out of range [1, {ref.m}]")
    idx = np.arange(len(ref.amps))
    digit = (idx // ref.n ** (ref.m - j)) % ref.n
    signs = 1.0 - 2.0 * indicator.bits.astype(np.float64)[digit]
    return FullStateReference(ref.n, ref.m, ref.amps * signs)


def full_apply_diffusion(ref: FullStateReference) -> FullStateReference:
    """Apply the literal operator D_N (x) I^(M-1)."""
    mat = ref.amps.reshape(ref.n, -1)
    out = 2.0 * mat.mean(axis=0)[None, :] - mat
    return FullStateReference(ref.n, ref.m, out.ravel())
