"""Exact simulation of the search state in its structured representation.

The algorithm's state never leaves the span of the N*(N-M+1) basis vectors
|i> (x) |k+1, ..., k+M-1>: the query operators are diagonal and the diffusion
acts on the first register only.  A state is therefore a complex N x K array
a[i, k] -- row i is the value of the first register, column k labels the
consecutive tail -- whose shape gives N and K = N - M + 1, instead of the
naive N^M tensor.  That tensor is kept as a brute-force oracle for
equivalence testing at small sizes: a complex array with one axis of length N
per register.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ResourceError, _is_count

#: Hard cap on the naive tensor dimension N^M.
FULL_REFERENCE_LIMIT = 2**20

#: Hard cap, in bytes, on an N x K search state: :func:`init_state`'s complex
#: one, and the trial loop's float64 buffer together with the (3, K) states
#: that the search walk keeps as checkpoints.
STATE_BYTES_LIMIT = 2**28

NORM_TOL = 1e-10


def init_state(n: int, m: int) -> np.ndarray:
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
    return amps


def _query_signs(j, n: int, m: int, bits: np.ndarray) -> np.ndarray:
    """The +-1 phase of each position, once register j and the 0/1 bit vector fit N and M."""
    if not (_is_count(j) and 1 <= j <= m):
        raise DomainError(f"register index must be an integer in [1, {m}], got {j!r}")
    if np.shape(bits) != (n,):
        raise DomainError(f"indicator length does not match text length {n}: got shape {np.shape(bits)}")
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


def apply_query_phase(amps: np.ndarray, j: int, bits: np.ndarray) -> np.ndarray:
    """Phase-flip by the symbol membership of register j, ``bits`` holding one 0/1 per position.

    Register 1 holds the free value i; register j >= 2 of tail column k holds
    position k + j - 1, so its phase is determined by the column alone.
    """
    n, k = amps.shape
    signs = _query_signs(j, n, n - k + 1, bits)
    if j == 1:
        return amps * signs[:, None]
    return amps * signs[j - 1 : j - 1 + k][None, :]


def apply_diffusion(amps: np.ndarray) -> np.ndarray:
    """Inversion about the average of the first register, per tail column."""
    return 2.0 * amps.mean(axis=0)[None, :] - amps


def measure_first_register(amps: np.ndarray) -> np.ndarray:
    """Marginal probabilities of the first register over positions [0, N)."""
    return np.sum(np.abs(amps) ** 2, axis=1)


# --- brute-force reference over the full tensor space ---


def embed_full(amps: np.ndarray) -> np.ndarray:
    """Embed the structured state into the N^M tensor space, one axis per register."""
    n, k = amps.shape
    m = n - k + 1
    if n**m > FULL_REFERENCE_LIMIT:
        raise ResourceError(f"full reference dimension N^M = {n**m} exceeds {FULL_REFERENCE_LIMIT}")
    full = np.zeros((n,) * m, dtype=np.complex128)
    # Entry (i, k) goes to |i, k+1, ..., k+M-1>.  At M = 1 every column has
    # the empty tail, so the columns of a row add up: np.add.at, not assignment.
    rows = np.broadcast_to(np.arange(n)[:, None], amps.shape)
    np.add.at(full, (rows, *(np.arange(k) + t for t in range(1, m))), amps)
    return full


def full_apply_query(full: np.ndarray, j: int, bits: np.ndarray) -> np.ndarray:
    """Apply the literal operator I^(j-1) (x) U_sigma (x) I^(M-j)."""
    n, m = full.shape[0], full.ndim
    signs = _query_signs(j, n, m, bits)
    return full * signs.reshape((n,) + (1,) * (m - j))


def full_apply_diffusion(full: np.ndarray) -> np.ndarray:
    """Apply the literal operator D_N (x) I^(M-1)."""
    return 2.0 * full.mean(axis=0) - full
