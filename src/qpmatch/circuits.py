"""Reversible-circuit synthesis and exact verification.

Circuits are gate sequences over {H, X, MCX-with-polarities}.  A
:class:`Circuit` is built from its five arrays alone: a kind and a target per
gate, and the controls in CSR form.  It checks them once, vectorised, and
every builder, reader and writer of gates (synthesis, the text format, MCX
expansion and the simulators) works on those arrays.  :attr:`Circuit.gates`
is a derived view of :class:`Gate` tuples for readers outside the package.
Qubit 0 is the most significant bit of a basis index, so the bit of qubit q in
a width-w circuit is ``(index >> (w - 1 - q)) & 1``.  A transposition is the
pair (a, b) of its endpoints.  A permutation is compiled by splitting it into
transpositions via cycle decomposition and realizing each transposition as a
ladder of multi-controlled X gates along a Gray-code path between the two
transposed words.

A Boolean-function oracle is the lifted bijection (b, x) -> (b ^ f(x), x): one
transposition (x, 2^n + x) per marked word x.  Each is at Hamming distance 1,
so its ladder is a single MCX on the ancilla, and the oracle's arrays are
built (and counted) straight from its marked words; the general permutation
path gives the same gates and remains for arbitrary permutations.

Composition convention: a sequence of permutations or transpositions is read
as an operator product, i.e. the LAST element of the sequence acts first on
a basis index.  A circuit's gate list, in contrast, is temporal: the FIRST
gate acts first.  Concatenating synthesized transposition circuits therefore
reverses the transposition sequence.

Verification is exact: a dense unitary, a statevector on its sparse support,
and a basis permutation moved as integer labels per run of same-target gates.
The init-state circuit is checked by its overlap with the target, gathered
from the sparse support and summed with ``math.fsum``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ResourceError, _is_count

HADAMARD = "H"
PAULI_X = "X"
MCX = "MCX"
#: The gate kinds by their uint8 code in :attr:`Circuit.kinds`.
KINDS = (HADAMARD, PAULI_X, MCX)
_H, _X, _MCX = range(len(KINDS))

UNITARY_QUBIT_LIMIT = 12
STATEVECTOR_QUBIT_LIMIT = 20

#: Hard cap on the control entries, summed over gates, of a synthesized or MCX-expanded circuit;
#: counted before any gate is built.  A CSR entry stores 9 bytes (int64 qubit, bool polarity), and
#: building and checking an oracle peaks at about 37 bytes per entry (its sort keys and their
#: temporaries), so a circuit at the cap holds about 19 MB and peaks at about 77 MB.
CONTROL_ENTRIES_LIMIT = 2**21

_SQRT_HALF = 1.0 / np.sqrt(2.0)
_ALL = slice(None)
_DTYPES = (np.uint8, np.int64, np.int64, np.bool_, np.int64)


class Gate(NamedTuple):
    """One gate as :attr:`Circuit.gates` reads it; ``controls`` holds (qubit, positive) pairs."""

    kind: str
    target: int
    controls: tuple = ()


@dataclass(frozen=True, eq=False)
class Circuit:
    """Gates over ``n_qubits`` qubits, first gate first, as five flat arrays; the one place a gate is checked.

    Gate i has kind ``KINDS[kinds[i]]`` (uint8) and target ``targets[i]`` (int64); its controls are
    ``qubits[offsets[i]:offsets[i + 1]]`` (int64) with ``polarities`` (bool), offsets int64.  One check
    runs on construction, vectorised: ``n_qubits`` is an integer >= 0, stored as an ``int``; each array
    is one-dimensional of its dtype, in CSR form; each kind is H, X or MCX, only an MCX has controls, no
    gate repeats a qubit, and every qubit is in ``[0, n_qubits)``.  The arrays are then made read-only.
    """

    n_qubits: int
    kinds: np.ndarray
    targets: np.ndarray
    qubits: np.ndarray
    polarities: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        if not _is_count(self.n_qubits):
            raise DomainError(f"qubit count must be an integer >= 0, got {self.n_qubits!r}")
        object.__setattr__(self, "n_qubits", int(self.n_qubits))
        kinds, targets, qubits, polarities, offsets = arrays = self.arrays
        if not (all(type(a) is np.ndarray and a.ndim == 1 and a.dtype == d for a, d in zip(arrays, _DTYPES))
                and len(targets) == len(kinds) == len(offsets) - 1 and len(polarities) == len(qubits)
                and offsets[0] == 0 and offsets[-1] == len(qubits)) or (offsets[1:] < offsets[:-1]).any():
            raise DomainError("circuit arrays must be kinds, targets, qubits, polarities and offsets in CSR form")
        n, counts = self.n_qubits, offsets[1:] - offsets[:-1]
        if (kinds >= len(KINDS)).any():
            raise DomainError("unknown gate kind")
        if counts[kinds != _MCX].any():
            raise DomainError(f"{KINDS[kinds[(counts > 0) & (kinds != _MCX)][0]]} takes no controls")
        if len(kinds):
            every = np.concatenate((targets, qubits))
            if every.min() < 0 or every.max() >= n:
                raise DomainError("gate addresses qubit outside the circuit")
            if len(kinds) * n > 2**63:  # the largest key is len(kinds) · n - 1
                raise ResourceError(f"{len(kinds)} gates on {n} qubits overflow the int64 keys of the check")
            gate = np.arange(len(kinds)) * n
            controls = np.repeat(gate, counts)
            controls += qubits
            keys = np.concatenate((gate + targets, controls))  # gate·n + qubit, one per qubit of each gate
            keys.sort()
            if (keys[1:] == keys[:-1]).any():
                raise DomainError("control qubits must be distinct from each other and the target")
        for a in arrays:
            a.setflags(write=False)

    @property
    def arrays(self) -> tuple:
        """(kinds, targets, qubits, polarities, offsets)."""
        return self.kinds, self.targets, self.qubits, self.polarities, self.offsets

    @property
    def gates(self) -> tuple:
        """The gates as :class:`Gate` tuples of Python ints and bools, built anew on each read."""
        controls = list(zip(self.qubits.tolist(), self.polarities.tolist()))
        bounds = self.offsets.tolist()
        return tuple(Gate(KINDS[k], t, tuple(controls[lo:hi]))
                     for k, t, lo, hi in zip(self.kinds.tolist(), self.targets.tolist(), bounds, bounds[1:]))

    def __eq__(self, other):
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.n_qubits == other.n_qubits and all(map(np.array_equal, self.arrays, other.arrays))


def _circuit(n_qubits, *columns) -> Circuit:
    """The circuit of five sequences of plain ints and bools, each turned into its array's dtype."""
    return Circuit(n_qubits, *(np.array(c, dtype=d) for c, d in zip(columns, _DTYPES)))


@dataclass(frozen=True)
class GateCountReport:
    """Per-kind gate counts and a two-qubit-equivalent cost estimate.

    An MCX with c >= 2 controls is charged 2c - 1 basic units (the linear
    ancilla-free decomposition); everything else costs one unit.
    """

    counts: dict = field(default_factory=dict)
    basic_gate_total: int = 0


# --- text format ---


def emit_circuit(circuit: Circuit) -> str:
    """Serialize to the one-gate-per-line text format (lossless round trip)."""
    signed = [f"{'+' if p else '-'}q{q}" for q, p in zip(circuit.qubits.tolist(), circuit.polarities.tolist())]
    bounds = circuit.offsets.tolist()
    lines = [f"QUBITS {circuit.n_qubits}"]
    lines += [" ".join(["MCX", *signed[lo:hi], f"-> q{t}"]) if k == _MCX else f"{KINDS[k]} q{t}"
              for k, t, lo, hi in zip(circuit.kinds.tolist(), circuit.targets.tolist(), bounds, bounds[1:])]
    return "\n".join(lines) + "\n"


# Each whitespace-normalized line must match one rule in full.  Qubit numbers
# have at most nine digits, far beyond any simulable circuit.
_HEADER_LINE = re.compile(r"QUBITS ([0-9]{1,9})")
_SINGLE_LINE = re.compile(r"([HX]) q([0-9]{1,9})")
_MCX_LINE = re.compile(r"MCX((?: [+-]q[0-9]{1,9})*) -> q([0-9]{1,9})")


def parse_circuit(document: str) -> Circuit:
    """Parse the text format of :func:`emit_circuit`; malformed input raises DomainError."""
    lines = [" ".join(ln.split()) for ln in document.splitlines()]
    lines = [ln for ln in lines if ln]
    header = _HEADER_LINE.fullmatch(lines[0]) if lines else None
    if header is None:
        raise DomainError("circuit document must start with a 'QUBITS <count>' header")
    kinds, targets, qubits, polarities, offsets = [], [], [], [], [0]
    for ln in lines[1:]:
        if single := _SINGLE_LINE.fullmatch(ln):
            kinds.append(KINDS.index(single[1]))
            targets.append(int(single[2]))
        elif mcx := _MCX_LINE.fullmatch(ln):
            kinds.append(_MCX)
            targets.append(int(mcx[2]))
            for tok in mcx[1].split():
                qubits.append(int(tok[2:]))
                polarities.append(tok[0] == "+")
        else:
            raise DomainError(f"malformed gate line: {ln!r}")
        offsets.append(len(qubits))
    return _circuit(int(header[1]), kinds, targets, qubits, polarities, offsets)


# --- permutations, transpositions and Gray codes ---


def _marked_words(f, n: int) -> np.ndarray:
    """The words x < 2^n with f(x) = 1, ascending; ``f`` must hold at least 2^n bits."""
    if n < 1:
        raise DomainError("need at least one data bit")
    table = np.asarray(f)
    if table.ndim != 1 or len(table) < 2**n:
        raise DomainError(f"function table needs 2^{n} = {2**n} entries")
    table = table[: 2**n]
    if not ((table == 0) | (table == 1)).all():
        raise DomainError("function values must be bits")
    return np.flatnonzero(table)


def lift_boolean(f, n: int) -> np.ndarray:
    """The int64 image table of the bijection (b, x) -> (b ^ f(x), x) lifting f on n bits.

    ``f`` is indexed by the n data bits; the extra bit b is the most
    significant position of the lifted words.  The table is fresh, and a
    bijection by construction.
    """
    ones = _marked_words(f, n)
    images = np.arange(2 ** (n + 1), dtype=np.int64)
    images[ones] = 2**n + ones
    images[2**n + ones] = ones
    return images


def _endpoints(a, b) -> tuple[int, int]:
    """The transposition (a b) as a pair of ints; its endpoints must be distinct integers >= 0."""
    if not (_is_count(a) and _is_count(b)):
        raise DomainError(f"transposition endpoints must be integers >= 0, got {a!r} and {b!r}")
    if a == b:
        raise DomainError("transposition endpoints must differ")
    return int(a), int(b)


def apply_transpositions(pairs, size: int) -> np.ndarray:
    """The fresh int64 image table of the operator product of the transpositions (a, b): the last acts first."""
    images = np.arange(size, dtype=np.int64)
    for pair in pairs:  # images = images o (a b), so the last pair acts first
        a, b = _endpoints(*pair)
        if max(a, b) >= size:
            raise DomainError(f"transposition ({a} {b}) out of range [0, {size})")
        images[a], images[b] = images[b], images[a]
    return images


def permutation_to_transpositions(images):
    """Split the permutation with image table ``images`` into at most len(images) - 1 transpositions (a, b).

    The one check of a table: it must be a one-dimensional integer array (floats and bools are
    refused, not truncated) holding each of 0 ... len - 1 once, or DomainError.  Each cycle
    (c0 c1 ... cm) is emitted as (c0 cm)(c0 c(m-1)) ... (c0 c1), read as an operator product.
    """
    table = np.asarray(images)
    if table.ndim != 1 or table.dtype.kind not in "iu" or not np.array_equal(np.sort(table), np.arange(table.size)):
        raise DomainError("image table is not a bijection")
    images = table.tolist()
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start] or images[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        cur = images[start]
        while cur != start:
            cycle.append(cur)
            seen[cur] = True
            cur = images[cur]
        for elem in reversed(cycle[1:]):
            out.append((cycle[0], elem))
    return out


def gray_code(l: int, l_prime: int, width: int) -> tuple:
    """Words l = r_0, ..., r_k = l_prime of the Gray-code path flipping differing bits MSB-first."""
    if not _is_count(width):
        raise DomainError(f"width must be an integer >= 0, got {width!r}")
    if l == l_prime:
        raise DomainError("endpoints of a Gray-code path must differ")
    if not (0 <= l < 2**width and 0 <= l_prime < 2**width):
        raise DomainError("word out of range for the given width")
    words = [l]
    cur = l
    for bit in range(width - 1, -1, -1):
        mask = 1 << bit
        if (cur ^ l_prime) & mask:
            cur ^= mask
            words.append(cur)
    return tuple(words)


# --- synthesis ---


def _check_control_entries(entries: int, what: str) -> None:
    if entries > CONTROL_ENTRIES_LIMIT:
        raise ResourceError(f"{what} needs {entries} control entries, beyond the limit of {CONTROL_ENTRIES_LIMIT}")


def _ladder_entries(pairs, width) -> int:
    """Control entries of the ladders of the transpositions (a, b): 2d - 1 gates of width - 1 controls each.

    d is the Hamming distance of a and b, distinct ints >= 0.  What :func:`gray_code` refuses, a width
    or endpoints it cannot hold, counts nothing: its error comes first.
    """
    if not _is_count(width):
        return 0
    d = [(a ^ b).bit_count() for a, b in pairs if max(a, b).bit_length() <= width]
    return (2 * sum(d) - len(d)) * (width - 1)


def _ladders(pairs, width: int) -> Circuit:
    """One circuit of the ladders of the transpositions (a, b), laid down in order.

    A ladder is a forward sweep along the Gray-code path and its mirror, which undoes steps
    k - 1 ... 1.  Step j flips the one bit in which words j and j + 1 differ, controlled by every
    other bit of word j at its value: an MCX, or an X at width 1.  Words are read as binary text,
    so a width beyond 63 bits needs no special case.
    """
    steps = []
    for a, b in pairs:
        path = gray_code(a, b, width)
        ladder = [(width - (u ^ v).bit_length(), f"{u:0{width}b}") for u, v in zip(path, path[1:])]
        steps += ladder + ladder[-2::-1]
    targets = np.array([target for target, _ in steps], dtype=np.int64)
    words = np.frombuffer("".join(word for _, word in steps).encode(), dtype=np.uint8).reshape(len(steps), width)
    controlled = np.arange(width) != targets[:, None]
    return Circuit(width, np.full(len(steps), _MCX if width > 1 else _X, dtype=np.uint8), targets,
                   np.nonzero(controlled)[1], words[controlled] == ord("1"), np.arange(len(steps) + 1) * (width - 1))


def synth_transposition(a, b, width: int) -> Circuit:
    """Synthesize the transposition |a> <-> |b> as 2k - 1 multi-controlled X gates.

    a and b must be distinct integers >= 0.  k is the Hamming distance between
    them.  A forward sweep along the Gray-code path shifts a to b (cyclically
    displacing the interior words); the backward sweep restores the interior,
    leaving the pure transposition.
    """
    pair = _endpoints(a, b)
    _check_control_entries(_ladder_entries([pair], width), "transposition")
    return _ladders([pair], width)


def synth_permutation(images, width: int) -> Circuit:
    """Compile the permutation with image table ``images`` by concatenating its transposition ladders.

    The transposition sequence is an operator product, so the ladders are
    laid down in reverse sequence order.
    """
    transpositions = permutation_to_transpositions(images)
    _check_control_entries(_ladder_entries(transpositions, width), "permutation")
    return _ladders(reversed(transpositions), width)


def synth_boolean_oracle(f, n: int) -> Circuit:
    """Bit oracle on n + 1 qubits computing b ^= f(x); ancilla b is qubit 0.

    The lifted bijection is one transposition (x, 2^n + x) per marked word x,
    and each one's ladder is a single MCX on qubit 0 controlled by the data
    qubits at x's bits.  The ladders are laid down in descending x, the gates
    ``synth_permutation(lift_boolean(f, n), n + 1)`` builds.
    """
    marked = _marked_words(f, n)[::-1]
    _check_control_entries(len(marked) * n, "oracle")
    polarities = (marked[:, None] & (1 << np.arange(n - 1, -1, -1))) != 0  # row g: qubits 1 ... n of gate g
    return Circuit(n + 1, np.full(len(marked), _MCX, dtype=np.uint8), np.zeros(len(marked), dtype=np.int64),
                   np.tile(np.arange(1, n + 1), len(marked)), polarities.ravel(), np.arange(len(marked) + 1) * n)


def oracle_gate_count(f, n: int) -> GateCountReport:
    """``gate_count(synth_boolean_oracle(f, n))`` without building the circuit.

    One MCX with n controls per marked word, charged as in :class:`GateCountReport`.
    """
    marked = len(_marked_words(f, n))
    return GateCountReport({HADAMARD: 0, PAULI_X: 0, MCX: marked}, marked * _basic_cost(n))


def synth_phase_oracle(f, n: int) -> Circuit:
    """Phase oracle: the data register picks up (-1)^f(x), ancilla returns to |0>.

    Standard kickback arrangement: the ancilla (qubit 0) is rotated into the
    |0> - |1> difference state, the bit oracle is applied, and the rotation
    is undone.  Preparation gates are part of the emitted circuit.
    """
    oracle = synth_boolean_oracle(f, n)
    prep, end = np.array([_X, _H], dtype=np.uint8), oracle.offsets[-1:]  # prep and unprep gates have no controls
    return Circuit(n + 1, np.concatenate((prep, oracle.kinds, prep[::-1])),
                   np.concatenate(([0, 0], oracle.targets, [0, 0])), oracle.qubits, oracle.polarities,
                   np.concatenate(([0, 0], oracle.offsets, end, end)))


def synth_init_state_circuit(s: int, m: int) -> Circuit:
    """Prepare sum_k 2^(-s/2) |k>|k+1 mod 2^s> ... |k+m-1 mod 2^s> from |0...0>.

    Register t (1-based) occupies qubits [(t-1)s, ts).  Hadamards put
    register 1 into uniform superposition; each later register is fanned out
    from its predecessor with CNOTs and then incremented mod 2^s by a
    descending cascade: its qubit u (0 the most significant) flips under
    positive controls on its qubits u + 1 ... s - 1, an X for u = s - 1.
    """
    if not (_is_count(s) and _is_count(m)) or s < 1 or m < 2:
        raise DomainError("require s >= 1 and M >= 2")
    # Per later register: s CNOTs, then an increment of s(s - 1)/2 controls.
    _check_control_entries((m - 1) * (s + s * (s - 1) // 2), "init-state circuit")
    # One later register's gates, qubits relative to its first qubit; every register repeats them.
    controls = [*range(-s, 0), *(v for u in range(s) for v in range(u + 1, s))]
    firsts = np.arange(s, s * m, s)[:, None]
    qubits = (np.array(controls) + firsts).ravel()
    counts = [0] * s + ([1] * s + [*range(s - 1, -1, -1)]) * (m - 1)
    return Circuit(s * m, np.array([_H] * s + ([_MCX] * (2 * s - 1) + [_X]) * (m - 1), dtype=np.uint8),
                   np.concatenate((np.arange(s), (np.tile(np.arange(s), 2) + firsts).ravel())),
                   qubits, np.ones(len(qubits), dtype=bool), np.cumsum([0, *counts], dtype=np.int64))


def _windows(s: int, m: int) -> np.ndarray:
    """The int64 basis indices of the 2^s windows (k, k + 1, ..., k + m - 1) mod 2^s, by k."""
    k = np.arange(2**s, dtype=np.int64)
    windows = np.zeros(2**s, dtype=np.int64)
    for t in range(m):
        windows = (windows << s) | ((k + t) & (2**s - 1))
    return windows


def init_state_target(s: int, m: int) -> np.ndarray:
    """The target superposition of :func:`synth_init_state_circuit`, built directly."""
    vec = np.zeros(2 ** (s * m), dtype=np.complex128)
    vec[_windows(s, m)] = 2 ** (-s / 2)
    return vec


# --- simulation: dense unitary, sparse statevector, basis permutation ---


def _apply_gates(state: np.ndarray, circuit: Circuit) -> None:
    """Apply the gates of ``circuit`` in order, in place; ``state`` has shape (2^n,) or (2^n, batch).

    The state is viewed as one axis per qubit (qubit 0 first), so a gate's
    two halves are basic-index views: controls fixed to their polarity, the
    target to 0 (``low``) or 1 (``high``).  The trailing ``Ellipsis`` keeps a
    fully indexed half a 0-d view instead of a copied scalar.  Hadamards
    round exactly like ``(a + b) * _SQRT_HALF`` and ``(a - b) * _SQRT_HALF``.
    """
    n = circuit.n_qubits
    view = state.reshape((2,) * n + state.shape[1:])
    scratch = np.empty(state.size // 2, dtype=state.dtype)
    qubits, values, bounds = circuit.qubits.tolist(), circuit.polarities.astype(int).tolist(), circuit.offsets.tolist()
    for kind, target, lo, hi in zip(circuit.kinds.tolist(), circuit.targets.tolist(), bounds, bounds[1:]):
        index = [_ALL] * n
        for q, value in zip(qubits[lo:hi], values[lo:hi]):
            index[q] = value
        index[target] = 0
        low = view[tuple(index) + (Ellipsis,)]
        index[target] = 1
        high = view[tuple(index) + (Ellipsis,)]
        tmp = scratch[: low.size].reshape(low.shape)
        np.copyto(tmp, low)
        if kind == _H:
            low += high
            low *= _SQRT_HALF
            np.subtract(tmp, high, out=high)
            high *= _SQRT_HALF
        else:
            np.copyto(low, high)
            np.copyto(high, tmp)


def _control_masks(circuit: Circuit) -> tuple[np.ndarray, np.ndarray]:
    """Per gate, the int64 mask of its control qubits' bits and of those among them it needs set.

    A gate's control qubits are distinct, so the OR of their bits is their sum: a bincount over
    the CSR entries weighted by the bits, exact in float64 below 2^53.
    """
    n, offsets = circuit.n_qubits, circuit.offsets
    gate = np.repeat(np.arange(len(offsets) - 1), offsets[1:] - offsets[:-1])
    bits = 1 << (n - 1 - circuit.qubits)
    return (np.bincount(gate, bits, len(offsets) - 1).astype(np.int64),
            np.bincount(gate, bits * circuit.polarities, len(offsets) - 1).astype(np.int64))


def _apply_gates_sparse(circuit: Circuit, basis_input: int) -> tuple[np.ndarray, np.ndarray]:
    """Run the gates from ``basis_input`` on the support: the positions that may be nonzero.

    Returns the distinct int64 positions and their float64 values; every
    amplitude off the positions is +0.  An X or MCX flips the target bit of
    the positions whose controls match.  An H pairs each position with its
    partner at the other target bit, a missing partner being +0, and gives the
    pair ``(a + b) * _SQRT_HALF`` and ``(a - b) * _SQRT_HALF``, the float
    operations of :func:`_apply_gates`; no value is ever -0, so adding a +0
    partner rounds as the full sweep does, and the full sweep maps every pair
    of +0 it holds off the support to +0.
    """
    n = circuit.n_qubits
    pos = np.array([basis_input], dtype=np.int64)
    amp = np.ones(1)
    care, value = _control_masks(circuit)
    for kind, target, mask, fire in zip(*(a.tolist() for a in (circuit.kinds, circuit.targets, care, value))):
        tbit = 1 << (n - 1 - target)
        if kind != _H:
            pos[(pos & mask) == fire] ^= tbit
            continue
        pairs, pair_of = np.unique(pos & ~tbit, return_inverse=True)
        high = (pos & tbit) != 0
        a = np.zeros(len(pairs))
        b = np.zeros(len(pairs))
        a[pair_of[~high]] = amp[~high]
        b[pair_of[high]] = amp[high]
        pos = np.concatenate((pairs, pairs | tbit))
        amp = np.concatenate(((a + b) * _SQRT_HALF, (a - b) * _SQRT_HALF))
    return pos, amp


def simulate_statevector(circuit: Circuit, basis_input: int = 0) -> np.ndarray:
    """Exact output statevector for a computational basis input.

    The gates run on the state's sparse support (:func:`_apply_gates_sparse`),
    which is then scattered into a zeroed complex128 vector; the bytes are
    those of the full sweep of :func:`_apply_gates`.  The init-state circuit
    keeps 2^s of its 2^(sM) amplitudes, so it costs about 1.5 ms at s = 4,
    M = 5 against 20 ms for the full sweep.  A circuit whose support fills
    the state costs several times the full sweep (20 H gates on 20 qubits:
    86 against 15 ms), but no command runs one.  Every gate is real, so the
    values are float64 with a +0 imaginary part.
    """
    n = circuit.n_qubits
    if n > STATEVECTOR_QUBIT_LIMIT:
        raise ResourceError(f"{n} qubits exceeds the statevector limit of {STATEVECTOR_QUBIT_LIMIT}")
    if not (_is_count(basis_input) and basis_input < 2**n):
        raise DomainError(f"basis input out of range: need an integer in [0, {2**n}), got {basis_input!r}")
    pos, amp = _apply_gates_sparse(circuit, basis_input)
    state = np.zeros(2**n, dtype=np.complex128)
    state[pos] = amp
    return state


def init_state_fidelity(circuit: Circuit, s: int, m: int) -> float:
    """|<target|out>|^2 of ``circuit`` run from |0>, for the target of :func:`init_state_target`.

    The target holds 2^(-s/2) at the 2^s windows (k, k + 1, ..., k + m - 1) mod 2^s and +0
    elsewhere, so the overlap is 2^(-s/2) times the sum of the output's amplitudes there.  They
    are looked up on the sparse support (:func:`_apply_gates_sparse`), a window off the support
    counting as +0; support off the windows adds nothing, and with the state's norm of 1 it
    already lowers the overlap.  ``math.fsum`` rounds the sum correctly, so the result does not
    depend on the summation order, the host or BLAS, and no 2^(s*m) vector is built.
    """
    n = circuit.n_qubits
    if n > STATEVECTOR_QUBIT_LIMIT:
        raise ResourceError(f"{n} qubits exceeds the statevector limit of {STATEVECTOR_QUBIT_LIMIT}")
    if not (_is_count(s) and _is_count(m)) or s < 1 or s * m != n:
        raise DomainError(f"require s >= 1 and s*M = {n} qubits, got s={s!r}, M={m!r}")
    pos, amp = _apply_gates_sparse(circuit, 0)
    support = dict(zip(pos.tolist(), amp.tolist()))
    weight = 2 ** (-s / 2)
    return abs(math.fsum(weight * support.get(w, 0.0) for w in _windows(s, m).tolist())) ** 2


def simulate_unitary(circuit: Circuit) -> np.ndarray:
    """Exact dense unitary of the circuit (column i = image of basis state i)."""
    n = circuit.n_qubits
    if n > UNITARY_QUBIT_LIMIT:
        raise ResourceError(f"{n} qubits exceeds the unitary limit of {UNITARY_QUBIT_LIMIT}")
    mat = np.eye(2**n)
    _apply_gates(mat, circuit)
    return mat.astype(np.complex128)


def _fillings(free: int) -> np.ndarray:
    """Every word whose set bits all lie in ``free``, ascending, as int64."""
    fill = np.zeros(1, dtype=np.int64)
    while free:
        low = free & -free
        fill = np.concatenate((fill, fill | low))
        free ^= low
    return fill


def permutation_action(circuit: Circuit) -> np.ndarray:
    """Exact basis-state action of an {X, MCX}-only circuit, as a fresh int64 image table.

    The gates are taken in maximal runs of consecutive gates on one target.  No X or MCX reads
    its own target, so the gates of a run commute, and together they flip the target bit of
    the words an odd number of them fire on.  A gate fires on its control values with every
    filling of its uncontrolled qubits; the run swaps the labels of those words and their
    partners in one fancy-indexed step.  Every gate is an involution, so walking the runs last
    to first over the labels 0 ... 2^n - 1 leaves each word's image in its place.
    """
    n = circuit.n_qubits
    if n > STATEVECTOR_QUBIT_LIMIT:
        raise ResourceError(f"{n} qubits exceeds the permutation limit of {STATEVECTOR_QUBIT_LIMIT}")
    if _H in circuit.kinds:
        raise DomainError("circuit is not a basis permutation: contains Hadamard")
    care, value = _control_masks(circuit)
    targets = circuit.targets
    tbit = 1 << (n - 1 - targets)
    free = (1 << n) - 1 - care - tbit  # the uncontrolled qubits of each gate
    bounds = [0, *(np.flatnonzero(targets[1:] != targets[:-1]) + 1).tolist(), len(targets)] if len(targets) else []
    images = np.arange(2**n, dtype=np.int64)
    for lo, hi in reversed(list(zip(bounds, bounds[1:]))):
        if hi - lo == 1 and not free[lo]:  # one fully controlled gate swaps one pair of labels
            word, partner = int(value[lo]), int(value[lo] | tbit[lo])
            images[word], images[partner] = images[partner], images[word]
            continue
        frees, group = np.unique(free[lo:hi], return_inverse=True)  # the gates by their uncontrolled qubits
        words = np.concatenate([(value[lo:hi][group == i, None] | _fillings(f)).ravel()
                                for i, f in enumerate(frees.tolist())])
        if hi - lo > 1:  # one gate fires on a word at most once
            words, hits = np.unique(words, return_counts=True)
            words = words[hits % 2 == 1]
        partners = words | tbit[lo]
        images[words], images[partners] = images[partners], images[words]
    return images


# --- cost accounting and MCX expansion ---


def _basic_cost(controls):
    """Basic units of a gate with ``controls`` controls, as :class:`GateCountReport` charges them: |2c - 1|.

    Elementwise on an array of control counts.
    """
    return abs(2 * controls - 1)


def gate_count(circuit: Circuit) -> GateCountReport:
    counts, offsets = np.bincount(circuit.kinds, minlength=len(KINDS)).tolist(), circuit.offsets
    return GateCountReport(dict(zip(KINDS, counts)), int(_basic_cost(offsets[1:] - offsets[:-1]).sum()))


def expand_mcx(circuit: Circuit) -> Circuit:
    """Rewrite to {X, CNOT, CCX} with positive controls, using one work register.

    Negative controls are absorbed by conjugating X gates.  An MCX with
    c >= 3 controls becomes the standard AND-ladder: c - 2 Toffolis compute
    the conjunction into work qubits, one Toffoli hits the target, and the
    ladder is uncomputed.  Work qubits are appended after the data qubits
    and are returned to |0>.
    """
    sizes = np.diff(circuit.offsets)
    # An MCX of c >= 3 controls becomes 2(c - 2) + 1 Toffolis; the X flips take no controls.
    _check_control_entries(int(np.where(sizes <= 2, sizes, 4 * sizes - 6).sum()), "MCX expansion")
    extra = max(int(sizes.max(initial=0)) - 2, 0)
    n = circuit.n_qubits
    kinds, targets, qubits, offsets = [], [], [], [0]

    def put(kind, target, *controls):
        kinds.append(kind)
        targets.append(target)
        qubits.extend(controls)
        offsets.append(len(qubits))

    controls, positive, bounds = circuit.qubits.tolist(), circuit.polarities.tolist(), circuit.offsets.tolist()
    for kind, target, lo, hi in zip(circuit.kinds.tolist(), circuit.targets.tolist(), bounds, bounds[1:]):
        ctrls = controls[lo:hi]
        flips = [q for q, p in zip(ctrls, positive[lo:hi]) if not p]
        for q in flips:
            put(_X, q)
        if len(ctrls) <= 2:  # H, X and MCX of up to two controls keep their kind
            put(kind, target, *ctrls)
        else:
            ladder = [(n, ctrls[0], ctrls[1]), *((n + i + 1, q, n + i) for i, q in enumerate(ctrls[2:-1]))]
            for gate in (*ladder, (target, ctrls[-1], n + len(ctrls) - 3), *reversed(ladder)):
                put(_MCX, *gate)
        for q in flips:
            put(_X, q)
    return _circuit(n + extra, kinds, targets, qubits, [True] * len(qubits), offsets)
