"""Reversible-circuit synthesis and exact verification.

Circuits are gate lists over {H, X, MCX-with-polarities}.  A :class:`Gate` is
plain data; the :class:`Circuit` holding it checks it once, and every consumer
of gates takes a ``Circuit``.  Qubit 0 is the most significant bit of a basis
index, so the bit of qubit q in a width-w circuit is
``(index >> (w - 1 - q)) & 1``.  A permutation is compiled by splitting it
into transpositions via cycle decomposition and realizing each transposition
as a ladder of multi-controlled X gates along a Gray-code path between the two
transposed words.

A Boolean-function oracle is the lifted bijection (b, x) -> (b ^ f(x), x): one
transposition (x, 2^n + x) per marked word x.  Each is at Hamming distance 1,
so its ladder is a single MCX on the ancilla, and the oracle is built (and
counted) straight from its marked words; the general permutation path gives
the same gates and remains for arbitrary permutations.

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
from itertools import groupby
from operator import attrgetter, getitem
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ResourceError, _is_count, _is_integer

HADAMARD = "H"
PAULI_X = "X"
MCX = "MCX"

UNITARY_QUBIT_LIMIT = 12
STATEVECTOR_QUBIT_LIMIT = 20

#: Hard cap on the control entries, summed over gates, of a synthesized or MCX-expanded circuit;
#: counted before any gate is built.  An entry takes at most about 100 bytes, so a circuit at the
#: cap about 210 MB.
CONTROL_ENTRIES_LIMIT = 2**21

_SQRT_HALF = 1.0 / np.sqrt(2.0)
_ALL = slice(None)
_POLARITIES = (bool, np.bool_)


class Gate(NamedTuple):
    """One gate, plain data that :class:`Circuit` checks; ``controls`` holds (qubit, positive) pairs."""

    kind: str
    target: int
    controls: tuple = ()


@dataclass(frozen=True)
class Circuit:
    """Gates over ``n_qubits`` qubits, first gate first; the one place a gate is checked.

    ``n_qubits`` must be an integer >= 0.  Each gate must be H, X or an MCX (only an MCX has
    controls), name its qubits by Python or numpy integers (not bools) and its polarities by bools,
    repeat no qubit among its controls and target, and address only ``[0, n_qubits)``.
    """

    n_qubits: int
    gates: tuple = ()

    def __post_init__(self):
        if not _is_count(self.n_qubits):
            raise DomainError(f"qubit count must be an integer >= 0, got {self.n_qubits!r}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if g.kind not in (HADAMARD, PAULI_X, MCX):
                raise DomainError(f"unknown gate kind {g.kind!r}")
            if g.controls and g.kind != MCX:
                raise DomainError(f"{g.kind} takes no controls")
            # type() first: _is_integer on each of an oracle's 12k controls costs about 1 ms.
            if not (type(g.target) is int or _is_integer(g.target)):
                raise DomainError(f"gate target must be an integer qubit, got {g.target!r}")
            qubits = {g.target}
            for q, positive in g.controls:
                if not (type(q) is int or _is_integer(q)) or type(positive) not in _POLARITIES:
                    raise DomainError(f"control must be an (integer qubit, bool) pair, got {(q, positive)!r}")
                qubits.add(q)
            if len(qubits) <= len(g.controls):
                raise DomainError("control qubits must be distinct from each other and the target")
            if min(qubits) < 0 or max(qubits) >= self.n_qubits:
                raise DomainError("gate addresses qubit outside the circuit")


@dataclass(frozen=True)
class Transposition:
    a: int
    b: int

    def __post_init__(self):
        if not (_is_count(self.a) and _is_count(self.b)):
            raise DomainError(f"transposition endpoints must be integers >= 0, got {self.a!r} and {self.b!r}")
        if self.a == self.b:
            raise DomainError("transposition endpoints must differ")


@dataclass(frozen=True)
class GateCountReport:
    """Per-kind gate counts and a two-qubit-equivalent cost estimate.

    An MCX with c >= 2 controls is charged 2c - 1 basic units (the linear
    ancilla-free decomposition); everything else costs one unit.
    """

    counts: dict = field(default_factory=dict)
    basic_gate_total: int = 0


# --- text format ---


def _format_gate(gate: Gate) -> str:
    if gate.kind == MCX:
        ctrls = " ".join(f"{'+' if pos else '-'}q{q}" for q, pos in gate.controls)
        return f"MCX {ctrls} -> q{gate.target}".replace("  ", " ")
    return f"{gate.kind} q{gate.target}"


def emit_circuit(circuit: Circuit) -> str:
    """Serialize to the one-gate-per-line text format (lossless round trip)."""
    lines = [f"QUBITS {circuit.n_qubits}"]
    lines.extend(_format_gate(g) for g in circuit.gates)
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
    gates = []
    for ln in lines[1:]:
        if single := _SINGLE_LINE.fullmatch(ln):
            gates.append(Gate(single[1], int(single[2])))
        elif mcx := _MCX_LINE.fullmatch(ln):
            controls = tuple((int(tok[2:]), tok[0] == "+") for tok in mcx[1].split())
            gates.append(Gate(MCX, int(mcx[2]), controls))
        else:
            raise DomainError(f"malformed gate line: {ln!r}")
    return Circuit(int(header[1]), tuple(gates))


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


def apply_transpositions(transpositions, size: int) -> np.ndarray:
    """The fresh int64 image table of the transpositions' operator product: the last acts first."""
    images = np.arange(size, dtype=np.int64)
    for t in transpositions:  # images = images o t, so the last t acts first
        if max(t.a, t.b) >= size:  # a Transposition's endpoints are integers >= 0
            raise DomainError(f"transposition ({t.a} {t.b}) out of range [0, {size})")
        images[t.a], images[t.b] = images[t.b], images[t.a]
    return images


def permutation_to_transpositions(images):
    """Split the permutation with image table ``images`` into at most len(images) - 1 transpositions.

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
            out.append(Transposition(cycle[0], elem))
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


def _ladder_entries(transpositions, width) -> int:
    """Control entries of the ladders of ``transpositions``: 2d - 1 gates of width - 1 controls each.

    d is the Hamming distance of a transposition's endpoints.  What :func:`gray_code` refuses, a width
    or endpoints it cannot hold, counts nothing: its error comes first.
    """
    if not _is_count(width):
        return 0
    d = [(int(t.a) ^ int(t.b)).bit_count() for t in transpositions if int(max(t.a, t.b)).bit_length() <= width]
    return (2 * sum(d) - len(d)) * (width - 1)


def _step_gate(word_a: int, word_b: int, width: int) -> Gate:
    """MCX transposing two words at Hamming distance 1, fixing everything else."""
    target = width - (word_a ^ word_b).bit_length()
    controls = tuple((q, bool((word_a >> (width - 1 - q)) & 1)) for q in range(width) if q != target)
    return Gate(MCX, target, controls) if controls else Gate(PAULI_X, target)


def _transposition_gates(t: Transposition, width: int) -> list:
    """The gates of :func:`synth_transposition`: a forward sweep and its mirror."""
    path = gray_code(t.a, t.b, width)
    steps = [_step_gate(u, v, width) for u, v in zip(path, path[1:])]
    # The backward sweep undoes steps k-1 ... 1; gates are frozen, so reuse them.
    return steps + steps[-2::-1]


def synth_transposition(t: Transposition, width: int) -> Circuit:
    """Synthesize the transposition |a> <-> |b> as 2k - 1 multi-controlled X gates.

    k is the Hamming distance between the endpoints.  A forward sweep along
    the Gray-code path shifts a to b (cyclically displacing the interior
    words); the backward sweep restores the interior, leaving the pure
    transposition.
    """
    _check_control_entries(_ladder_entries([t], width), "transposition")
    return Circuit(width, _transposition_gates(t, width))


def synth_permutation(images, width: int) -> Circuit:
    """Compile the permutation with image table ``images`` by concatenating its transposition ladders.

    The transposition sequence is an operator product, so the ladders are
    laid down in reverse sequence order.
    """
    transpositions = permutation_to_transpositions(images)
    _check_control_entries(_ladder_entries(transpositions, width), "permutation")
    gates = []
    for t in reversed(transpositions):
        gates += _transposition_gates(t, width)
    return Circuit(width, gates)


def synth_boolean_oracle(f, n: int) -> Circuit:
    """Bit oracle on n + 1 qubits computing b ^= f(x); ancilla b is qubit 0.

    The lifted bijection is one transposition (x, 2^n + x) per marked word x,
    and each one's ladder is a single MCX on qubit 0 controlled by the data
    qubits at x's bits.  The ladders are laid down in descending x, the gates
    ``synth_permutation(lift_boolean(f, n), n + 1)`` builds.
    """
    marked = _marked_words(f, n)[::-1]
    _check_control_entries(len(marked) * n, "oracle")
    bits = ((marked[:, None] >> np.arange(n - 1, -1, -1)) & 1).tolist()
    # controls[q - 1][bit] is the control (q, bit == 1), shared by every gate.
    controls = [((q, False), (q, True)) for q in range(1, n + 1)]
    return Circuit(n + 1, [Gate(MCX, 0, tuple(map(getitem, controls, row))) for row in bits])


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
    prep = (Gate(PAULI_X, 0), Gate(HADAMARD, 0))
    unprep = (Gate(HADAMARD, 0), Gate(PAULI_X, 0))
    return Circuit(n + 1, prep + oracle.gates + unprep)


def _increment_gates(offset: int, s: int):
    """Increment an s-qubit register mod 2^s: descending multi-controlled cascade."""
    gates = []
    for u in range(s):  # u = 0 is the register's most significant qubit
        controls = tuple((offset + v, True) for v in range(u + 1, s))
        if controls:
            gates.append(Gate(MCX, offset + u, controls))
        else:
            gates.append(Gate(PAULI_X, offset + u))
    return gates


def synth_init_state_circuit(s: int, m: int) -> Circuit:
    """Prepare sum_k 2^(-s/2) |k>|k+1 mod 2^s> ... |k+m-1 mod 2^s> from |0...0>.

    Register t (1-based) occupies qubits [(t-1)s, ts).  Hadamards put
    register 1 into uniform superposition; each later register is fanned out
    from its predecessor with CNOTs and then incremented mod 2^s.
    """
    if not (_is_count(s) and _is_count(m)) or s < 1 or m < 2:
        raise DomainError("require s >= 1 and M >= 2")
    # Per later register: s CNOTs, then an increment of s(s - 1)/2 controls.
    _check_control_entries((m - 1) * (s + s * (s - 1) // 2), "init-state circuit")
    gates = [Gate(HADAMARD, q) for q in range(s)]
    for t in range(2, m + 1):
        src = (t - 2) * s
        dst = (t - 1) * s
        gates.extend(Gate(MCX, dst + u, ((src + u, True),)) for u in range(s))
        gates.extend(_increment_gates(dst, s))
    return Circuit(s * m, tuple(gates))


def init_state_target(s: int, m: int) -> np.ndarray:
    """The target superposition of :func:`synth_init_state_circuit`, built directly."""
    dim = 2 ** (s * m)
    vec = np.zeros(dim, dtype=np.complex128)
    for k in range(2**s):
        idx = 0
        for t in range(m):
            idx = (idx << s) | ((k + t) % 2**s)
        vec[idx] = 2 ** (-s / 2)
    return vec


# --- simulation: dense unitary, sparse statevector, basis permutation ---


def _apply_gates(state: np.ndarray, gates, n: int) -> None:
    """Apply ``gates`` in order, in place; ``state`` has shape (2^n,) or (2^n, batch).

    The state is viewed as one axis per qubit (qubit 0 first), so a gate's
    two halves are basic-index views: controls fixed to their polarity, the
    target to 0 (``low``) or 1 (``high``).  The trailing ``Ellipsis`` keeps a
    fully indexed half a 0-d view instead of a copied scalar.  Hadamards
    round exactly like ``(a + b) * _SQRT_HALF`` and ``(a - b) * _SQRT_HALF``.
    """
    view = state.reshape((2,) * n + state.shape[1:])
    scratch = np.empty(state.size // 2, dtype=state.dtype)
    for gate in gates:
        index = [_ALL] * n
        for q, positive in gate.controls:
            index[q] = int(positive)
        index[gate.target] = 0
        low = view[tuple(index) + (Ellipsis,)]
        index[gate.target] = 1
        high = view[tuple(index) + (Ellipsis,)]
        tmp = scratch[: low.size].reshape(low.shape)
        np.copyto(tmp, low)
        if gate.kind == HADAMARD:
            low += high
            low *= _SQRT_HALF
            np.subtract(tmp, high, out=high)
            high *= _SQRT_HALF
        else:
            np.copyto(low, high)
            np.copyto(high, tmp)


def _apply_gates_sparse(gates, n: int, basis_input: int) -> tuple[np.ndarray, np.ndarray]:
    """Run ``gates`` from ``basis_input`` on the support: the positions that may be nonzero.

    Returns the distinct int64 positions and their float64 values; every
    amplitude off the positions is +0.  An X or MCX flips the target bit of
    the positions whose controls match.  An H pairs each position with its
    partner at the other target bit, a missing partner being +0, and gives the
    pair ``(a + b) * _SQRT_HALF`` and ``(a - b) * _SQRT_HALF``, the float
    operations of :func:`_apply_gates`; no value is ever -0, so adding a +0
    partner rounds as the full sweep does, and the full sweep maps every pair
    of +0 it holds off the support to +0.
    """
    pos = np.array([basis_input], dtype=np.int64)
    amp = np.ones(1)
    for gate in gates:
        tbit = 1 << (n - 1 - gate.target)
        if gate.kind != HADAMARD:
            fires = np.ones(len(pos), dtype=bool)
            for q, positive in gate.controls:
                fires &= ((pos >> (n - 1 - q)) & 1) == positive
            pos[fires] ^= tbit
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
    pos, amp = _apply_gates_sparse(circuit.gates, n, basis_input)
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
    pos, amp = _apply_gates_sparse(circuit.gates, n, 0)
    support = dict(zip(pos.tolist(), amp.tolist()))
    k = np.arange(2**s, dtype=np.int64)
    windows = np.zeros(2**s, dtype=np.int64)
    for t in range(m):
        windows = (windows << s) | ((k + t) & (2**s - 1))
    weight = 2 ** (-s / 2)
    return abs(math.fsum(weight * support.get(w, 0.0) for w in windows.tolist())) ** 2


def simulate_unitary(circuit: Circuit) -> np.ndarray:
    """Exact dense unitary of the circuit (column i = image of basis state i)."""
    n = circuit.n_qubits
    if n > UNITARY_QUBIT_LIMIT:
        raise ResourceError(f"{n} qubits exceeds the unitary limit of {UNITARY_QUBIT_LIMIT}")
    mat = np.eye(2**n)
    _apply_gates(mat, circuit.gates, n)
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
    if any(gate.kind == HADAMARD for gate in circuit.gates):
        raise DomainError("circuit is not a basis permutation: contains Hadamard")
    bit = [1 << (n - 1 - q) for q in range(n)]
    images = np.arange(2**n, dtype=np.int64)
    for target, run in groupby(reversed(circuit.gates), key=attrgetter("target")):
        run = tuple(run)
        values_by_free = {}  # the control values of the run's gates, keyed by their uncontrolled qubits
        for gate in run:
            care, value = bit[target], 0
            for q, positive in gate.controls:
                care |= bit[q]
                if positive:
                    value |= bit[q]
            values_by_free.setdefault((1 << n) - 1 - care, []).append(value)
        words = np.concatenate([(np.array(values)[:, None] | _fillings(free)).ravel()
                                for free, values in values_by_free.items()])
        if len(run) > 1:  # one gate fires on a word at most once
            words, hits = np.unique(words, return_counts=True)
            words = words[hits % 2 == 1]
        partners = words | bit[target]
        images[words], images[partners] = images[partners], images[words]
    return images


# --- cost accounting and MCX expansion ---


def _basic_cost(controls: int) -> int:
    """Basic units of one gate with ``controls`` controls, as :class:`GateCountReport` charges them."""
    return 1 if controls <= 1 else 2 * controls - 1


def gate_count(circuit: Circuit) -> GateCountReport:
    counts = {HADAMARD: 0, PAULI_X: 0, MCX: 0}
    total = 0
    for gate in circuit.gates:
        counts[gate.kind] += 1
        total += _basic_cost(len(gate.controls))
    return GateCountReport(counts, total)


def expand_mcx(circuit: Circuit) -> Circuit:
    """Rewrite to {X, CNOT, CCX} with positive controls, using one work register.

    Negative controls are absorbed by conjugating X gates.  An MCX with
    c >= 3 controls becomes the standard AND-ladder: c - 2 Toffolis compute
    the conjunction into work qubits, one Toffoli hits the target, and the
    ladder is uncomputed.  Work qubits are appended after the data qubits
    and are returned to |0>.
    """
    sizes = [len(g.controls) for g in circuit.gates]
    # An MCX of c >= 3 controls becomes 2(c - 2) + 1 Toffolis; the X flips take no controls.
    _check_control_entries(sum(c if c <= 2 else 4 * c - 6 for c in sizes), "MCX expansion")
    extra = max(max(sizes, default=0) - 2, 0)
    n = circuit.n_qubits
    gates = []
    for gate in circuit.gates:
        if gate.kind == HADAMARD or not gate.controls:
            gates.append(gate)
            continue
        flips = [Gate(PAULI_X, q) for q, positive in gate.controls if not positive]
        ctrls = [q for q, _ in gate.controls]
        gates.extend(flips)
        if len(ctrls) <= 2:
            gates.append(Gate(MCX, gate.target, tuple((q, True) for q in ctrls)))
        else:
            ladder = [Gate(MCX, n, ((ctrls[0], True), (ctrls[1], True)))]
            for i, q in enumerate(ctrls[2:-1]):
                ladder.append(Gate(MCX, n + i + 1, ((q, True), (n + i, True))))
            top = n + len(ctrls) - 3
            gates.extend(ladder)
            gates.append(Gate(MCX, gate.target, ((ctrls[-1], True), (top, True))))
            gates.extend(reversed(ladder))
        gates.extend(flips)
    return Circuit(n + extra, tuple(gates))
