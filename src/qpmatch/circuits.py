"""Reversible-circuit synthesis and dense verification.

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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import getitem

import numpy as np

from .errors import DomainError, ResourceError, _is_count

HADAMARD = "H"
PAULI_X = "X"
MCX = "MCX"

UNITARY_QUBIT_LIMIT = 12
STATEVECTOR_QUBIT_LIMIT = 20

_SQRT_HALF = 1.0 / np.sqrt(2.0)
_ALL = slice(None)


@dataclass(frozen=True)
class Gate:
    """One gate, plain data that :class:`Circuit` checks; ``controls`` holds (qubit, positive) pairs."""

    kind: str
    target: int
    controls: tuple = ()


@dataclass(frozen=True)
class Circuit:
    """Gates over ``n_qubits`` qubits, first gate first; the one place a gate is checked.

    ``n_qubits`` must be an integer >= 0.  Each gate must be H, X or an MCX (only an MCX has
    controls), repeat no qubit among its controls and target, and address only ``[0, n_qubits)``.
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
            qubits = {q for q, _ in g.controls}
            qubits.add(g.target)
            if len(qubits) <= len(g.controls):
                raise DomainError("control qubits must be distinct from each other and the target")
            if min(qubits) < 0 or max(qubits) >= self.n_qubits:
                raise DomainError("gate addresses qubit outside the circuit")


@dataclass(frozen=True, eq=False)
class Permutation:
    """A bijection over [0, 2^width) given by its image table, a read-only int64 array.

    Equal tables compare equal; a permutation is not hashable.
    """

    images: np.ndarray

    def __post_init__(self):
        images = np.array(self.images, dtype=np.int64)
        images.flags.writeable = False
        object.__setattr__(self, "images", images)
        size = images.size
        if images.ndim != 1 or (size and (images.min() < 0 or images.max() >= size)):
            raise DomainError("image table is not a bijection")
        hit = np.zeros(size, dtype=bool)
        hit[images] = True
        if not hit.all():
            raise DomainError("image table is not a bijection")

    __hash__ = None

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return np.array_equal(self.images, other.images)

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return int(self.images[x])


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


def lift_boolean(f, n: int) -> Permutation:
    """Lift a Boolean function on n bits to the bijection (b, x) -> (b ^ f(x), x).

    ``f`` is indexed by the n data bits; the extra bit b is the most
    significant position of the lifted words.
    """
    ones = _marked_words(f, n)
    images = np.arange(2 ** (n + 1))
    images[ones] = 2**n + ones
    images[2**n + ones] = ones
    return Permutation(images)


def apply_transpositions(transpositions, size: int) -> Permutation:
    """Operator-product composition: the last transposition acts first."""
    images = np.arange(size)
    for t in transpositions:  # images = images o t, so the last t acts first
        if max(t.a, t.b) >= size:  # a Transposition's endpoints are integers >= 0
            raise DomainError(f"transposition ({t.a} {t.b}) out of range [0, {size})")
        images[t.a], images[t.b] = images[t.b], images[t.a]
    return Permutation(images)


def permutation_to_transpositions(p: Permutation):
    """Split a permutation into at most 2^w - 1 transpositions.

    Each cycle (c0 c1 ... cm) is emitted as (c0 cm)(c0 c(m-1)) ... (c0 c1),
    read as an operator product.
    """
    images = p.images.tolist()
    seen = [False] * p.size
    out = []
    for start in range(p.size):
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
    return Circuit(width, _transposition_gates(t, width))


def synth_permutation(p: Permutation, width: int) -> Circuit:
    """Compile a permutation by concatenating its transposition ladders.

    The transposition sequence is an operator product, so the ladders are
    laid down in reverse sequence order.
    """
    gates = []
    for t in reversed(permutation_to_transpositions(p)):
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


# --- dense simulation ---


def _apply_gates(state: np.ndarray, gates, n: int, basis_input: int | None = None) -> None:
    """Apply ``gates`` in order, in place; ``state`` has shape (2^n,) or (2^n, batch).

    The state is viewed as one axis per qubit (qubit 0 first), so a gate's
    two halves are basic-index views: controls fixed to their polarity, the
    target to 0 (``low``) or 1 (``high``).  The trailing ``Ellipsis`` keeps a
    fully indexed half a 0-d view instead of a copied scalar.  Hadamards
    round exactly like ``(a + b) * _SQRT_HALF`` and ``(a - b) * _SQRT_HALF``.

    Given ``basis_input``, the state must be that basis state, and the kernel
    tracks which qubits still hold one known bit: every amplitude with such a
    qubit at the other bit is +0, so each tracked qubit's axis is fixed to its
    bit and only the live subspace is touched.  A gate with a tracked control
    of the wrong polarity is skipped.  An X or MCX whose controls are all
    tracked flips its tracked target's bit; an H, or an MCX with an untracked
    control, untracks its target.  The full sweep maps a pair of +0 to a pair
    of +0 and applies the same float operations to every live amplitude, so
    the output bytes are those of the full sweep, signed zeros included.
    """
    view = state.reshape((2,) * n + state.shape[1:])
    scratch = np.empty(state.size // 2, dtype=state.dtype)
    # live[q] indexes qubit q's axis: its bit while tracked, else every value.
    live = [_ALL] * n
    n_tracked = 0
    if basis_input is not None:
        live = [(basis_input >> (n - 1 - q)) & 1 for q in range(n)]
        n_tracked = n
    for gate in gates:
        if n_tracked:
            untracks = gate.kind == HADAMARD
            skip = False
            for q, positive in gate.controls:
                if live[q] is _ALL:
                    untracks = True
                elif live[q] != positive:
                    skip = True  # an identity on the live subspace
                    break
            if skip:
                continue
        index = live.copy()
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
        if n_tracked and live[gate.target] is not _ALL:
            if untracks:
                live[gate.target] = _ALL
                n_tracked -= 1
            else:
                live[gate.target] ^= 1


def simulate_statevector(circuit: Circuit, basis_input: int = 0) -> np.ndarray:
    """Exact output statevector for a computational basis input.

    Every gate is real, so the state evolves in float64 and is returned as
    complex128 with the same values.
    """
    n = circuit.n_qubits
    if n > STATEVECTOR_QUBIT_LIMIT:
        raise ResourceError(f"{n} qubits exceeds the statevector limit of {STATEVECTOR_QUBIT_LIMIT}")
    if not 0 <= basis_input < 2**n:
        raise DomainError("basis input out of range")
    state = np.zeros(2**n)
    state[basis_input] = 1.0
    _apply_gates(state, circuit.gates, n, basis_input)
    return state.astype(np.complex128)


def simulate_unitary(circuit: Circuit) -> np.ndarray:
    """Exact dense unitary of the circuit (column i = image of basis state i)."""
    n = circuit.n_qubits
    if n > UNITARY_QUBIT_LIMIT:
        raise ResourceError(f"{n} qubits exceeds the unitary limit of {UNITARY_QUBIT_LIMIT}")
    mat = np.eye(2**n)
    _apply_gates(mat, circuit.gates, n)
    return mat.astype(np.complex128)


def permutation_action(circuit: Circuit) -> Permutation:
    """Exact basis-state action of an {X, MCX}-only circuit, as integers."""
    n = circuit.n_qubits
    if n > STATEVECTOR_QUBIT_LIMIT:
        raise ResourceError(f"{n} qubits exceeds the permutation limit of {STATEVECTOR_QUBIT_LIMIT}")
    if any(gate.kind == HADAMARD for gate in circuit.gates):
        raise DomainError("circuit is not a basis permutation: contains Hadamard")
    # Moving basis labels like amplitudes leaves moved[y] = the preimage of y.
    moved = np.arange(2**n)
    _apply_gates(moved, circuit.gates, n)
    images = np.empty_like(moved)
    images[moved] = np.arange(2**n)
    return Permutation(images)


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
    extra = max((len(g.controls) - 2 for g in circuit.gates), default=0)
    extra = max(extra, 0)
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
