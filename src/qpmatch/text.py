"""Text/pattern data model and classical closest-match machinery.

Symbols are small integer codes.  Texts ingested from bytes use the identity
mapping byte -> code, so the alphabet is decoupled from any particular
encoding and k-gram recoding can assign fresh codes uniformly.  All offsets
and positions are zero-based.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, _is_count

#: Reserved padding code; never a member of any alphabet.
SENTINEL = -1

INDEX_FORMAT_VERSION = 1


def _frozen_codes(values) -> np.ndarray:
    """Read-only copy of symbol codes: uint8 when every code is in 0..255, else int64."""
    codes = np.asarray(values)
    if codes.dtype != np.uint8:
        if codes.size and (codes.dtype.kind not in "iu" or codes.max() > np.iinfo(np.int64).max):
            raise DomainError(f"symbol codes must be integers in the int64 range, got {codes.dtype} codes")
        codes = np.asarray(codes, dtype=np.int64)
    byte_wide = codes.dtype == np.uint8 or (codes.size > 0 and codes.min() >= 0 and codes.max() <= 255)
    frozen = codes.astype(np.uint8 if byte_wide else np.int64)
    frozen.setflags(write=False)
    return frozen


def _unique_keys(pairs) -> dict:
    """``object_pairs_hook`` for ``json.loads``: plain ``json.loads`` keeps the last of two equal keys."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise DomainError(f"index document repeats the key {key!r}")
        obj[key] = value
    return obj


def _holds(symbols: np.ndarray, code: int) -> bool:
    """Whether the dtype of ``symbols`` can hold ``code``; a code it cannot hold occurs nowhere."""
    info = np.iinfo(symbols.dtype)
    return info.min <= code <= info.max


@dataclass(frozen=True)
class Text:
    """An immutable string of symbol codes of length N.

    ``symbols`` is a read-only copy of the codes: uint8 when every code is in
    0..255 (every text read from bytes), int64 otherwise (sentinel-padded
    texts, negative codes, k-gram recodings with more than 256 codes).

    ``padded_from`` records the original length when sentinel padding has
    been appended (see :func:`pad_to_power_of_two`); it is ``None`` for
    unpadded texts.  The alphabet is derived from the codes, on first use.
    """

    symbols: np.ndarray
    padded_from: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "symbols", _frozen_codes(self.symbols))
        if self.n < 1:
            raise DomainError("text must contain at least one symbol")
        if self.padded_from is not None and not (_is_count(self.padded_from) and 1 <= self.padded_from < self.n):
            raise DomainError(f"padded_from must be an integer in [1, {self.n}), got {self.padded_from!r}")
        body = self.symbols[: self.padded_from]
        if body.dtype != np.uint8 and (body == SENTINEL).any():  # a byte is never the sentinel
            raise DomainError("alphabet may not contain the padding sentinel")
        if not (self.symbols[len(body) :] == SENTINEL).all():
            raise DomainError("padding region must hold only the sentinel code")

    @property
    def n(self) -> int:
        return len(self.symbols)

    @cached_property
    def alphabet(self) -> frozenset:
        """The distinct codes of the unpadded body."""
        body = self.symbols[: self.padded_from]
        distinct = np.flatnonzero(np.bincount(body)) if body.dtype == np.uint8 else np.unique(body)
        return frozenset(distinct.tolist())

    @classmethod
    def from_codes(cls, codes) -> "Text":
        return cls(codes)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Text":
        if not data:
            raise DomainError("empty text")
        return cls(np.frombuffer(data, dtype=np.uint8))  # a view; the constructor makes the one copy

    @classmethod
    def from_file(cls, path) -> "Text":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


@dataclass(frozen=True)
class Pattern:
    """An immutable sequence of symbol codes of length M.

    ``symbols`` follows the rule of :class:`Text`: a read-only copy, uint8
    when every code is in 0..255 and int64 otherwise.
    """

    symbols: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "symbols", _frozen_codes(self.symbols))
        if self.m < 1:
            raise DomainError("pattern must contain at least one symbol")

    @property
    def m(self) -> int:
        return len(self.symbols)

    @classmethod
    def from_codes(cls, codes) -> "Pattern":
        return cls(codes)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Pattern":
        if not data:
            raise DomainError("empty pattern")
        return cls(np.frombuffer(data, dtype=np.uint8))


@dataclass(frozen=True)
class SymbolIndicator:
    """Membership bitvector of one symbol: bit i is set iff text[i] == symbol.

    ``packed`` holds the n bits as ceil(n/8) read-only bytes in
    ``np.packbits`` order, with the padding bits of the last byte zeroed.  One
    that already is read-only uint8 with zero padding is kept, not copied.
    """

    symbol: int
    packed: np.ndarray
    n: int

    def __post_init__(self):
        packed = self.packed
        if not (isinstance(packed, np.ndarray) and packed.dtype == np.uint8 and not packed.flags.writeable):
            packed = np.array(packed, dtype=np.uint8)
        nbytes = (self.n + 7) // 8
        if packed.ndim != 1 or len(packed) != nbytes:
            raise DomainError(f"indicator of symbol {self.symbol} has {packed.size} bytes, expected {nbytes}")
        padding = -self.n % 8
        if padding and packed[-1] & ((1 << padding) - 1):
            packed = packed.copy()
            packed[-1] &= 0xFF << padding & 0xFF
        packed.setflags(write=False)
        object.__setattr__(self, "packed", packed)

    @cached_property
    def bits(self) -> np.ndarray:
        """The n bits unpacked, one read-only uint8 per position; unpacked once, on first use."""
        bits = np.unpackbits(self.packed, count=self.n)
        bits.setflags(write=False)
        return bits


@dataclass(frozen=True)
class OracleIndex:
    """One :class:`SymbolIndicator` per alphabet symbol of a text of length n."""

    n: int
    indicators: dict = field(default_factory=dict)

    def indicator_for(self, symbol: int) -> SymbolIndicator:
        """Indicator for ``symbol``; all-zero for symbols outside the alphabet."""
        ind = self.indicators.get(int(symbol))
        if ind is None:
            ind = SymbolIndicator(int(symbol), np.zeros((self.n + 7) // 8, dtype=np.uint8), self.n)
        return ind

    def to_json(self) -> str:
        """The index document, byte for byte what ``json.dumps(payload, sort_keys=True)`` writes.

        The payload has the keys ``alphabet``, ``indicators`` (base64 of each
        ``packed``, keyed by the symbol in decimal), ``n`` and ``version``.
        Base64 needs no JSON escaping, so the document is joined from its
        pieces instead of being scanned again by the encoder.
        """
        keys = sorted(str(sym) for sym in self.indicators)  # sort_keys orders them as strings
        parts = ['{"alphabet": [', ", ".join(str(sym) for sym in sorted(self.indicators)), '], "indicators": {']
        for i, key in enumerate(keys):
            encoded = base64.b64encode(self.indicators[int(key)].packed).decode("ascii")
            parts.append(f'{", " if i else ""}"{key}": "{encoded}"')
        parts.append(f'}}, "n": {self.n}, "version": {INDEX_FORMAT_VERSION}}}')
        return "".join(parts)

    @classmethod
    def from_json(cls, document: str) -> "OracleIndex":
        try:
            payload = json.loads(document, object_pairs_hook=_unique_keys)
        except DomainError:
            raise
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, an over-long int, deep nesting
            raise DomainError(f"index document is not JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise DomainError("index document must be a JSON object")
        # type(...) is int: a JSON boolean is a Python int too, and True == 1.
        version = payload.get("version")
        if type(version) is not int or version != INDEX_FORMAT_VERSION:
            raise DomainError(f"unsupported index format version: {version!r}")
        if type(payload.get("n")) is not int or not isinstance(payload.get("indicators"), dict):
            raise DomainError("index document needs an integer 'n' and an 'indicators' object")
        n = payload["n"]
        if n < 1:
            raise DomainError(f"index length n must be >= 1, got {n}")
        indicators = {}
        for sym_str, encoded in payload["indicators"].items():
            try:
                symbol = int(sym_str)
                packed = np.frombuffer(base64.b64decode(encoded, validate=True), dtype=np.uint8)
            except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
                raise DomainError(f"malformed indicator entry {sym_str!r}: {exc}") from None
            # int() also reads "01", "+1", " 1" and "1_0"; two such keys would name one symbol.
            if str(symbol) != sym_str:
                raise DomainError(f"indicator key {sym_str!r} is not a symbol code in canonical decimal")
            indicators[symbol] = SymbolIndicator(symbol, packed, n)
        # Size by n only once indicators exist: each holds ceil(n/8) bytes, so the document bounds n.
        covered = np.zeros((n + 7) // 8 if indicators else 0, dtype=np.uint8)
        twice = covered.copy()
        for ind in indicators.values():
            twice |= covered & ind.packed
            covered |= ind.packed
        if twice.any():
            byte = int(np.flatnonzero(twice)[0])  # packbits order: the first position is the top set bit
            raise DomainError(f"position {8 * byte + 8 - int(twice[byte]).bit_length()} is set in two indicators")
        alphabet = payload.get("alphabet")
        if alphabet != sorted(indicators) or any(type(a) is not int for a in alphabet):
            raise DomainError("alphabet does not match the indicator symbols")
        return cls(n, indicators)


@dataclass(frozen=True)
class ClassicalMatchResult:
    """Best Hamming agreement score and all offsets attaining it, ascending."""

    best_score: int
    offsets: tuple


def build_index(text: Text) -> OracleIndex:
    """Build the per-symbol membership index of ``text`` in one pass.

    Sentinel padding positions belong to no indicator.
    """
    hits = np.empty(text.n, dtype=bool)
    indicators = {}
    for sym in sorted(text.alphabet):  # every symbol occurs, so the dtype holds it
        np.equal(text.symbols, sym, out=hits)
        packed = np.packbits(hits)
        packed.setflags(write=False)
        indicators[sym] = SymbolIndicator(sym, packed, text.n)
    return OracleIndex(text.n, indicators)


def f_sigma(index: OracleIndex, symbol: int, i: int) -> int:
    """Return 1 iff text position ``i`` holds ``symbol``."""
    if not 0 <= i < index.n:
        raise DomainError(f"position {i} out of range [0, {index.n})")
    if int(symbol) not in index.indicators:
        raise DomainError(f"symbol {symbol!r} not in alphabet")
    return int(index.indicators[int(symbol)].bits[i])


def hamming_score(text: Text, pattern: Pattern, offset: int) -> int:
    """Count per-position symbol agreements of ``pattern`` at ``offset``."""
    if not 0 <= offset <= text.n - pattern.m:
        raise DomainError(f"offset {offset} out of range [0, {text.n - pattern.m}]")
    window = text.symbols[offset : offset + pattern.m]
    return int(np.count_nonzero(window == pattern.symbols))


def closest_match_classical(text: Text, pattern: Pattern) -> ClassicalMatchResult:
    """Scan all offsets and return the maximal score with its full tie set.

    Scores are counted in the narrowest unsigned type that holds M (uint8 for
    M <= 255), one reused bool buffer of matches at a time.
    """
    n, m = text.n, pattern.m
    if m > n:
        raise DomainError(f"pattern length {m} exceeds text length {n}")
    span = n - m + 1
    scores = np.zeros(span, dtype=np.min_scalar_type(m))
    hits = np.empty(span, dtype=bool)
    for j, code in enumerate(pattern.symbols.tolist()):
        if _holds(text.symbols, code):
            np.equal(text.symbols[j : j + span], code, out=hits)
            scores += hits.view(np.uint8)
    best = int(scores.max())
    offsets = tuple(int(o) for o in np.flatnonzero(scores == best))
    return ClassicalMatchResult(best, offsets)


def recode_kgrams(text: Text, pattern: Pattern, k: int):
    """Recode text and pattern over the alphabet of overlapping k-grams.

    Each position of the recoded text holds the code of the k-gram starting
    there, so the text shrinks to N-k+1 positions and the pattern to M-k+1.
    Codes are assigned by first appearance, text first, then pattern, which
    makes the recoding deterministic.
    """
    if k not in (2, 3):
        raise DomainError("k-gram size must be 2 or 3")
    if pattern.m < k:
        raise DomainError(f"pattern of length {pattern.m} too short for {k}-grams")
    if text.n < k:
        raise DomainError(f"text of length {text.n} too short for {k}-grams")

    codes = {}

    def encode(symbols) -> list:
        out = []
        for i in range(len(symbols) - k + 1):
            gram = tuple(int(s) for s in symbols[i : i + k])
            out.append(codes.setdefault(gram, len(codes)))
        return out

    new_text = encode(text.symbols)
    new_pattern = encode(pattern.symbols)
    return Text.from_codes(new_text), Pattern.from_codes(new_pattern)


def pad_to_power_of_two(text: Text, m: int) -> Text:
    """Append sentinel symbols until N - m is an exact power of two.

    Returns ``text`` unchanged when N - m already is one.  For m == N the
    text is padded until N - m = 1 (= 2^0).
    """
    if m > text.n:
        raise DomainError(f"pattern length {m} exceeds text length {text.n}")
    gap = text.n - m
    target = 1
    while target < gap:
        target *= 2
    if target == gap:
        return text
    padded = np.concatenate([text.symbols, np.full(target - gap, SENTINEL, dtype=np.int64)])
    return Text(padded, text.padded_from or text.n)  # padded_from is None or >= 1
