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

from .errors import DomainError, ResourceError, _is_count, _is_integer

INDEX_FORMAT_VERSION = 1
#: Most positions an index may cover, checked by its constructor: ``indicator_for`` unpacks n bytes,
#: so an index read from a document cannot ask for more than 256 MiB.
INDEX_LENGTH_LIMIT = 2**28


def _frozen_codes(values) -> np.ndarray:
    """Read-only copy of symbol codes: uint8 when every code is in 0..255, else int64."""
    try:
        codes = np.asarray(values)
    except ValueError:  # a ragged list has no shape
        raise DomainError("symbol codes must be one-dimensional, got a ragged sequence") from None
    if codes.ndim != 1:
        raise DomainError(f"symbol codes must be one-dimensional, got shape {codes.shape}")
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


@dataclass(frozen=True, eq=False)
class Text:
    """An immutable string of symbol codes of length N.

    ``symbols`` is a read-only copy of the codes: uint8 when every code is in
    0..255 (every text read from bytes), int64 otherwise (negative codes,
    k-gram recodings with more than 256 codes).  The alphabet is derived from
    the codes, on first use.  Texts with equal codes compare equal; a text is
    not hashable.
    """

    symbols: np.ndarray
    _noun = "text"  # names the type in its error messages

    def __post_init__(self):
        object.__setattr__(self, "symbols", _frozen_codes(self.symbols))
        if self.n < 1:
            raise DomainError(f"{self._noun} must contain at least one symbol")

    def __eq__(self, other):  # defined in the class body, so a text is unhashable
        return np.array_equal(self.symbols, other.symbols) if type(other) is type(self) else NotImplemented

    @property
    def n(self) -> int:
        return len(self.symbols)

    @cached_property
    def alphabet(self) -> frozenset:
        """The distinct codes of the text."""
        codes = self.symbols
        distinct = np.flatnonzero(np.bincount(codes)) if codes.dtype == np.uint8 else np.unique(codes)
        return frozenset(distinct.tolist())

    @classmethod
    def from_bytes(cls, data: bytes) -> "Text":
        if not data:
            raise DomainError(f"empty {cls._noun}")
        return cls(np.frombuffer(data, dtype=np.uint8))  # a view; the constructor makes the one copy

    @classmethod
    def from_file(cls, path) -> "Text":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


class Pattern(Text):
    """A text of length M, searched for in a longer text over the same alphabet.

    A pattern compares equal only to patterns.
    """

    _noun = "pattern"
    m = Text.n


@dataclass(frozen=True)
class OracleIndex:
    """The query functions f_sigma of a text of length n: per symbol, the positions holding it.

    ``indicators`` maps each integer symbol code to its n bits, bit i set iff
    text[i] == symbol, packed into a one-dimensional uint8 array of ceil(n/8)
    bytes in ``np.packbits`` order.  The constructor checks every entry and
    stores a fresh dict of read-only entries with the padding bits of the last
    byte zeroed; an entry that already is read-only with zero padding is
    kept, not copied.
    """

    n: int
    indicators: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (_is_count(self.n) and self.n >= 1):
            raise DomainError(f"index length n must be an integer >= 1, got {self.n!r}")
        if self.n > INDEX_LENGTH_LIMIT:
            raise ResourceError(f"index length {self.n} exceeds the limit of {INDEX_LENGTH_LIMIT} positions")
        nbytes, padding = (self.n + 7) // 8, -self.n % 8
        entries = {}
        for symbol, packed in self.indicators.items():
            _check_symbol(symbol)
            if not (isinstance(packed, np.ndarray) and packed.dtype == np.uint8 and packed.shape == (nbytes,)):
                got = f"{packed.dtype} {packed.shape}" if isinstance(packed, np.ndarray) else type(packed).__name__
                raise DomainError(f"indicator of symbol {symbol} must be {nbytes} uint8 bytes, got {got}")
            if packed.flags.writeable or padding and packed[-1] & ((1 << padding) - 1):
                packed = packed.copy()
                packed[-1] &= 0xFF << padding & 0xFF
            packed.setflags(write=False)
            entries[int(symbol)] = packed
        object.__setattr__(self, "indicators", entries)

    def indicator_for(self, symbol: int) -> np.ndarray:
        """The n bits of integer code ``symbol``, read-only uint8 unpacked per call; all zero off the alphabet."""
        _check_symbol(symbol)
        packed = self.indicators.get(int(symbol))
        bits = np.zeros(self.n, dtype=np.uint8) if packed is None else np.unpackbits(packed, count=self.n)
        bits.setflags(write=False)
        return bits

    def to_json(self) -> str:
        """The index document, byte for byte what ``json.dumps(payload, sort_keys=True)`` writes.

        The payload has the keys ``alphabet``, ``indicators`` (base64 of each
        symbol's packed bytes, keyed by the symbol in decimal), ``n`` and ``version``.
        Base64 needs no JSON escaping, so the document is joined from its
        pieces instead of being scanned again by the encoder.
        """
        keys = sorted(str(sym) for sym in self.indicators)  # sort_keys orders them as strings
        parts = ['{"alphabet": [', ", ".join(str(sym) for sym in sorted(self.indicators)), '], "indicators": {']
        for i, key in enumerate(keys):
            encoded = base64.b64encode(self.indicators[int(key)]).decode("ascii")
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
        if not isinstance(payload.get("indicators"), dict):
            raise DomainError("index document needs an 'indicators' object")
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
            indicators[symbol] = packed
        index = cls(payload.get("n"), indicators)  # checks n and every entry
        # Size by n only once indicators exist: each holds ceil(n/8) bytes, so the document bounds n.
        covered = np.zeros((index.n + 7) // 8 if indicators else 0, dtype=np.uint8)
        twice = covered.copy()
        for packed in index.indicators.values():
            twice |= covered & packed
            covered |= packed
        if twice.any():
            byte = int(np.flatnonzero(twice)[0])  # packbits order: the first position is the top set bit
            raise DomainError(f"position {8 * byte + 8 - int(twice[byte]).bit_length()} is set in two indicators")
        alphabet = payload.get("alphabet")
        if alphabet != sorted(indicators) or any(type(a) is not int for a in alphabet):
            raise DomainError("alphabet does not match the indicator symbols")
        return index


@dataclass(frozen=True)
class ClassicalMatchResult:
    """Best Hamming agreement score and all offsets attaining it, ascending."""

    best_score: int
    offsets: tuple


def _check_symbol(symbol) -> None:
    if not _is_integer(symbol):
        raise DomainError(f"symbol must be an integer code, got {symbol!r}")


def build_index(text: Text) -> OracleIndex:
    """Build the per-symbol membership index of ``text`` in one pass."""
    hits = np.empty(text.n, dtype=bool)
    indicators = {}
    for sym in sorted(text.alphabet):  # every symbol occurs, so the dtype holds it
        np.equal(text.symbols, sym, out=hits)
        packed = np.packbits(hits)
        packed.setflags(write=False)  # the constructor keeps a read-only entry without a copy
        indicators[sym] = packed
    return OracleIndex(text.n, indicators)


def f_sigma(index: OracleIndex, symbol: int, i: int) -> int:
    """Return 1 iff text position ``i`` holds ``symbol``."""
    if not (_is_count(i) and i < index.n):
        raise DomainError(f"position must be an integer in [0, {index.n}), got {i!r}")
    _check_symbol(symbol)
    if int(symbol) not in index.indicators:
        raise DomainError(f"symbol {symbol!r} not in alphabet")
    byte = int(index.indicators[int(symbol)][i // 8])
    return byte >> (7 - i % 8) & 1  # packbits order: position 8b is the top bit of byte b


def hamming_score(text: Text, pattern: Pattern, offset: int) -> int:
    """Count per-position symbol agreements of ``pattern`` at ``offset``."""
    if not (_is_count(offset) and offset <= text.n - pattern.m):
        raise DomainError(f"offset must be an integer in [0, {text.n - pattern.m}], got {offset!r}")
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
        values = symbols.tolist()  # one pass into Python ints, no numpy scalar per position
        return [codes.setdefault(gram, len(codes)) for gram in zip(*(values[i:] for i in range(k)))]

    return Text(encode(text.symbols)), Pattern(encode(pattern.symbols))
