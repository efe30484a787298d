import base64
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpmatch import (
    DomainError,
    OracleIndex,
    Pattern,
    ResourceError,
    RunConfig,
    Text,
    build_index,
    closest_match_classical,
    estimate_distribution,
    f_sigma,
    hamming_score,
    recode_kgrams,
)
from qpmatch.text import INDEX_LENGTH_LIMIT


def T(s: str) -> Text:
    return Text.from_bytes(s.encode())


def P(s: str) -> Pattern:
    return Pattern.from_bytes(s.encode())


class TestCodeDtype:
    def test_bytes_stay_byte_wide(self):
        assert T("abc").symbols.dtype == np.uint8
        assert P("abc").symbols.dtype == np.uint8

    def test_symbols_are_a_read_only_copy(self):
        codes = np.array([1, 2, 3], dtype=np.uint8)
        text = Text(codes)
        codes[0] = 9
        assert text.symbols.tolist() == [1, 2, 3]
        assert not text.symbols.flags.writeable

    def test_minus_one_is_an_ordinary_code(self):
        assert Text([3, -1]).symbols.tolist() == [3, -1]
        assert Pattern([-1, 3]).symbols.tolist() == [-1, 3]
        assert Text([3, -1]).alphabet == frozenset({3, -1})

    def test_alphabet_is_the_distinct_codes_of_the_body(self):
        assert T("abca").alphabet == frozenset(b"abc")
        assert Text([300, -5, 300]).alphabet == frozenset({300, -5})

    @pytest.mark.parametrize(
        "codes",
        [[0.5, 1.7], [1.5], [1 + 2j], [True, False], ["a"], [2**63, 5], [2**63], [2**70],
         np.array([3], dtype=object)],
    )
    @pytest.mark.parametrize("cls", [Text, Pattern])
    def test_codes_must_be_int64_integers(self, cls, codes):
        with pytest.raises(DomainError, match="integers in the int64 range"):
            cls(codes)

    def test_wide_integer_codes_are_kept(self):
        codes = np.array([7, 2**62], dtype=np.uint64)
        assert Pattern(codes).symbols.tolist() == [7, 2**62]

    @pytest.mark.parametrize(
        "codes",
        [np.array([[1, 2], [3, 4]]), np.array(5), [[1, 2]], 7, [[1], [2, 3]], [[1, 2], [3]]],
        ids=["matrix", "0-d array", "nested list", "scalar", "ragged short first", "ragged long first"],
    )
    @pytest.mark.parametrize("cls", [Text, Pattern])
    def test_codes_must_be_one_dimensional(self, cls, codes):
        with pytest.raises(DomainError, match="one-dimensional"):
            cls(codes)

    @pytest.mark.parametrize(("cls", "noun"), [(Text, "text"), (Pattern, "pattern")], ids=["Text", "Pattern"])
    def test_empty_codes_need_one_symbol(self, cls, noun):
        with pytest.raises(DomainError) as excinfo:
            cls([])
        assert str(excinfo.value) == f"{noun} must contain at least one symbol"
        with pytest.raises(DomainError) as excinfo:
            cls.from_bytes(b"")
        assert str(excinfo.value) == f"empty {noun}"


class TestFromFile:
    @pytest.mark.parametrize("cls", [Text, Pattern])
    def test_reads_the_bytes_of_a_file(self, cls, tmp_path):
        path = tmp_path / "codes.bin"
        path.write_bytes(b"ab\xff")
        value = cls.from_file(path)
        assert type(value) is cls
        assert value.symbols.tolist() == [97, 98, 255]


class TestEquality:
    def test_texts_compare_by_value(self):
        assert Text([1, 2, 3]) == Text(np.array([1, 2, 3], dtype=np.int64))
        assert T("ab") == Text([97, 98])
        assert Text([1, 2, 3]) != Text([1, 2, 4])
        assert Text([1, 2, 3]) != Text([1, 2])

    def test_patterns_compare_by_value(self):
        assert Pattern([7, 300]) == Pattern(np.array([7, 300]))
        assert P("ab") == Pattern([97, 98])
        assert Pattern([7, 300]) != Pattern([7, 301])
        assert Pattern([7]) != Pattern([7, 7])

    def test_a_pattern_is_a_text(self):
        assert isinstance(Pattern([1, 2]), Text)
        assert not isinstance(Text([1, 2]), Pattern)
        assert Pattern([1, 2]).m == Pattern([1, 2]).n == 2

    def test_a_text_is_not_a_pattern(self):
        assert Text([1, 2]) != Pattern([1, 2])
        assert Pattern([1, 2]) != Text([1, 2])

    @pytest.mark.parametrize("value", [Text([1, 2, 3]), Pattern([1, 2, 3])])
    def test_not_hashable(self, value):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


class TestBuildIndex:
    def test_aba(self):
        idx = build_index(T("aba"))
        assert idx.indicator_for(ord("a")).tolist() == [1, 0, 1]
        assert idx.indicator_for(ord("b")).tolist() == [0, 1, 0]

    def test_single_symbol_text(self):
        idx = build_index(T("zzzz"))
        assert list(idx.indicators) == [ord("z")]
        assert idx.indicator_for(ord("z")).tolist() == [1, 1, 1, 1]

    def test_partition_property(self):
        rng = np.random.default_rng(7)
        text = Text(rng.integers(0, 4, size=64))
        idx = build_index(text)
        total = sum(idx.indicator_for(sym).astype(int) for sym in idx.indicators)
        assert (total == 1).all()

    def test_empty_text_rejected(self):
        with pytest.raises(DomainError):
            Text.from_bytes(b"")

    def test_unknown_symbol_gives_zero_indicator(self):
        idx = build_index(T("abc"))
        assert idx.indicator_for(ord("x")).sum() == 0


class TestFSigma:
    def test_hit(self):
        idx = build_index(T("abc"))
        assert f_sigma(idx, ord("b"), 1) == 1

    def test_miss(self):
        idx = build_index(T("abc"))
        assert f_sigma(idx, ord("b"), 0) == 0

    def test_agrees_with_direct_scan(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 5, size=40)
        idx = build_index(Text(codes))
        for _ in range(100):
            i = int(rng.integers(0, 40))
            sym = int(rng.integers(0, 5))
            assert f_sigma(idx, sym, i) == int(codes[i] == sym)

    def test_errors(self):
        idx = build_index(T("abc"))
        with pytest.raises(DomainError):
            f_sigma(idx, ord("a"), 3)
        with pytest.raises(DomainError):
            f_sigma(idx, ord("x"), 0)

    @pytest.mark.parametrize("i", [True, 1.5, -1])
    def test_position_must_be_an_integer(self, i):
        idx = build_index(T("abc"))
        with pytest.raises(DomainError, match="position"):
            f_sigma(idx, ord("b"), i)

    @pytest.mark.parametrize("symbol", [98.7, "98", True])
    def test_symbol_must_be_an_integer(self, symbol):
        idx = build_index(T("abc"))
        with pytest.raises(DomainError, match="symbol must be an integer"):
            f_sigma(idx, symbol, 1)
        with pytest.raises(DomainError, match="symbol must be an integer"):
            idx.indicator_for(symbol)

    def test_numpy_and_negative_symbols_are_codes(self):
        idx = build_index(Text([98, -1, 98]))
        assert f_sigma(idx, np.int64(98), 0) == 1
        assert f_sigma(idx, -1, 1) == 1
        assert idx.indicator_for(np.int64(98)).tolist() == [1, 0, 1]
        assert idx.indicator_for(-1).tolist() == [0, 1, 0]


class TestHammingScore:
    def test_partial(self):
        assert hamming_score(T("abcd"), P("abd"), 0) == 2

    def test_exact_window(self):
        assert hamming_score(T("xyabcz"), P("abc"), 2) == 3

    def test_matches_independent_recount(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            codes = rng.integers(0, 3, size=20)
            pat = rng.integers(0, 3, size=4)
            o = int(rng.integers(0, 17))
            expected = sum(int(codes[o + j] == pat[j]) for j in range(4))
            assert hamming_score(Text(codes), Pattern(pat), o) == expected

    def test_offset_out_of_range(self):
        with pytest.raises(DomainError):
            hamming_score(T("abcd"), P("ab"), 3)

    @pytest.mark.parametrize("offset", [True, 1.5, -1])
    def test_offset_must_be_an_integer(self, offset):
        with pytest.raises(DomainError, match="offset"):
            hamming_score(T("abcd"), P("ab"), offset)


class TestClosestMatch:
    def test_unique(self):
        res = closest_match_classical(T("xxabxx"), P("ab"))
        assert res.best_score == 2 and res.offsets == (2,)

    def test_all_offsets_tie(self):
        res = closest_match_classical(T("aaaa"), P("aa"))
        assert res.best_score == 2 and res.offsets == (0, 1, 2)

    def test_equals_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(4, 65))
            m = int(rng.integers(1, min(n, 8) + 1))
            codes = rng.integers(0, 4, size=n)
            pat = rng.integers(0, 4, size=m)
            text, pattern = Text(codes), Pattern(pat)
            scores = [sum(int(codes[o + j] == pat[j]) for j in range(m)) for o in range(n - m + 1)]
            best = max(scores)
            res = closest_match_classical(text, pattern)
            assert res.best_score == best
            assert list(res.offsets) == [o for o, s in enumerate(scores) if s == best]

    def test_minus_one_matches_like_any_code(self):
        res = closest_match_classical(Text([-1, 2, -1]), Pattern([-1]))
        assert res.best_score == 1 and res.offsets == (0, 2)

    def test_pattern_longer_than_text(self):
        with pytest.raises(DomainError):
            closest_match_classical(T("ab"), P("abc"))

    def test_exact_match_iff_score_m(self):
        text, pattern = T("abcabd"), P("abd")
        for o in range(4):
            occurs = bytes(text.symbols[o : o + 3].astype(np.uint8)) == b"abd"
            assert (hamming_score(text, pattern, o) == 3) == occurs


def _first_appearance(sequences, k):
    """Each sequence as its k-gram codes, a gram new to all sequences so far taking the next code."""
    numbering, recoded = {}, []
    for seq in sequences:
        grams = [tuple(seq[i : i + k]) for i in range(len(seq) - k + 1)]
        for gram in grams:
            if gram not in numbering:
                numbering[gram] = len(numbering)
        recoded.append([numbering[gram] for gram in grams])
    return recoded, len(numbering)


# name: (draw codes from a generator, range of text lengths)
KGRAM_TEXTS = {
    "uint8": (lambda rng, n: rng.choice(rng.integers(0, 256, 5), n).astype(np.uint8), (3, 60)),
    "negative": (lambda rng, n: rng.integers(-3, 3, n), (3, 60)),  # int64 codes
    "wide": (lambda rng, n: rng.integers(0, 64, n), (400, 600)),  # more than 256 distinct grams
}


class TestRecodeKgrams:
    def test_text_windows(self):
        text, _ = recode_kgrams(T("abab"), P("ab"), 2)
        # three overlapping 2-grams: ab, ba, ab
        assert text.n == 3
        assert text.symbols[0] == text.symbols[2] != text.symbols[1]

    def test_pattern_windows(self):
        _, pat = recode_kgrams(T("abcabc"), P("abc"), 2)
        assert pat.m == 2

    def test_preserves_exact_match_offsets(self):
        rng = np.random.default_rng(9)
        for k in (2, 3):
            codes = rng.integers(0, 3, size=40)
            pat = np.array([5, 6, 7, 5])
            codes[12:16] = pat  # planted occurrence with unique symbols
            text, pattern = Text(codes), Pattern(pat)
            rt, rp = recode_kgrams(text, pattern, k)
            orig = [o for o in range(37) if hamming_score(text, pattern, o) == 4]
            rec = [o for o in range(rt.n - rp.m + 1) if hamming_score(rt, rp, o) == rp.m]
            assert rec == orig == [12]

    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(kind=st.sampled_from(sorted(KGRAM_TEXTS)), k=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
    def test_codes_by_first_appearance(self, kind, k, seed):
        # The codes and dtypes of a first-appearance numbering written out here: text first, then
        # pattern, one dict for both.
        rng = np.random.default_rng(seed)
        draw, lengths = KGRAM_TEXTS[kind]
        codes = draw(rng, int(rng.integers(*lengths)))
        start = int(rng.integers(0, len(codes) - k + 1))
        pat = codes[start : start + int(rng.integers(k, 12))].copy()
        fresh = rng.random(len(pat)) < 0.3
        pat[fresh] = draw(rng, int(fresh.sum()))  # partly the text's grams, partly new ones
        expected, distinct = _first_appearance([codes.tolist(), pat.tolist()], k)
        if kind == "wide":
            assert distinct > 256
        for got, want in zip(recode_kgrams(Text(codes), Pattern(pat), k), expected):
            assert got.symbols.tolist() == want
            assert got.symbols.dtype == (np.uint8 if max(want) <= 255 else np.int64)

    def test_rejects_bad_k(self):
        with pytest.raises(DomainError):
            recode_kgrams(T("abcd"), P("ab"), 4)
        with pytest.raises(DomainError):
            recode_kgrams(T("abcd"), P("a"), 2)


class TestIndexEntries:
    """``OracleIndex`` checks and normalizes every entry when it is built."""

    @pytest.mark.parametrize("key", ["a", "97", True, 1.5, None])
    def test_key_must_be_an_integer_code(self, key):
        with pytest.raises(DomainError, match="integer code"):
            OracleIndex(3, {key: np.zeros(1, dtype=np.uint8)})

    def test_numpy_integer_key_is_stored_as_int(self):
        idx = OracleIndex(3, {np.int64(97): np.zeros(1, dtype=np.uint8)})
        assert [type(key) for key in idx.indicators] == [int]
        assert idx.to_json() == '{"alphabet": [97], "indicators": {"97": "AA=="}, "n": 3, "version": 1}'

    @pytest.mark.parametrize(
        "entry",
        [[0], b"\x00", np.zeros(1, np.int64), np.zeros((1, 1), np.uint8), np.zeros(1, bool), None],
        ids=["list", "bytes", "int64", "2-d", "bool", "None"],
    )
    def test_entry_must_be_a_one_dimensional_uint8_array(self, entry):
        with pytest.raises(DomainError, match="must be 1 uint8 bytes"):
            OracleIndex(3, {97: entry})

    @pytest.mark.parametrize("n", [0, -1, 2.0, True, None])
    def test_length_must_be_a_positive_integer(self, n):
        with pytest.raises(DomainError, match="index length n"):
            OracleIndex(n)

    def test_nonzero_padding_is_zeroed_in_a_copy(self):
        given = np.array([0xFF, 0xFF], dtype=np.uint8)  # n = 9: seven padding bits in the last byte
        idx = OracleIndex(9, {5: given})
        assert idx.indicators[5].tolist() == [0xFF, 0x80]
        assert given.tolist() == [0xFF, 0xFF]
        assert idx.indicator_for(5).tolist() == [1] * 9

    def test_read_only_zero_padded_entry_is_kept(self):
        packed = np.packbits([1, 0, 1])
        packed.setflags(write=False)
        assert OracleIndex(3, {97: packed}).indicators[97] is packed

    def test_writable_entry_is_copied_read_only(self):
        packed = np.packbits([1, 0, 1])
        idx = OracleIndex(3, {97: packed})
        packed[0] = 0
        assert idx.indicators[97] is not packed and not idx.indicators[97].flags.writeable
        assert idx.indicator_for(97).tolist() == [1, 0, 1]

    def test_the_dict_is_a_fresh_copy(self):
        given = {97: np.packbits([1, 0, 1])}
        idx = OracleIndex(3, given)
        given[98] = np.packbits([0, 1, 0])
        assert list(idx.indicators) == [97]

    def test_an_entry_for_another_length_is_refused_before_any_use(self):
        # Nine bits (two bytes) under n = 3: refused when built, so no search broadcasts 3 rows against 9.
        with pytest.raises(DomainError, match="indicator of symbol 97 must be 1 uint8 bytes"):
            idx = OracleIndex(3, {97: np.zeros(2, dtype=np.uint8)})
            estimate_distribution(T("aaa"), P("a"), idx, RunConfig(trials=1, seed=0))


class TestIndexSerialization:
    def test_round_trip(self):
        idx = build_index(T("abracadabra"))
        doc = idx.to_json()
        back = OracleIndex.from_json(doc)
        assert back.n == idx.n
        assert set(back.indicators) == set(idx.indicators)
        for sym in idx.indicators:
            assert np.array_equal(back.indicators[sym], idx.indicators[sym])

    def test_schema_fields(self):
        payload = json.loads(build_index(T("aba")).to_json())
        assert set(payload) == {"version", "n", "alphabet", "indicators"}
        assert payload["n"] == 3
        assert payload["alphabet"] == [ord("a"), ord("b")]

    def test_rejects_unknown_version(self):
        payload = json.loads(build_index(T("aba")).to_json())
        payload["version"] = 99
        with pytest.raises(DomainError):
            OracleIndex.from_json(json.dumps(payload))

    def test_rejects_empty_length(self):
        payload = json.loads(build_index(T("aba")).to_json())
        payload["n"], payload["alphabet"], payload["indicators"] = 0, [], {}
        with pytest.raises(DomainError):
            OracleIndex.from_json(json.dumps(payload))

    def test_rejects_indicator_of_wrong_byte_length(self):
        # n = 20 needs 3 bytes per indicator; "aba" packs into 1.
        payload = json.loads(build_index(T("aba")).to_json())
        payload["n"] = 20
        with pytest.raises(DomainError):
            OracleIndex.from_json(json.dumps(payload))

    def test_rejects_position_in_two_indicators(self):
        payload = json.loads(build_index(T("aba")).to_json())
        a, b = str(ord("a")), str(ord("b"))
        payload["indicators"][b] = payload["indicators"][a]
        with pytest.raises(DomainError):
            OracleIndex.from_json(json.dumps(payload))

    def test_overlap_error_names_the_first_position_set_twice(self):
        # Symbol 1 holds positions 9 and 12; symbol 2 repeats 12 before symbol 3 repeats 9.
        def b64(*byte_values):
            return base64.b64encode(bytes(byte_values)).decode("ascii")

        indicators = {"1": b64(0, 0x48), "2": b64(0, 0x08), "3": b64(0, 0x40)}
        document = {"version": 1, "n": 16, "alphabet": [1, 2, 3], "indicators": indicators}
        with pytest.raises(DomainError, match="^position 9 is set in two indicators$"):
            OracleIndex.from_json(json.dumps(document))

    @pytest.mark.parametrize("key", ["01", "1_0", " 1", "+1"])
    def test_rejects_indicator_key_not_in_canonical_decimal(self, key):
        document = {"version": 1, "n": 2, "alphabet": [int(key)], "indicators": {key: "gA=="}}
        with pytest.raises(DomainError):
            OracleIndex.from_json(json.dumps(document))

    def test_rejects_two_keys_for_one_symbol(self):
        document = '{"version":1,"n":2,"alphabet":[1],"indicators":{"1":"gA==","01":"QA=="}}'
        with pytest.raises(DomainError):
            OracleIndex.from_json(document)

    def test_rejects_repeated_indicator_key(self):
        document = '{"version":1,"n":2,"alphabet":[1],"indicators":{"1":"gA==","1":"QA=="}}'
        with pytest.raises(DomainError, match="repeats the key '1'"):
            OracleIndex.from_json(document)

    def test_rejects_repeated_top_level_key(self):
        document = '{"version":1,"n":2,"n":3,"alphabet":[1],"indicators":{"1":"gA=="}}'
        with pytest.raises(DomainError, match="repeats the key 'n'"):
            OracleIndex.from_json(document)

    def test_padding_bits_are_ignored_on_load_and_zero_on_write(self):
        # n = 3: the low five bits of each indicator's one byte are padding.
        payload = json.loads(build_index(T("aba")).to_json())
        payload["indicators"] = {"97": "vw==", "98": "Xw=="}  # 0xBF and 0x5F: bits 101 and 010, padding set
        back = OracleIndex.from_json(json.dumps(payload))
        assert back.indicator_for(97).tolist() == [1, 0, 1]
        assert back.to_json() == build_index(T("aba")).to_json()

    @pytest.mark.parametrize("nbytes", [0, 1, 3])
    def test_indicator_of_wrong_byte_length_is_rejected(self, nbytes):
        with pytest.raises(DomainError):
            OracleIndex(9, {0: np.zeros(nbytes, dtype=np.uint8)})

    def test_index_document_peak_memory(self):
        # 95 symbols over 256 KiB: 3 MiB of packed indicators and a 4.15 MB document.
        data = np.random.default_rng(0).integers(32, 127, size=256 * 1024, dtype=np.uint8).tobytes()
        text = Text.from_bytes(data)
        assert len(text.alphabet) == 95
        tracemalloc.start()
        try:
            build_index(text).to_json()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_rejects_alphabet_mismatch(self):
        payload = json.loads(build_index(T("aba")).to_json())
        payload["alphabet"] = [ord("a")]
        with pytest.raises(DomainError):
            OracleIndex.from_json(json.dumps(payload))

    @pytest.mark.parametrize("field", ["version", "n", "alphabet"])
    def test_rejects_boolean_where_an_integer_is_required(self, field):
        payload = json.loads(build_index(T("a")).to_json())  # n = 1, alphabet [97]
        assert OracleIndex.from_json(json.dumps(payload)).n == 1
        payload[field] = [True] if field == "alphabet" else True
        if field == "alphabet":
            payload["indicators"] = {"1": payload["indicators"][str(ord("a"))]}
        with pytest.raises(DomainError):
            OracleIndex.from_json(json.dumps(payload))

    def test_rejects_document_that_is_not_json(self):
        with pytest.raises(DomainError):
            OracleIndex.from_json("not json")

    def test_rejects_document_that_is_not_an_object(self):
        with pytest.raises(DomainError):
            OracleIndex.from_json("[1]")

    def test_rejects_missing_length(self):
        with pytest.raises(DomainError):
            OracleIndex.from_json('{"version": 1}')

    def test_rejects_missing_indicators(self):
        with pytest.raises(DomainError):
            OracleIndex.from_json('{"version": 1, "n": 4}')

    @pytest.mark.parametrize("entry", [{"x": "AA=="}, {"97": 5}, {"97": "!!"}])
    def test_rejects_malformed_indicator_entry(self, entry):
        document = {"version": 1, "n": 4, "alphabet": [97], "indicators": entry}
        with pytest.raises(DomainError):
            OracleIndex.from_json(json.dumps(document))

    @staticmethod
    def load_traced(document):
        """(the loaded index or the ResourceError raised, the traced peak in bytes)."""
        tracemalloc.start()
        try:
            try:
                outcome = OracleIndex.from_json(document)
            except ResourceError as exc:
                outcome = exc
            return outcome, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_length_without_indicators_allocates_nothing(self):
        # 10^12 positions would have indicator_for allocate 931 GiB; the constructor refuses them first.
        refused, peak = self.load_traced('{"version":1,"n":1000000000000,"alphabet":[],"indicators":{}}')
        assert isinstance(refused, ResourceError)
        assert str(refused) == f"index length 1000000000000 exceeds the limit of {INDEX_LENGTH_LIMIT} positions"
        assert peak < 2**20

    def test_length_is_bounded_at_the_limit(self):
        document = '{{"version":1,"n":{},"alphabet":[],"indicators":{{}}}}'
        at_limit, peak = self.load_traced(document.format(INDEX_LENGTH_LIMIT))
        assert at_limit.n == INDEX_LENGTH_LIMIT and at_limit.indicators == {} and peak < 2**20
        above, peak = self.load_traced(document.format(INDEX_LENGTH_LIMIT + 1))
        assert isinstance(above, ResourceError) and peak < 2**20
        with pytest.raises(ResourceError, match="exceeds the limit"):
            OracleIndex(INDEX_LENGTH_LIMIT + 1, {})

    @pytest.mark.parametrize(
        "document",
        ["[" * 100_000, '{"version": 1, "n": 1' + "0" * 5000 + "}"],
        ids=["deep-nesting", "over-long-integer"],
    )
    def test_rejects_documents_the_json_decoder_cannot_build(self, document):
        with pytest.raises(DomainError):
            OracleIndex.from_json(document)

    def test_minus_one_round_trips_as_a_symbol(self):
        idx = build_index(Text([-1, 3, -1]))
        doc = idx.to_json()
        assert json.loads(doc)["indicators"].keys() == {"-1", "3"}
        back = OracleIndex.from_json(doc)
        assert back.to_json() == doc
        assert back.indicator_for(-1).tolist() == [1, 0, 1]
        assert back.indicator_for(3).tolist() == [0, 1, 0]
