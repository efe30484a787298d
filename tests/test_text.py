import base64
import json
import tracemalloc

import numpy as np
import pytest

from qpmatch import (
    SENTINEL,
    DomainError,
    OracleIndex,
    Pattern,
    SymbolIndicator,
    Text,
    build_index,
    closest_match_classical,
    f_sigma,
    hamming_score,
    pad_to_power_of_two,
    recode_kgrams,
)


def T(s: str) -> Text:
    return Text.from_bytes(s.encode())


def P(s: str) -> Pattern:
    return Pattern.from_bytes(s.encode())


class TestCodeDtype:
    def test_bytes_stay_byte_wide(self):
        assert T("abc").symbols.dtype == np.uint8
        assert P("abc").symbols.dtype == np.uint8

    def test_padded_text_is_int64(self):
        padded = pad_to_power_of_two(T("abcab"), 2)
        assert padded.symbols.dtype == np.int64
        assert padded.symbols.tolist() == [97, 98, 99, 97, 98, SENTINEL]

    def test_symbols_are_a_read_only_copy(self):
        codes = np.array([1, 2, 3], dtype=np.uint8)
        text = Text.from_codes(codes)
        codes[0] = 9
        assert text.symbols.tolist() == [1, 2, 3]
        assert not text.symbols.flags.writeable

    def test_sentinel_code_is_rejected(self):
        with pytest.raises(DomainError, match="may not contain the padding sentinel"):
            Text.from_codes([3, SENTINEL])

    def test_alphabet_is_the_distinct_codes_of_the_body(self):
        assert T("abca").alphabet == frozenset(b"abc")
        assert Text.from_codes([300, -5, 300]).alphabet == frozenset({300, -5})
        assert pad_to_power_of_two(Text.from_codes([300, 2, 3, 300, 5]), 2).alphabet == frozenset({2, 3, 5, 300})

    @pytest.mark.parametrize(
        "codes",
        [[0.5, 1.7], [1.5], [1 + 2j], [True, False], ["a"], [2**63, 5], [2**63], [2**70],
         np.array([3], dtype=object)],
    )
    @pytest.mark.parametrize("cls", [Text, Pattern])
    def test_codes_must_be_int64_integers(self, cls, codes):
        with pytest.raises(DomainError, match="integers in the int64 range"):
            cls.from_codes(codes)

    def test_wide_integer_codes_are_kept(self):
        codes = np.array([7, 2**62], dtype=np.uint64)
        assert Pattern.from_codes(codes).symbols.tolist() == [7, 2**62]

    @pytest.mark.parametrize("cls", [Text, Pattern])
    def test_empty_codes_need_one_symbol(self, cls):
        with pytest.raises(DomainError, match="at least one symbol"):
            cls.from_codes([])


class TestBuildIndex:
    def test_aba(self):
        idx = build_index(T("aba"))
        assert idx.indicator_for(ord("a")).bits.tolist() == [1, 0, 1]
        assert idx.indicator_for(ord("b")).bits.tolist() == [0, 1, 0]

    def test_single_symbol_text(self):
        idx = build_index(T("zzzz"))
        assert list(idx.indicators) == [ord("z")]
        assert idx.indicator_for(ord("z")).bits.tolist() == [1, 1, 1, 1]

    def test_partition_property(self):
        rng = np.random.default_rng(7)
        text = Text.from_codes(rng.integers(0, 4, size=64))
        idx = build_index(text)
        total = sum(ind.bits.astype(int) for ind in idx.indicators.values())
        assert (total == 1).all()

    def test_empty_text_rejected(self):
        with pytest.raises(DomainError):
            Text.from_bytes(b"")

    def test_unknown_symbol_gives_zero_indicator(self):
        idx = build_index(T("abc"))
        assert idx.indicator_for(ord("x")).bits.sum() == 0


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
        idx = build_index(Text.from_codes(codes))
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
            assert hamming_score(Text.from_codes(codes), Pattern.from_codes(pat), o) == expected

    def test_offset_out_of_range(self):
        with pytest.raises(DomainError):
            hamming_score(T("abcd"), P("ab"), 3)


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
            text, pattern = Text.from_codes(codes), Pattern.from_codes(pat)
            scores = [sum(int(codes[o + j] == pat[j]) for j in range(m)) for o in range(n - m + 1)]
            best = max(scores)
            res = closest_match_classical(text, pattern)
            assert res.best_score == best
            assert list(res.offsets) == [o for o, s in enumerate(scores) if s == best]

    def test_pattern_longer_than_text(self):
        with pytest.raises(DomainError):
            closest_match_classical(T("ab"), P("abc"))

    def test_exact_match_iff_score_m(self):
        text, pattern = T("abcabd"), P("abd")
        for o in range(4):
            occurs = bytes(text.symbols[o : o + 3].astype(np.uint8)) == b"abd"
            assert (hamming_score(text, pattern, o) == 3) == occurs


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
            text, pattern = Text.from_codes(codes), Pattern.from_codes(pat)
            rt, rp = recode_kgrams(text, pattern, k)
            orig = [o for o in range(37) if hamming_score(text, pattern, o) == 4]
            rec = [o for o in range(rt.n - rp.m + 1) if hamming_score(rt, rp, o) == rp.m]
            assert rec == orig == [12]

    def test_rejects_bad_k(self):
        with pytest.raises(DomainError):
            recode_kgrams(T("abcd"), P("ab"), 4)
        with pytest.raises(DomainError):
            recode_kgrams(T("abcd"), P("a"), 2)


class TestPadding:
    def test_padding_region_holds_only_the_sentinel(self):
        with pytest.raises(DomainError, match="padding region must hold only the sentinel"):
            Text(np.array([1, 2, 5]), padded_from=2)

    @pytest.mark.parametrize("padded_from", [0, 3, 100, -1, 2.5, True, "2"])
    def test_padded_from_must_be_an_integer_inside_the_text(self, padded_from):
        with pytest.raises(DomainError, match=r"padded_from must be an integer in \[1, 3\)"):
            Text(np.array([1, 2, SENTINEL]), padded_from=padded_from)

    def test_pads_to_next_power(self):
        padded = pad_to_power_of_two(T("abcabcabca"), 4)  # N=10, gap 6 -> 8
        assert padded.n == 12
        assert padded.padded_from == 10
        assert (padded.symbols[10:] == SENTINEL).all()

    def test_identity_when_already_power(self):
        text = T("abcabcabcabc")  # N=12, gap 8 with M=4
        assert pad_to_power_of_two(text, 4) is text

    def test_indicators_zero_over_tail(self):
        padded = pad_to_power_of_two(T("abcabcabca"), 4)
        idx = build_index(padded)
        for ind in idx.indicators.values():
            assert ind.bits[10:].sum() == 0


class TestIndexSerialization:
    def test_round_trip(self):
        idx = build_index(T("abracadabra"))
        doc = idx.to_json()
        back = OracleIndex.from_json(doc)
        assert back.n == idx.n
        assert set(back.indicators) == set(idx.indicators)
        for sym in idx.indicators:
            assert (back.indicators[sym].bits == idx.indicators[sym].bits).all()

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
        assert back.indicators[97].bits.tolist() == [1, 0, 1]
        assert back.to_json() == build_index(T("aba")).to_json()

    @pytest.mark.parametrize("nbytes", [0, 1, 3])
    def test_indicator_of_wrong_byte_length_is_rejected(self, nbytes):
        with pytest.raises(DomainError):
            SymbolIndicator(0, np.zeros(nbytes, dtype=np.uint8), 9)

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

    def test_length_without_indicators_allocates_nothing(self):
        document = '{"version":1,"n":1000000000000,"alphabet":[],"indicators":{}}'
        tracemalloc.start()
        try:
            back = OracleIndex.from_json(document)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.n == 10**12 and back.indicators == {}
        assert peak < 2**20

    @pytest.mark.parametrize(
        "document",
        ["[" * 100_000, '{"version": 1, "n": 1' + "0" * 5000 + "}"],
        ids=["deep-nesting", "over-long-integer"],
    )
    def test_rejects_documents_the_json_decoder_cannot_build(self, document):
        with pytest.raises(DomainError):
            OracleIndex.from_json(document)

    def test_padding_positions_belong_to_no_indicator(self):
        padded = pad_to_power_of_two(T("abcab"), 2)
        back = OracleIndex.from_json(build_index(padded).to_json())
        assert back.n == padded.n == 6
        assert sum(int(ind.bits.sum()) for ind in back.indicators.values()) == 5
