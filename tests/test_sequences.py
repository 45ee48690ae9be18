"""Core symbol-level machinery: encoding, shifts, ordering, maximality."""

import itertools
import re
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from msskit import (
    AdmissibleSeq,
    NotAdmissibleError,
    Ordering,
    ShapeError,
    compose,
    compress_exponents,
    decode_signs,
    enumerate_mss_bruteforce,
    enumerate_mss_structured,
    expand_exponents,
    factor_all,
    factor_interleaved_core,
    factor_tree,
    is_shift_maximal,
    is_shift_maximal_signs,
    max_l_run,
    parity_lex_cmp,
    parse_sequence,
    r_count_before,
    shift,
    sign_sequence,
    sort_parity_lex,
)
from msskit import sequences
from msskit.selftest import run_selftest
from msskit.sequences import _admitted, as_sequence

from conftest import all_candidates, brute_parity_lex_less


words = st.text(alphabet="RL", min_size=0, max_size=12)
candidates = st.builds(lambda mid: "R" + mid + "C", st.text(alphabet="RL", max_size=10))


# The run-notation grammar as first written, token by token, kept here so
# the plain-word shortcut in expand_exponents is checked against it.
_GRAMMAR_TOKEN = re.compile(r"([RLC])(?:\^(\d+))?")


def grammar_expand(text):
    pos = 0
    runs = []
    for match in _GRAMMAR_TOKEN.finditer(text):
        if match.start() != pos:
            raise NotAdmissibleError(f"cannot parse {text!r} at offset {pos}")
        letter, exp = match.groups()
        count = int(exp) if exp is not None else 1
        if count < 1:
            raise NotAdmissibleError(f"exponent must be positive in {text!r}")
        runs.append((letter, count))
        pos = match.end()
    if pos != len(text):
        raise NotAdmissibleError(f"cannot parse {text!r} at offset {pos}")
    if sum(count for _, count in runs) > 10**6:
        raise NotAdmissibleError("run notation expands to more than 1000000 symbols")
    return "".join(letter * count for letter, count in runs)


def grammar_parse(text):
    s = grammar_expand(text)
    if len(s) < 2:
        raise NotAdmissibleError(f"{s!r}: admissible sequences have length >= 2")
    if s[-1] != "C":
        raise NotAdmissibleError(f"{s!r}: must end with C")
    if any(ch not in "RL" for ch in s[:-1]):
        raise NotAdmissibleError(f"{s!r}: interior symbols must be R or L")
    return s


def outcome(fn, text):
    """Returned word, or exception type and message."""
    try:
        out = fn(text)
    except Exception as err:  # noqa: BLE001 - the type is part of the outcome
        return type(err), str(err)
    return out.symbols if isinstance(out, AdmissibleSeq) else out


plain = st.text(alphabet="RLC", max_size=12)
run_texts = st.one_of(
    plain,
    # a plain word with one foreign character: the edge of the shortcut
    st.builds(lambda a, ch, b: a + ch + b, plain, st.sampled_from("^0123x "), plain),
    st.text(alphabet="RLC^0123x ", max_size=12),
)


class TestParsing:
    @settings(max_examples=500)
    @given(run_texts)
    @example("")
    @example("RL^0C")
    @example("RL^12C")
    def test_matches_grammar(self, text):
        assert outcome(expand_exponents, text) == outcome(grammar_expand, text)
        assert outcome(AdmissibleSeq.parse, text) == outcome(grammar_parse, text)

    def test_matches_grammar_exhaustively(self):
        # Every string over R, L, C, ^, 0, 1 and a foreign letter up to length
        # 6: the offsets of syntax errors and the zero -> syntax -> length order.
        # From an empty memo, the second pass reads every valid piece the
        # first one memoized (282 of them, far below the cap).
        sequences._RUNS.clear()
        for _ in range(2):
            for n in range(7):
                for chars in itertools.product("RLC^0x1", repeat=n):
                    text = "".join(chars)
                    assert outcome(expand_exponents, text) == outcome(grammar_expand, text), text
                    assert outcome(AdmissibleSeq.parse, text) == outcome(grammar_parse, text), text

    def test_run_memo_is_bounded(self):
        # 10,000 texts whose pieces are all distinct: a first piece of the
        # largest kind the memo holds (16 characters, exponent 64, digits of
        # the widest str kind), then a run past its exponent cap, never held.
        runs = sequences._RUNS
        six_four = "\N{MATHEMATICAL BOLD DIGIT SIX}\N{MATHEMATICAL BOLD DIGIT FOUR}"
        runs.clear()
        tracemalloc.start()
        try:
            for i in range(10_000):
                tail = format(i, "014b").translate(str.maketrans("01", "LR"))
                word = expand_exponents(f"R^{six_four}{tail}^{65 + i}C")
                assert word == "R" * 64 + tail + tail[-1] * (64 + i) + "C"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            held = sorted(runs)
            runs.clear()
        assert len(held) == sequences._MEMO_SIZE <= 4096
        assert all(len(key) == 17 for key in held)
        assert peak < 1 << 20

    def test_run_memo_cap_holds_across_threads(self, monkeypatch):
        # Eight threads race to memoize twice as many distinct pieces as fit.
        # This memo hands the interpreter to another thread after it reads its
        # size, so a size check apart from the insert would let it pass the cap.
        class Yielding(dict):
            def __len__(self):
                size = super().__len__()
                time.sleep(1e-4)
                return size

        runs = Yielding()
        monkeypatch.setattr(sequences, "_RUNS", runs)
        wrong = []

        def expand_share(first):
            for i in range(first, 2 * sequences._MEMO_SIZE, 8):
                tail = format(i, "014b").translate(str.maketrans("01", "LR"))
                if expand_exponents(f"R^2{tail}C") != "RR" + tail + "C":
                    wrong.append(i)

        threads = [threading.Thread(target=expand_share, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert dict.__len__(runs) == sequences._MEMO_SIZE

    def test_reads_every_decimal_digit_as_the_grammar_does(self):
        # \d and int() take any Unicode decimal digit, such as ARABIC-INDIC THREE
        three, zero = "٣", "٠"
        for text in [f"R^{three}C", f"R^1{three}LC", f"R^{zero}C", f"R^{three}", f"R^{three}xC",
                     f"R^{zero}{three}^2C", "R^²C",
                     # past _MAX_DIGITS digits, zeros of both scripts lead
                     f"R^{zero * 9}1C", f"R^{zero * 3}{'0' * 6}{three}LC", f"R^0{zero}0{zero}{'0' * 5}2C",
                     f"R^{zero * 9}C", f"R^{zero}1{'0' * 7}C", f"L^{'0' * 4}{zero * 4}999999C"]:
            assert outcome(expand_exponents, text) == outcome(grammar_expand, text), text
        assert expand_exponents(f"R^{three}C") == "RRRC"
        assert expand_exponents(f"R^{zero * 9}1C") == "RC"

    @pytest.mark.parametrize("value", [b"RLC", None, 12, ["R", "C"]])
    def test_rejects_what_is_not_a_str(self, value):
        name = type(value).__name__
        with pytest.raises(TypeError, match=f"run notation must be a str, got {name}$"):
            expand_exponents(value)
        with pytest.raises(TypeError, match=f"run notation must be a str, got {name}$"):
            parse_sequence(value)
        with pytest.raises(TypeError, match=f"must be a str or AdmissibleSeq, got {name}$"):
            as_sequence(value)
        with pytest.raises(TypeError, match=f"AdmissibleSeq symbols must be a str, got {name}$"):
            AdmissibleSeq(value)
        with pytest.raises(TypeError, match=f"word must be a str, got {name}$"):
            compress_exponents(value)
        with pytest.raises(TypeError, match=f"word must be a str, got {name}$"):
            max_l_run(value)

    def test_expand(self):
        assert expand_exponents("RL^2RC") == "RLLRC"
        assert expand_exponents("R^3LC") == "RRRLC"
        assert expand_exponents("RLLRC") == "RLLRC"

    def test_expansion_is_bounded(self):
        assert expand_exponents("R^0001C") == "RC"
        assert expand_exponents("R^" + "0" * 5000 + "1C") == "RC"
        assert len(expand_exponents("R^999999C")) == 10**6
        too_long = "run notation expands to more than 1000000 symbols"
        for text in ["R^1000000C", "R^" + "1" * 5000 + "C", "R^999999LC", "R" * 10**6 + "C"]:
            with pytest.raises(NotAdmissibleError, match=too_long):
                expand_exponents(text)
        # a zero exponent, then a parse error, are reported before the length
        with pytest.raises(NotAdmissibleError, match="exponent must be positive"):
            expand_exponents("R^2000000L^0C")
        with pytest.raises(NotAdmissibleError, match="cannot parse"):
            expand_exponents("R^2000000C^")

    def test_huge_exponent_costs_no_memory(self):
        tracemalloc.start()
        try:
            with pytest.raises(NotAdmissibleError):
                parse_sequence("R^100000000C")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_compress_roundtrip(self):
        for text in ["RC", "RLLRC", "RLLLLRLLLRRLLLC", "RRRC"]:
            assert expand_exponents(compress_exponents(text)) == text

    def test_rejects_interior_c(self):
        with pytest.raises(NotAdmissibleError):
            parse_sequence("RCLC")

    def test_rejects_garbage(self):
        for bad in ["", "C", "RL", "RL^0C", "RLXC", "R L C", "^2C"]:
            with pytest.raises(NotAdmissibleError):
                parse_sequence(bad)

    def test_period(self):
        assert parse_sequence("RL^2RC").period == 5


class TestRCount:
    @pytest.mark.parametrize(
        "word,i,expect",
        [("RLLRC", 1, 0), ("RLLRC", 4, 1), ("RLLRC", 5, 2)],
    )
    def test_examples(self, word, i, expect):
        assert r_count_before(word, i) == expect

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            r_count_before("RLC", 0)
        with pytest.raises(ValueError):
            r_count_before("RLC", 4)


class TestSignSequence:
    def test_examples(self):
        assert sign_sequence("RLLRC") == (1, 1, 1, -1, 0)
        assert sign_sequence("RC") == (1, 0)
        assert sign_sequence("RLRC") == (1, 1, -1, 0)

    def test_head_pattern(self):
        # R L^q openings encode as q+1 leading ones.
        for q in range(0, 6):
            word = "R" + "L" * q + "RC"
            lam = sign_sequence(word)
            assert lam[: q + 1] == (1,) * (q + 1)
            assert lam[q + 1] == -1

    @given(words)
    def test_decode_inverts(self, word):
        assert decode_signs(sign_sequence(word)) == word

    def test_injective_fixed_length(self):
        seen = {}
        for mid in itertools.product("RL", repeat=6):
            word = "R" + "".join(mid) + "C"
            lam = sign_sequence(word)
            assert lam not in seen
            seen[lam] = word


class TestShift:
    def test_examples(self):
        assert shift("RLLC", 1) == "LLC"
        assert shift("RLLC", 4) == ""
        assert shift("RLRLC", 2) == "RLC"

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            shift("RLLC", 5)
        with pytest.raises(ValueError):
            shift("RLLC", -1)


class TestParityLex:
    @pytest.mark.parametrize(
        "a,b,expect",
        [
            ("RLRC", "RLC", Ordering.LESS),
            ("RLC", "RLLC", Ordering.LESS),
            ("RLC", "RLC", Ordering.EQUAL),
            ("RC", "RLRC", Ordering.LESS),
            ("RLRC", "RLLC", Ordering.LESS),
        ],
    )
    def test_examples(self, a, b, expect):
        assert parity_lex_cmp(a, b) is expect

    @given(words, words)
    def test_antisymmetric(self, a, b):
        assert parity_lex_cmp(a, b) == -parity_lex_cmp(b, a)

    def test_matches_independent_oracle(self):
        pool = ["".join(t) + "C" for t in itertools.product("RL", repeat=5)]
        for a in pool:
            for b in pool:
                assert int(parity_lex_cmp(a, b)) == brute_parity_lex_less(a, b)

    def test_strict_total_order_exhaustive(self):
        # Over all admissible words of period 10 the comparison induces a
        # strict total order: sorting it and checking every pair against the
        # sorted positions verifies antisymmetry, totality and transitivity.
        pool = sort_parity_lex(all_candidates(10))
        for i, a in enumerate(pool):
            for j in range(i + 1, len(pool)):
                assert parity_lex_cmp(a, pool[j]) is Ordering.LESS
                assert parity_lex_cmp(pool[j], a) is Ordering.GREATER


class TestShiftMaximal:
    @pytest.mark.parametrize(
        "word,expect",
        [
            ("RLLC", True),
            ("RLRLC", False),
            ("RLC", True),
            ("RC", True),
            ("RRC", False),
            ("RLLRLLRC", False),  # its third shift wins under the parity rule
            ("RLRRLRC", True),
        ],
    )
    def test_examples(self, word, expect):
        assert is_shift_maximal(word) is expect
        assert is_shift_maximal_signs(word) is expect

    def test_routes_agree_exhaustively(self):
        for p in range(2, 13):
            for word in all_candidates(p):
                assert is_shift_maximal(word) == is_shift_maximal_signs(word), word

    def test_accepted_shifts_never_greater(self, brute_mss_by_period):
        for p in range(2, 11):
            for word in brute_mss_by_period[p]:
                for k in range(1, p):
                    assert parity_lex_cmp(shift(word, k), word) is not Ordering.GREATER

    def test_signs_requires_leading_r(self):
        with pytest.raises(NotAdmissibleError):
            is_shift_maximal_signs("LRC")


class TestHelpers:
    def test_max_l_run(self):
        assert max_l_run("RLLRL") == 2
        assert max_l_run("RRR") == 0
        assert max_l_run("LLLL") == 4

    def test_sort_parity_lex(self):
        assert sort_parity_lex(["RLLC", "RC", "RLC", "RLRC"]) == [
            "RC",
            "RLRC",
            "RLC",
            "RLLC",
        ]

    def test_sort_parity_lex_keeps_prefix_order(self):
        # A plain word and its own prefix compare EQUAL, so the stable
        # comparison sort keeps input order; a sign-sequence key would not.
        assert parity_lex_cmp("RLR", "RL") is Ordering.EQUAL
        assert sort_parity_lex(["RLR", "RL"]) == ["RLR", "RL"]
        assert sort_parity_lex(["RL", "RLR"]) == ["RL", "RLR"]
        assert sorted(["RLR", "RL"], key=sign_sequence) == ["RL", "RLR"]

    def test_sign_key_matches_comparator(self, brute_mss_by_period):
        import functools
        import random

        by_cmp = functools.cmp_to_key(parity_lex_cmp)
        mixed = [w for p in range(2, 13) for w in brute_mss_by_period[p]]
        random.Random(5).shuffle(mixed)
        assert sorted(mixed, key=sign_sequence) == sorted(mixed, key=by_cmp)
        words = list(all_candidates(16))
        random.Random(7).shuffle(words)
        assert sorted(words, key=sign_sequence) == sorted(words, key=by_cmp)

    def test_signs_orders_one_period_as_sign_sequence(self):
        from msskit.sequences import _signs

        for p in range(2, 17):
            words = list(all_candidates(p))
            keys = [_signs(w) for w in words]
            assert len(set(keys)) == len(words)
            assert sorted(words, key=_signs) == sorted(words, key=sign_sequence), p

    def test_admissible_seq_str(self):
        s = AdmissibleSeq("RLLRC")
        assert str(s) == "RLLRC"
        assert s.body == "RLLR"
        assert len(s) == 5
        assert s.compressed() == "RL^2RC"



class TestAdmittedWords:
    """Words the package builds admissible are not validated again, and
    every one of them would pass the validation."""

    def test_words_built_admissible_are_not_validated(self, monkeypatch):
        checked = []
        check = AdmissibleSeq.__post_init__
        monkeypatch.setattr(AdmissibleSeq, "__post_init__",
                            lambda seq: checked.append(seq.symbols) or check(seq))
        enumerate_mss_structured(12)
        run_selftest(pmax=10, suites="oracle")
        parse_sequence("RL^2RC")
        assert checked == []
        with pytest.raises(NotAdmissibleError):
            parse_sequence("RL^2CC")  # a failing parse raises the constructor's message
        AdmissibleSeq("RLC")
        assert checked == ["RLLCC", "RLC"]

    def test_every_admitted_word_is_admissible(self, monkeypatch):
        admitted = []

        def validating(word):
            admitted.append(word)
            return AdmissibleSeq(word)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("msskit") and vars(module).get("_admitted") is _admitted:
                monkeypatch.setattr(module, "_admitted", validating)
        mss = {}
        for p in range(2, 13):  # iterated, so every row passes through _admitted
            mss[p] = [s.symbols for s in enumerate_mss_structured(p)]
            assert [s.symbols for s in enumerate_mss_bruteforce(p)] == mss[p]
        for pa, pb in itertools.product(mss, repeat=2):
            for a, b in itertools.product(mss[pa], mss[pb]) if pa * pb <= 24 else ():
                composed = compose(a, b)
                factor_tree(composed)
                assert all(compose(*split) == composed for split in factor_all(composed))
        big = "RL^4RL^3RRL^3RRL^4RL^4RL^4RL^3RRL^3C"
        for word in [big, "RL^2RLRRL^2RLC", *(s.symbols for p in range(2, 17)
                                             for s in enumerate_mss_structured(p))]:
            try:
                factor_interleaved_core(word)
            except ShapeError:
                pass
        assert all(result.ok for result in run_selftest(pmax=10))
        assert len(admitted) > 20_000


# The per-symbol loops that the bytes and str kernels replaced, kept here
# as oracles for them.
_RANK = {"L": 0, "C": 1, "R": 2}


def loop_shift_maximal(word):
    p = len(word)
    for k in range(1, p):
        i = k
        while i < p and word[i] == word[i - k]:
            i += 1
        if i < p:
            odd = word.count("R", k, i) % 2 == 1
            if (_RANK[word[i]] > _RANK[word[i - k]]) != odd:
                return False
    return True


def loop_sign_sequence(word):
    out = []
    beta = 0
    for ch in word:
        if ch == "C":
            out.append(0)
        elif ch == "R":
            out.append(1 if beta % 2 == 0 else -1)
            beta += 1
        elif ch == "L":
            out.append(-1 if beta % 2 == 0 else 1)
        else:
            raise NotAdmissibleError(f"invalid symbol {ch!r}")
    return tuple(out)


def loop_padded_shift_less(lam, k):
    first = lam[k]
    p = len(lam)
    for i in range(p):
        a = first * lam[k + i] if k + i < p else 0
        if a != lam[i]:
            return a < lam[i]
    raise AssertionError("a proper shift always differs before exhaustion")


def loop_shift_maximal_signs(word):
    lam = loop_sign_sequence(word)
    p = len(lam)
    for k in range(1, p):
        first = lam[k]
        if first == 0:
            continue
        for i in range(p):
            a = first * lam[k + i] if k + i < p else 0
            if a != lam[i]:
                if a > lam[i]:
                    return False
                break
    return True


def kernel_words():
    """Every word of {R,L}^(p-1)C for p <= 14, L-leading ones included, then
    2,000 seeded random words with 15 <= p <= 60, R-leading and not."""
    import random

    for p in range(2, 15):
        for mid in itertools.product("RL", repeat=p - 1):
            yield "".join(mid) + "C"
    rng = random.Random(14)
    for _ in range(2000):
        p = rng.randint(15, 60)
        yield "".join(rng.choice("RL") for _ in range(p - 1)) + "C"


class TestKernelsMatchLoops:
    def test_direct_route(self):
        from msskit.sequences import _shift_maximal_word

        for word in kernel_words():
            expect = loop_shift_maximal(word)
            assert _shift_maximal_word(word) is expect, word
            assert is_shift_maximal(word) is expect, word

    def test_l_leading_words_are_never_maximal(self):
        for word in ["LC", "LLC", "LRC", "LRRRC"]:
            assert is_shift_maximal(word) is False

    def test_sign_sequence(self):
        import random

        for word in kernel_words():
            assert sign_sequence(word) == loop_sign_sequence(word), word
        rng = random.Random(3)
        for _ in range(2000):  # C anywhere, and words that are not admissible
            word = "".join(rng.choice("RLC") for _ in range(rng.randint(0, 30)))
            assert sign_sequence(word) == loop_sign_sequence(word), word

    def test_signs_fast_path_matches_general_formula(self):
        # The general C mask, which _signs skips for a word with no C or
        # one final C.
        import random

        from msskit.sequences import _signs

        def general(word):
            raw = word.encode()
            n = int.from_bytes(raw.translate(bytes.maketrans(b"RLC", b"\x02\x00\x00")), "big")
            step = 8
            while step < 8 * len(raw):
                n ^= n >> step
                step <<= 1
            c = int.from_bytes(raw.translate(bytes.maketrans(b"RLC", b"\x00\x00\x01")), "big")
            return ((n & ~(c << 1)) | c).to_bytes(len(raw), "big")

        every = ("".join(t) for n in range(10) for t in itertools.product("RLC", repeat=n))
        rng = random.Random(9)
        admissible = ("R" + "".join(rng.choice("RL") for _ in range(rng.randint(0, 198))) + "C"
                      for _ in range(1000))
        for word in itertools.chain(every, ["", "C"], admissible):
            assert _signs(word) == general(word), word

    @pytest.mark.parametrize("word", ["X", "RLXC", "RLCyX", "R\nC", "RL C", "RLLé", "rlc"])
    def test_sign_sequence_names_the_first_bad_symbol(self, word):
        with pytest.raises(NotAdmissibleError) as expect:
            loop_sign_sequence(word)
        with pytest.raises(NotAdmissibleError) as got:
            sign_sequence(word)
        assert str(got.value) == str(expect.value)

    def test_sign_route_and_each_shift(self):
        from msskit.sequences import _NEGATE, _shift_below, _shift_maximal_signs_mask, _signs

        # On an admissible word the shift's final C decides the comparison
        # before the padding is reached; on a word with no C, the padding
        # decides whenever the shift matches the word's prefix.
        no_c = ("R" + "".join(mid) for n in range(12) for mid in itertools.product("RL", repeat=n))
        for word in itertools.chain(kernel_words(), no_c):
            if not word.startswith("R"):
                continue
            if word.endswith("C"):
                assert is_shift_maximal_signs(word) is loop_shift_maximal_signs(word), word
            lam = loop_sign_sequence(word)
            sig = _signs(word)
            neg = sig.translate(_NEGATE)
            for k in range(1, len(word)):
                assert _shift_below(sig, neg, k) == loop_padded_shift_less(lam, k), (word, k)

        # The bit-sliced kernel, bit by bit, on every candidate with p <= 16:
        # a whole period per batch, the oracle's 4,096, and sizes that
        # straddle those batch edges.
        for p in range(2, 17):
            words = ["R" + "".join(mid) + "C" for mid in itertools.product("RL", repeat=p - 2)]
            expect = [loop_shift_maximal_signs(word) for word in words]
            for size in (len(words), 4096, 1, 3, 4097):
                got = []
                for start in range(0, len(words), size):
                    batch = words[start:start + size]
                    mask = _shift_maximal_signs_mask(batch)
                    assert mask >> len(batch) == 0, (p, size, start)
                    got.extend(mask >> i & 1 == 1 for i in range(len(batch)))
                assert got == expect, (p, size)

    def test_max_l_run(self):
        def loop_max_l_run(word):
            best = cur = 0
            for ch in word:
                cur = cur + 1 if ch == "L" else 0
                best = max(best, cur)
            return best

        for word in itertools.chain(kernel_words(), ["", "L", "LLRLLL", "RLCLL", "LXL"]):
            assert max_l_run(word) == loop_max_l_run(word), word

    def test_compress_roundtrip_on_kernel_words(self):
        def loop_compress(word):
            out = []
            i = 0
            while i < len(word):
                j = i
                while j < len(word) and word[j] == word[i]:
                    j += 1
                run = j - i
                out.append(word[i] if run == 1 else f"{word[i]}^{run}")
                i = j
            return "".join(out)

        for word in kernel_words():
            text = compress_exponents(word)
            assert text == loop_compress(word)
            assert expand_exponents(text) == word
