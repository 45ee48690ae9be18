"""Block construction, later-block derivation, and the two enumerators."""

import functools
import itertools
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import msskit
from msskit import (
    AdmissibleSeq,
    NotAdmissibleError,
    count_blocks,
    decode_signs,
    derive_later_blocks,
    enumerate_blocks,
    enumerate_mss_bruteforce,
    enumerate_mss_structured,
    is_shift_maximal,
    max_l_run,
    sign_sequence,
    sort_parity_lex,
)
from msskit.generators import _rl_words
from msskit.sequences import _signs
from msskit.structure import block_decompose, is_mss_structured

from conftest import brute_blocks, brute_parity_lex_less


class TestEnumerateBlocks:
    def test_empty_length(self):
        assert enumerate_blocks(0, 3) == []

    def test_example_m4_run2(self):
        got = enumerate_blocks(4, 2)
        assert len(got) == 7
        assert set(got) == {"RRRR", "RRRL", "RRLR", "RRLL", "RLRR", "RLRL", "RLLR"}

    def test_example_m2_run1(self):
        assert set(enumerate_blocks(2, 1)) == {"RR", "RL"}

    def test_matches_filter_oracle(self):
        # list equality: growing each word by L before R keeps the oracle's sorted order
        for m in range(0, 15):
            for run in range(0, max(m, 6) + 1):
                assert enumerate_blocks(m, run) == brute_blocks(m, run), (m, run)

    def test_tables_past_the_oracle(self):
        # the lengths _candidates draws at p ~ 22, past the filter oracle's reach
        for m in range(15, 21):
            for run in range(0, 4):
                got = enumerate_blocks(m, run)
                assert all(a < b for a, b in zip(got, got[1:])), (m, run)  # sorted, no repeats
                over = "L" * (run + 1)
                assert all(len(w) == m and w[0] == "R" and over not in w for w in got), (m, run)
                assert len(got) == count_blocks(m, run), (m, run)

    def test_run_zero(self):
        # No Ls allowed at all.
        for m in range(1, 8):
            assert enumerate_blocks(m, 0) == ["R" * m]

    def test_invalid(self):
        with pytest.raises(ValueError):
            enumerate_blocks(-1, 2)
        with pytest.raises(ValueError):
            enumerate_blocks(3, -1)
        for args in ((3, 1.0), (3.0, 1)):
            with pytest.raises(TypeError, match="must be an int, got float"):
                enumerate_blocks(*args)


_HELD_AFTER_RETURN = """
import gc, sys, tracemalloc
from msskit import enumerate_mss_structured
gc.collect()
tracemalloc.start()
enum = enumerate_mss_structured(18)
gc.collect()
held = tracemalloc.get_traced_memory()[0]
tracemalloc.stop()
rows = sys.getsizeof(enum.rows) + sum(map(sys.getsizeof, enum.rows))
print(len(enum), held, rows, enumerate_mss_structured(18).rows == enum.rows)
"""


class TestEnumerationMemory:
    def test_only_the_rows_outlive_the_enumeration(self):
        # The block table belongs to one enumeration: once it returns,
        # what it still holds is its rows.  A fresh interpreter has no
        # table another call could have left, and gc.collect() empties
        # its free lists, which hold no enumeration's data.
        src = str(Path(msskit.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _HELD_AFTER_RETURN],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        count, held, rows, same = proc.stdout.split()
        assert count == "7280"
        assert int(held) - int(rows) < 64 * 1024, (held, rows)
        assert same == "True"  # a second call, with no table left, builds equal rows

    def test_every_block_table_serves_a_candidate(self, monkeypatch):
        # A table is built only for a block length and run bound some
        # candidate draws from: no branch ends in a remainder too short
        # for another group.
        from msskit import generators

        keys = []
        blocks = generators._blocks

        def recording(length, max_run):
            keys.append((length, max_run))
            return blocks(length, max_run)

        monkeypatch.setattr(generators, "_blocks", recording)
        enumerate_mss_structured(18)
        built = set(keys)
        served = {(len(s), form.q - 1)
                  for _, form in generators._candidates(18) for _, s in form.runs if s}
        assert built and built <= served, sorted(built - served)


class TestDeriveLaterBlocks:
    def test_contains_rl(self):
        assert derive_later_blocks(2, "R", 2) == ["RL"]

    def test_branch_prefixes(self):
        # Branch positions off the template for first block R, head run 2:
        # RL (position 2), RRR (position 3), RRLR (position 4).
        got = set(derive_later_blocks(2, "R", 4))
        assert {"RL", "RRR", "RRLR"} <= got
        assert all(w.startswith(("RL", "RRR", "RRLR")) for w in got)

    def test_no_long_runs_head_one(self):
        for w in derive_later_blocks(1, "R", 6):
            assert "L" not in w  # head run 1 leaves no room for any L

    def test_respects_max_len(self):
        assert all(len(w) <= 3 for w in derive_later_blocks(2, "R", 3))

    def test_rejects_bad_first_block(self):
        with pytest.raises(NotAdmissibleError):
            derive_later_blocks(2, "LR", 4)
        with pytest.raises(NotAdmissibleError):
            derive_later_blocks(2, "RLL", 4)  # run 2 needs head run >= 3
        for bad in ("RC", "RX", "R L"):
            with pytest.raises(NotAdmissibleError):
                derive_later_blocks(2, bad, 4)
        with pytest.raises(TypeError, match="must be a str, got int"):
            derive_later_blocks(2, 5, 4)
        with pytest.raises(TypeError, match="q must be an int, got float"):
            derive_later_blocks(2.0, "R", 4)
        with pytest.raises(TypeError, match="max_len must be an int, got float"):
            derive_later_blocks(2, "R", 4.0)

    def test_blocks_satisfy_run_bound(self):
        for q in (2, 3):
            for first in enumerate_blocks(3, q - 1):
                for w in derive_later_blocks(q, first, 6):
                    assert max_l_run(w) <= q - 1

    def test_assembled_candidates_sound(self):
        # Splicing a derived block after the first one yields a sequence the
        # structured test accepts only if the direct test does too.
        for q, first in [(1, "R"), (2, "R"), (2, "RR"), (3, "RL")]:
            head = "R" + "L" * q
            for later in derive_later_blocks(q, first, 5):
                word = head + first + head + later + "C"
                if len(word) > 14:
                    continue
                if is_mss_structured(word).is_mss:
                    assert is_shift_maximal(word), word

    def test_completeness_against_oracle(self, brute_mss_by_period):
        # Any interior block observed after the first one in a real sequence
        # either continues the comparison template or is derivable.
        missing = []
        for p in range(4, 13):
            for word in brute_mss_by_period[p]:
                form = block_decompose(word)
                if form.group_count < 2:
                    continue
                first = form.runs[0][1]
                template = first + "R" + "L" * form.q
                derived = None
                for _, block in form.runs[1:]:
                    if block == "" or block == template[: len(block)]:
                        continue
                    if derived is None:
                        longest = max(len(s) for _, s in form.runs[1:])
                        derived = set(derive_later_blocks(form.q, first, longest))
                    if block not in derived:
                        missing.append((word, form.q, first, block))
        assert missing == []

    def test_equals_sign_tuple_derivation(self):
        # The sign-tuple algorithm the bytes scan replaced: a branch point
        # is a -1 entry after at most q-1 consecutive +1s, its prefix is
        # decoded from the template's entries with that one set to +1, and
        # every extension keeping the run bound is collected in a set.
        def tuple_derivation(q, first_block, max_len):
            template = sign_sequence(first_block + "R" + "L" * q)
            out = set()
            for j in range(2, len(template) + 1):
                if template[j - 1] != -1:
                    continue
                ones = 0
                t = j - 2
                while t >= 0 and template[t] == 1:
                    ones += 1
                    t -= 1
                if ones > q - 1:
                    continue
                prefix = decode_signs(template[: j - 1] + (1,))
                for tail_len in range(0, max_len - len(prefix) + 1):
                    out.update(w for w in _rl_words(tail_len, prefix) if max_l_run(w) <= q - 1)
            return sorted(out)

        cases = 0
        for q in range(1, 5):
            for m in range(1, 7):
                for first in enumerate_blocks(m, q - 1):
                    for max_len in range(10):
                        got = derive_later_blocks(q, first, max_len)
                        assert got == tuple_derivation(q, first, max_len), (q, first, max_len)
                        cases += 1
        assert cases == 1480

    def test_equals_generate_and_filter(self):
        # The tails are built to the run bound rather than spelled in full
        # and filtered: the same branch points, every R/L tail, then a drop
        # of the words holding q Ls in a row.  A result at max_len is the
        # one at 12 cut to max_len symbols, so the oracle runs once per S_1.
        def generate_and_filter(q, first_block, max_len):
            template = first_block + "R" + "L" * q
            sig = _signs(template)
            out = []
            for i in range(1, min(len(template), max_len)):
                if sig[i] or i - 1 - sig.rfind(0, 0, i) > q - 1:
                    continue
                prefix = template[:i] + ("L" if template[i] == "R" else "R")
                for tail_len in range(max_len - i):
                    out.extend(w for w in _rl_words(tail_len, prefix) if "L" * q not in w)
            return sorted(out)

        cases = 0
        for q in range(1, 5):
            for m in range(1, 7):
                for first in enumerate_blocks(m, q - 1):
                    expected = generate_and_filter(q, first, 12)
                    for max_len in range(13):
                        got = derive_later_blocks(q, first, max_len)
                        assert got == [w for w in expected if len(w) <= max_len], (q, first)
                        cases += 1
        assert cases == 1924

    def test_long_tails_count(self):
        assert len(derive_later_blocks(1, "R", 20)) == 18
        assert len(derive_later_blocks(2, "R", 20)) == 28652


class TestEnumerators:
    @pytest.mark.parametrize("p,expect", [(2, ["RC"]), (3, ["RLC"]), (4, ["RLRC", "RLLC"])])
    def test_small_periods(self, p, expect):
        assert enumerate_mss_structured(p).words() == expect
        assert enumerate_mss_bruteforce(p).words() == expect

    @pytest.mark.parametrize(
        "p,count",
        [(2, 1), (3, 1), (4, 2), (5, 3), (6, 5), (7, 9), (8, 16), (9, 28), (10, 51), (11, 93)],
    )
    def test_known_counts(self, p, count):
        assert len(enumerate_mss_bruteforce(p)) == count

    def test_agreement_to_period_12(self, brute_mss_by_period):
        for p in range(2, 13):
            structured = enumerate_mss_structured(p).words()
            assert structured == sort_parity_lex(brute_mss_by_period[p])
            assert structured == enumerate_mss_bruteforce(p).words()

    @pytest.mark.parametrize("p", [13, 14])
    def test_agreement_at_periods_13_and_14(self, brute_mss_by_period, p):
        expected = sorted(brute_mss_by_period[p], key=functools.cmp_to_key(brute_parity_lex_less))
        assert enumerate_mss_structured(p).words() == expected

    def test_structured_parses_nothing(self, monkeypatch):
        # The generator hands its own block forms to the structured core and
        # sorts by key: it never decomposes, runs the public test or parses
        # text.  The comparator runs only in the core's cross-check, once
        # per critical shift settled by a block (46 at p=12), so a
        # comparator sort (at least 169 calls for 170 words) still fails
        # here; the core encodes each word it tests once (47 at p=12), and
        # the sort takes one sign key per accepted word (170).
        import msskit
        from msskit import generators, sequences, structure

        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("block_decompose", "is_mss_structured", "parity_lex_cmp", "_signs"):
            fn = getattr(sequences, name, None) or getattr(msskit, name)
            for module in (msskit, sequences, structure, generators):
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counted(name, fn))
        parse = sequences.AdmissibleSeq.parse.__func__
        monkeypatch.setattr(sequences.AdmissibleSeq, "parse", classmethod(counted("parse", parse)))

        words = enumerate_mss_structured(12).words()
        assert len(words) == 170
        assert calls == Counter(parity_lex_cmp=46, _signs=47 + 170)
        calls.clear()
        # the counters do count when the public routes run; words[0] has
        # one critical shift, settled by a block
        structure.is_mss_structured(words[0])
        structure.block_decompose(words[0])
        sequences.sort_parity_lex(words[:2])
        assert calls == Counter(
            is_mss_structured=1, block_decompose=1, parse=2, parity_lex_cmp=2, _signs=1
        )

    def test_sorted_strictly_increasing(self):
        from msskit import Ordering, parity_lex_cmp

        words = enumerate_mss_structured(9).words()
        assert all(
            parity_lex_cmp(a, b) is Ordering.LESS for a, b in zip(words, words[1:])
        )

    def test_head_runs_bound_everything(self):
        for s in enumerate_mss_structured(10):
            q = block_decompose(s).q
            assert s.symbols.startswith("R" + "L" * q)
            assert max_l_run(s.body) <= q

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            enumerate_mss_structured(1)
        for enumerate_mss in (enumerate_mss_structured, enumerate_mss_bruteforce):
            for bad, kind in ((6.0, "float"), ("6", "str"), (None, "NoneType")):
                with pytest.raises(TypeError, match=f"period must be an int, got {kind}"):
                    enumerate_mss(bad)

    def test_enumeration_invariants(self):
        enum = enumerate_mss_structured(11)
        assert enum.period == 11
        words = enum.words()
        assert len(set(words)) == len(words)
        assert all(is_shift_maximal(w) for w in words)
        assert all(len(w) == 11 for w in words)


class TestWordBuilder:
    """The one R/L word builder spells what itertools.product spells."""

    @pytest.mark.parametrize("head,tail", [("", ""), ("R", ""), ("", "C"), ("RLL", "RC")])
    def test_equals_product_spelling(self, head, tail):
        for n in range(13):
            expected = [head + "".join(t) + tail for t in itertools.product("RL", repeat=n)]
            assert list(_rl_words(n, head, tail)) == expected, n


class TestPlainWordRows:
    """Enumerations store plain words and wrap them only on iteration."""

    @pytest.mark.parametrize("enumerate_mss", [enumerate_mss_structured, enumerate_mss_bruteforce])
    def test_rows_are_words_and_iterate_as_sequences(self, enumerate_mss):
        enum = enumerate_mss(10)
        assert all(type(w) is str for w in enum.rows)
        assert list(enum) == [AdmissibleSeq(w) for w in enum.rows]
        assert enum.sequences == tuple(AdmissibleSeq(w) for w in enum.rows)
        assert enum.words() == list(enum.rows)
        assert len(enum) == len(enum.rows) == 51
        assert enum.period == 10


def mobius(n):
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


def necklace_count(p):
    """OEIS A000048: (1/2p) times the sum over odd d | p of mu(d) 2^(p/d)."""
    total = sum(mobius(d) * 2 ** (p // d) for d in range(1, p + 1, 2) if p % d == 0)
    assert total % (2 * p) == 0
    return total // (2 * p)


class TestClosedFormTotal:
    def test_formula_at_small_periods(self):
        assert [necklace_count(p) for p in range(2, 12)] == [1, 1, 2, 3, 5, 9, 16, 28, 51, 93]

    @pytest.mark.parametrize("p", range(2, 21))
    def test_structured_count_equals_a000048(self, p):
        assert len(enumerate_mss_structured(p)) == necklace_count(p)
