"""Block decomposition and the structured maximality test."""

from collections import Counter
from pathlib import Path

import pytest

from msskit import (
    BlockForm,
    NotAdmissibleError,
    RunLengthError,
    block_decompose,
    check_block_constraints,
    check_run_bound,
    is_mss_structured,
    is_shift_maximal,
)
from msskit.structure import (
    RULE_BLOCK_ORDER,
    RULE_EMPTY_TAIL,
    RULE_EXPONENT_PARITY,
    RULE_HEAD_EXPONENT,
    RULE_RUN_BOUND,
    RuleDisagreement,
    StructuredVerdict,
    _structured_verdict,
)

from conftest import all_candidates


class TestBlockDecompose:
    @pytest.mark.parametrize(
        "word,q,runs",
        [
            ("RLLRRLLRLC", 2, ((1, "R"), (1, "RL"))),
            ("RLLC", 2, ((1, ""),)),
            ("RLLLRLC", 3, ((1, "RL"),)),
            ("RC", 0, ((1, ""),)),
            ("RRRC", 0, ((3, ""),)),
            ("RLLRLLC", 2, ((2, ""),)),
            ("RLLRRLLC", 2, ((1, "R"), (1, ""))),
        ],
    )
    def test_examples(self, word, q, runs):
        form = block_decompose(word)
        assert form.q == q
        assert form.runs == runs

    def test_reassemble_identity(self, brute_mss_by_period):
        for p in range(2, 13):
            for word in all_candidates(p):
                try:
                    form = block_decompose(word)
                except RunLengthError:
                    continue
                assert form.reassemble().symbols == word

    def test_run_bound_violation(self):
        with pytest.raises(RunLengthError) as err:
            block_decompose("RLLRLLLC")
        assert err.value.position == 3

    def test_decompose_inverts_reassembly(self):
        # Identity in the other direction, over properly merged forms.
        from msskit import enumerate_blocks

        for q in (1, 2, 3):
            for s1 in enumerate_blocks(2, q - 1):
                for s2 in enumerate_blocks(1, q - 1) + [""]:
                    for n2 in (1, 2, 3):
                        runs = ((1, s1), (n2, s2))
                        form = BlockForm(q, runs)
                        assert block_decompose(form.reassemble()) == form

    def test_requires_leading_r(self):
        with pytest.raises(NotAdmissibleError):
            block_decompose("LRC")
        with pytest.raises(NotAdmissibleError):
            is_mss_structured("LRC")


class TestFilters:
    @pytest.mark.parametrize(
        "word,expect",
        [("RLLRLLLC", False), ("RLLRLC", True), ("RLC", True)],
    )
    def test_run_bound(self, word, expect):
        assert check_run_bound(word) is expect

    def test_block_constraints(self):
        assert check_block_constraints(BlockForm(2, ((2, "R"),))) is False
        assert check_block_constraints(BlockForm(2, ((1, "R"), (1, "")))) is False
        assert check_block_constraints(BlockForm(2, ((1, "R"),))) is True


class TestStructuredVerdict:
    def test_accepts_single_group(self):
        assert is_mss_structured("RLLC").is_mss is True
        assert is_mss_structured("RC").is_mss is True

    def test_rejects_with_rule(self):
        v = is_mss_structured("RLRLC")
        assert v.is_mss is False
        assert v.failing_shift == 2
        assert v.failing_rule == RULE_HEAD_EXPONENT

        v = is_mss_structured("RLLRLLLC")
        assert (v.is_mss, v.failing_rule) == (False, RULE_RUN_BOUND)

        v = is_mss_structured("RLLRRLLC")
        assert (v.is_mss, v.failing_rule) == (False, RULE_EMPTY_TAIL)
        assert v.failing_shift == 8 - 4

    def test_corrected_example(self):
        # This word parses as two adjacent head groups, so its third shift
        # beats it; the direct test agrees.
        v = is_mss_structured("RLLRLLRC")
        assert v.is_mss is False
        assert is_shift_maximal("RLLRLLRC") is False

    def test_block_order_failure_reported(self):
        # RLL R RLL RR ... : the second interior block must not sort above
        # the first extended by a head group.
        v = is_mss_structured("RLLRLRLLRRRLLRC")
        assert v.is_mss is False
        assert v.failing_rule == RULE_BLOCK_ORDER

    def test_exponent_parity_failure_reported(self):
        v = is_mss_structured("RLRRLRLRRLRC")
        assert v.is_mss is False
        assert v.failing_rule == RULE_EXPONENT_PARITY

    def test_verdict_true_has_no_details(self, brute_mss_by_period):
        for word in brute_mss_by_period[8]:
            v = is_mss_structured(word)
            assert v.is_mss
            assert v.failing_shift is None and v.failing_rule is None

    def test_equivalence_small(self, brute_mss_by_period):
        for p in range(2, 13):
            expected = set(brute_mss_by_period[p])
            for word in all_candidates(p):
                assert is_mss_structured(word).is_mss == (word in expected), word

    def test_accepted_forms_are_reduced(self, brute_mss_by_period):
        # Accepted sequences have a single leading head group and, with two
        # or more groups, a nonempty final block.
        for p in range(2, 13):
            for word in brute_mss_by_period[p]:
                form = block_decompose(word)
                assert form.runs[0][0] == 1
                if form.group_count >= 2:
                    assert form.runs[-1][1] != ""

    def test_failing_shift_is_a_witness(self):
        # Whenever the verdict reports a shift, that shift really exceeds
        # the word in parity-lex order (run-bound witnesses included).
        from msskit import Ordering, parity_lex_cmp, shift

        for p in range(4, 12):
            for word in all_candidates(p):
                v = is_mss_structured(word)
                if v.is_mss:
                    continue
                assert v.failing_shift is not None
                assert (
                    parity_lex_cmp(shift(word, v.failing_shift), word)
                    is Ordering.GREATER
                )


class TestSharedVerdicts:
    """Verdicts are shared values: every accept is one object, and each
    rejection comes from a bounded table keyed by (failing shift, rule)."""

    def test_shared_verdicts_equal_fresh_ones(self, monkeypatch):
        from msskit import structure

        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        import workloads  # the benchmark's seeded query-mix generator

        words = [w for p in range(2, 15) for w in all_candidates(p)]
        words += [args[0] for kind, args in workloads.query_mix(1)[0] if kind == "check"]
        structure._rejected.cache_clear()
        shared = [is_mss_structured(w) for w in words]
        monkeypatch.setattr(structure, "_rejected", structure._rejected.__wrapped__)
        fresh = [is_mss_structured(w) for w in words]
        for word, v, ref in zip(words, shared, fresh):
            assert (v.is_mss, v.failing_shift, v.failing_rule) == (
                ref.is_mss, ref.failing_shift, ref.failing_rule), word
            assert v.is_mss or v is not ref, word
        # one object per distinct verdict, and far fewer than the words
        assert len({id(v) for v in shared}) == len(set(shared)) < 200 < len(words)

    def test_intern_table_is_bounded(self):
        from msskit import structure

        assert structure._rejected.cache_info().maxsize is not None


class TestWordCores:
    """Routes b and c: a public entry that parses once, over a private core
    that takes a plain admissible, R-leading word."""

    def test_cores_match_their_entries(self):
        from msskit.sequences import _shift_maximal_signs_mask, is_shift_maximal_signs
        from msskit.structure import _structured_verdict

        for p in range(2, 15):
            words = list(all_candidates(p))
            mask = _shift_maximal_signs_mask(words)  # the whole period in one batch
            for i, word in enumerate(words):
                # the same shared verdict object, so failing shift and rule match too
                assert _structured_verdict(word) is is_mss_structured(word), word
                assert (mask >> i & 1 == 1) == is_shift_maximal_signs(word), word

    @pytest.mark.parametrize("value", [b"RLC", None, 12])
    def test_entries_reject_what_is_not_a_str(self, value):
        from msskit import is_shift_maximal_signs

        message = f"a sequence must be a str or AdmissibleSeq, got {type(value).__name__}$"
        for entry in (is_shift_maximal_signs, is_mss_structured):
            with pytest.raises(TypeError, match=message):
                entry(value)

    @pytest.mark.parametrize("text, signs_message, structured_message", [
        ("LRC", "LRC: sign-level test requires a leading R",
         "LRC: MSS candidates start with R"),
        ("L^2RC", "LLRC: sign-level test requires a leading R",
         "LLRC: MSS candidates start with R"),
        ("RXC", "cannot parse 'RXC' at offset 1", None),
        ("RLCC", "'RLCC': interior symbols must be R or L", None),
    ])
    def test_entries_reject_inadmissible_words(self, text, signs_message, structured_message):
        from msskit import is_shift_maximal_signs

        # None: a symbol error, the same from both entries
        for entry, message in [(is_shift_maximal_signs, signs_message),
                               (is_mss_structured, structured_message or signs_message)]:
            with pytest.raises(NotAdmissibleError) as exc:
                entry(text)
            assert str(exc.value) == message


class TestSingleGroup:
    """The single-group question the counting cross-checks ask, answered
    without a block form, against the block form's answer."""

    @staticmethod
    def by_block_form(seq):
        form = block_decompose(seq)
        return form.q if form.group_count == 1 and form.runs[0][0] == 1 else None

    def test_agrees_with_block_decompose_on_words_and_factors(self):
        from msskit.composition import _divisor_scan
        from msskit.generators import enumerate_mss_structured
        from msskit.structure import _single_group_q

        words = factors = singles = 0
        for p in range(2, 17):
            for s in enumerate_mss_structured(p):
                words += 1
                assert _single_group_q(s.body) == self.by_block_form(s), s
                singles += _single_group_q(s.body) is not None
                for split in _divisor_scan(s):
                    for f in split:
                        factors += 1
                        assert _single_group_q(f.body) == self.by_block_form(f), (s, f)
        assert (words, singles, factors) == (4418, 3548, 176)


class TestGeneratorHandoff:
    """The generator's block forms go straight to the private core."""

    def test_core_on_built_forms_matches_public_test(self):
        from msskit.generators import _candidates
        from msskit.structure import _test_form

        filtered = {RULE_RUN_BOUND, RULE_HEAD_EXPONENT, RULE_EMPTY_TAIL}
        seen = 0
        for p in range(2, 17):
            words = []
            for word, form in _candidates(p):
                words.append(word)
                assert len(word) == p
                assert form == block_decompose(word), word
                assert _test_form(form, word) == is_mss_structured(word), word
            seen += len(words)
            # once each, and exactly the words the test's filters let through
            assert len(set(words)) == len(words), p
            expected = {w for w in all_candidates(p)
                        if _structured_verdict(w).failing_rule not in filtered}
            assert set(words) == expected, p
        assert seen == 5068

    def test_run_bound_shift_is_error_position(self):
        rejected = 0
        for p in range(2, 15):
            for word in all_candidates(p):
                v = is_mss_structured(word)
                try:
                    block_decompose(word)
                except RunLengthError as err:
                    rejected += 1
                    assert (v.is_mss, v.failing_rule) == (False, RULE_RUN_BOUND), word
                    assert v.failing_shift == err.position, word
                else:
                    assert v.failing_rule != RULE_RUN_BOUND, word
        assert rejected > 0

    @pytest.mark.parametrize(
        "word,message,position",
        [
            ("RLLRLLLC", "RLLRLLLC: L-run of 3 after position 3 exceeds head run 2", 3),
            ("RLRRLLRLC", "RLRRLLRLC: L-run of 2 after position 3 exceeds head run 1", 3),
        ],
    )
    def test_run_length_error_message(self, word, message, position):
        with pytest.raises(RunLengthError) as err:
            block_decompose(word)
        assert str(err.value) == message
        assert err.value.position == position


def sign_tuple_rule(form, k):
    """The group-level rules as first written: exponent and block lists
    rebuilt for each shift, both blocks compared as sign tuples."""
    from msskit import sign_sequence

    q = form.q
    nvals = [n for n, _ in form.runs]
    svals = [s for _, s in form.runs]
    r = len(svals)
    for j in range(1, r - k + 1):
        s_head, s_tail = svals[j - 1], svals[k + j - 1]
        if s_head != s_tail:
            beta = sum(nvals[:j]) + sum(s.count("R") for s in svals[: j - 1])
            sign = 1 if beta % 2 == 0 else -1
            ext = sign_sequence(s_head + "R" + "L" * q)
            other = sign_sequence(s_tail)
            for x, y in zip(ext, other):
                if x != y:
                    return RULE_BLOCK_ORDER, (sign * x) > (sign * y)
            return RULE_BLOCK_ORDER, None
        if j < r - k and nvals[k + j] != nvals[j]:
            beta = sum(nvals[:j]) + sum(s.count("R") for s in svals[:j])
            n_head, n_tail = nvals[j], nvals[k + j]
            if beta % 2 == 0:
                ok = (n_tail > n_head and n_head % 2 == 1) or (
                    n_tail < n_head and n_tail % 2 == 0
                )
            else:
                ok = (n_tail > n_head and n_head % 2 == 0) or (
                    n_tail < n_head and n_tail % 2 == 1
                )
            return RULE_EXPONENT_PARITY, ok
    return RULE_BLOCK_ORDER, None


class TestGroupRuleCrossCheck:
    """The group-level rules that cross-check every critical shift."""

    def test_matches_sign_tuple_rule_and_exact_comparison(self):
        from msskit.generators import _candidates
        from msskit.sequences import _NEGATE, _shift_below, _signs
        from msskit.structure import _group_rule

        forms = shifts = 0
        predicted = Counter()
        for p in range(2, 17):
            for word, form in _candidates(p):
                if form.group_count < 2:
                    continue
                forms += 1
                sig = _signs(word)
                neg = sig.translate(_NEGATE)
                unit = form.q + 1
                pos = 0
                for k, (n, s) in enumerate(form.runs):
                    shift_at = pos + (n - 1) * unit  # last head copy of group k
                    pos += n * unit + len(s)
                    if k == 0:
                        continue
                    shifts += 1
                    rule, verdict = _group_rule(form, k)
                    assert (rule, verdict) == sign_tuple_rule(form, k), (word, k)
                    if verdict is not None:
                        predicted[rule] += 1
                        assert verdict == _shift_below(sig, neg, shift_at), (word, k)
        assert (forms, shifts) == (1520, 1901)
        assert predicted == Counter({RULE_BLOCK_ORDER: 906, RULE_EXPONENT_PARITY: 46})

    @pytest.mark.parametrize(
        "word, rule",
        [("RLRRLRRRC", RULE_BLOCK_ORDER), ("RLRRLRRLRLRC", RULE_EXPONENT_PARITY)],
    )
    def test_flipped_comparison_raises(self, monkeypatch, word, rule):
        # Both words are MSS and their first critical shift, at offset 3,
        # is predicted to stay below.
        from msskit import structure

        assert is_mss_structured(word) == StructuredVerdict(True)
        exact = structure._shift_below
        monkeypatch.setattr(structure, "_shift_below", lambda sig, neg, k: not exact(sig, neg, k))
        with pytest.raises(RuleDisagreement) as err:
            is_mss_structured(word)
        assert str(err.value) == (
            f"{word}: shift 3 classified {rule} predicted pass but comparison says fail"
        )
