"""Counting formulas against enumeration."""

import pytest

from msskit import (
    count_blocks,
    count_nonprimary_cores,
    count_nonprimary_single_group,
    divisor_set,
    enumerate_blocks,
    enumerate_mss_structured,
    proper_divisors,
)
from msskit.counting import (
    blocks_report,
    cores_report,
    enumerated_core_factors,
    enumerated_single_group_nonprimary,
    single_group_report,
)

from conftest import brute_blocks


class TestDivisors:
    def test_divisor_set(self):
        assert divisor_set(12).divisors == (1, 2, 3, 4, 6, 12)
        assert divisor_set(1).divisors == (1,)
        for count in (divisor_set, proper_divisors, count_nonprimary_single_group,
                      count_nonprimary_cores):
            for bad, kind in ((6.0, "float"), ("6", "str"), (None, "NoneType")):
                with pytest.raises(TypeError, match=f"p must be an int, got {kind}"):
                    count(bad)
        for args in ((3.0, 1), (3, 1.0)):
            with pytest.raises(TypeError, match="must be an int, got float"):
                count_blocks(*args)

    @pytest.mark.parametrize(
        "p,expect", [(12, (2, 3, 4, 6)), (7, ()), (9, (3,)), (4, (2,))]
    )
    def test_proper(self, p, expect):
        assert proper_divisors(p).divisors == expect


class TestSingleGroupCount:
    @pytest.mark.parametrize("p,expect", [(12, 4), (7, 0), (9, 1), (2, 0), (4, 1)])
    def test_examples(self, p, expect):
        assert count_nonprimary_single_group(p) == expect

    def test_against_enumeration(self):
        for p in range(2, 15):
            enumerated = enumerated_single_group_nonprimary(enumerate_mss_structured(p))
            assert count_nonprimary_single_group(p) == enumerated


class TestCountBlocks:
    @pytest.mark.parametrize(
        "m,run,expect", [(4, 2, 7), (1, 0, 1), (1, 5, 1), (2, 1, 2), (0, 3, 0)]
    )
    def test_examples(self, m, run, expect):
        assert count_blocks(m, run) == expect

    def test_against_independent_filter(self):
        for m in range(0, 15):
            for run in range(0, 7):
                assert count_blocks(m, run) == len(brute_blocks(m, run)), (m, run)

    def test_never_negative(self):
        assert all(
            count_blocks(m, run) >= 0 for m in range(0, 20) for run in range(0, 9)
        )

    def test_large_values_are_exact_integers(self):
        # Big-integer arithmetic: unconstrained words minus nothing.
        assert count_blocks(64, 70) == 2**63


class TestCoresCount:
    @pytest.mark.parametrize("p,expect", [(4, 0), (6, 1), (9, 1), (12, 8), (16, 16)])
    def test_frozen_values(self, p, expect):
        assert count_nonprimary_cores(p) == expect

    def test_against_factored_enumeration(self):
        for p in range(4, 15):
            cores = enumerated_core_factors(enumerate_mss_structured(p))
            assert count_nonprimary_cores(p) == len(cores)

    def test_cores_really_occur(self):
        # Every counted core is a single-group sequence observed as an inner
        # factor; spot-check the period-6 core is the expected degenerate one.
        assert enumerated_core_factors(enumerate_mss_structured(6)) == {"RLC"}
        assert "RLLRLC" in enumerated_core_factors(enumerate_mss_structured(12))


class TestReports:
    def test_single_group_report(self):
        rep = single_group_report(12, verify=True)
        assert rep.formula_value == 4
        assert rep.enumerated_value == 4
        assert rep.matches

    def test_unverified_report_matches(self):
        rep = cores_report(10, verify=False)
        assert rep.enumerated_value is None
        assert rep.matches

    def test_verify_proves_no_enumerated_word_again(self, monkeypatch):
        # The enumerator proved every word it returns shift-maximal; the
        # verify paths scan them for factors without a second proof.
        from msskit import composition, sequences

        def refuse(seq):
            raise AssertionError(f"{seq} proved again")

        monkeypatch.setattr(composition, "is_shift_maximal", refuse)
        monkeypatch.setattr(sequences, "is_shift_maximal", refuse)
        with pytest.raises(AssertionError):
            composition.is_primary("RLRC")  # the patch reaches the proving route
        for p in range(2, 13):
            rep = single_group_report(p, verify=True)
            assert rep.enumerated_value is not None and rep.matches, p
        for p in range(4, 13):
            rep = cores_report(p, verify=True)
            assert rep.enumerated_value is not None and rep.matches, p

    def test_blocks_report(self):
        rep = blocks_report(4, 2, verify=True)
        assert rep.formula_value == 7 and rep.matches

    def test_enumerate_blocks_zero_stays_empty(self):
        # The zero-length convention lives only inside the cores counter.
        assert enumerate_blocks(0, 4) == []
        assert count_blocks(0, 4) == 0
