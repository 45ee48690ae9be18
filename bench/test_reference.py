"""Fast tests of the benchmark's reference code against known values.

    python3 -m pytest -q bench/test_reference.py
"""

import itertools

import pytest

import reference as ref
import workloads

# OEIS A000048, p = 2..20: MSS-sequences per period.
A000048 = [1, 1, 2, 3, 5, 9, 16, 28, 51, 93, 170, 315, 585, 1091, 2048, 3855,
           7280, 13797, 26214]


def _candidates(p):
    return ("R" + "".join(mid) + "C" for mid in itertools.product("RL", repeat=p - 2))


def test_closed_form_matches_a000048():
    assert [ref.mss_count(p) for p in range(2, 21)] == A000048


@pytest.mark.parametrize("p", range(2, 15))
def test_shift_maximal_words_counted_by_closed_form(p):
    assert sum(map(ref.is_mss, _candidates(p))) == ref.mss_count(p)


def test_order_and_maximality_examples():
    # One R before the difference reverses L < C: RC sits below RLC.
    assert ref.compare("RLC", "RC") == 1
    assert ref.compare("RRC", "RLC") == -1
    assert ref.compare("RLRC", "RLRC") == 0
    assert ref.is_mss("RLRRC") and ref.is_mss("RLLRC") and ref.is_mss("RLLLC")
    assert not ref.is_mss("RLLRLLRC") and not ref.is_mss("RRLC") and not ref.is_mss("LRC")


def test_composition_law_and_factorization():
    assert ref.compose("RC", "RC") == "RLRC"
    assert ref.compose("RLC", "RC") == "RLLRLC"
    assert ref.compose("RC", "RLC") == "RLRRRC"
    word = ref.compose("RLC", "RLRC")
    assert ref.factor_once(word) == ("RLC", "RLRC")
    assert ref.factor_once("RLRRC") is None
    assert ref.factor_tree("RLRC") == ("RLRC", (("RC", None), ("RC", None)))


def test_orbit_check_at_known_superstable_parameter():
    ok, residual = ref.orbit_check("RLC", "3.8318740552833")
    assert ok and residual < 1e-12
    assert ref.orbit_check("RLC", "3.83")[1] > 1e-3


def test_compress_round_trip():
    assert ref.compress("RLLRLLLLC") == "RL^2RL^4C"
    assert ref.compress("RC") == "RC"


def test_query_mix_is_seeded():
    requests, expected = workloads.query_mix(3)
    assert (requests, expected) == workloads.query_mix(3)
    assert len(requests) == sum(workloads.MIX.values())
    # Five extremal locate requests at p >= 32 in every seed.
    assert workloads.extremal_share(requests, expected) * len(requests) == 5
