"""The selftest suites: what one run shares, and that every check still bites."""

import dataclasses
import operator
from collections import Counter

import pytest

from msskit import composition, generators, selftest
from msskit.selftest import run_selftest
from msskit.sequences import is_shift_maximal

TARGET = "RLRRRLRC"  # an MSS word of period 8, one of the 16


def _flip_on_target(invert):
    """A wrapper that inverts a word-level core's verdict on TARGET alone."""
    def wrap(fn):
        def flipped(arg):
            verdict = fn(arg)
            return invert(verdict) if str(arg) == TARGET else verdict
        return flipped
    return wrap


def _flip_target_bit(fn):
    """The batch kernel ``fn`` with TARGET's bit alone inverted."""
    def flipped(words):
        mask = fn(words)
        return mask ^ (1 << words.index(TARGET)) if TARGET in words else mask
    return flipped


ROUTES = {
    # Route a as the oracle now reaches it: the brute-force filter's kernel.
    "a": (generators, "_shift_maximal_word", _flip_on_target(operator.not_)),
    # Route b as the oracle calls it: the bit-sliced kernel on a batch.
    "b": (selftest, "_shift_maximal_signs_mask", _flip_target_bit),
    # Route c as the oracle calls it: its word-level core.
    "c": (selftest, "_structured_verdict",
          _flip_on_target(lambda v: dataclasses.replace(v, is_mss=not v.is_mss))),
}


def _refuse(seq):
    raise AssertionError(f"{seq} proved again")


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_oracle_reads_every_route(monkeypatch, route):
    module, name, wrap = ROUTES[route]
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    [result] = run_selftest(pmax=8, suites=["oracle"])
    assert result.detail == "127 candidates, 1 disagreements"
    assert not result.ok


def test_oracle_batches_are_bounded(monkeypatch):
    # The sign-level kernel takes each period's candidates in fixed batches,
    # so a period above 14 is split and no call holds more than 4,096 words.
    sizes = []
    kernel = selftest._shift_maximal_signs_mask
    monkeypatch.setattr(selftest, "_shift_maximal_signs_mask",
                        lambda words: sizes.append(len(words)) or kernel(words))
    [result] = run_selftest(pmax=16, suites="oracle")
    assert result.detail == "32767 candidates, 0 disagreements"
    assert sizes == [2 ** (p - 2) for p in range(2, 15)] + [4096] * (2 + 4)


def test_oracle_parses_nothing(monkeypatch):
    # Every candidate is admissible and R-leading by construction, so the
    # oracle hands plain words to the routes' cores without parsing them.
    from msskit import sequences, structure

    def refuse(seq):
        raise AssertionError(f"{seq!r} parsed")

    monkeypatch.setattr(sequences, "as_sequence", refuse)
    monkeypatch.setattr(structure, "as_sequence", refuse)
    monkeypatch.setattr(selftest, "_admitted", refuse, raising=False)  # in case it comes back
    [result] = run_selftest(pmax=10, suites="oracle")
    assert result.ok
    assert result.detail == "511 candidates, 0 disagreements"


def test_broken_bruteforce_fails_construction(monkeypatch):
    module, name, wrap = ROUTES["a"]
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    results = run_selftest(pmax=8, suites=["oracle", "construction"])
    assert [(r.suite, r.name, r.detail) for r in results if not r.ok] == [
        ("oracle", "three-route equivalence p<=8", "127 candidates, 1 disagreements"),
        ("construction", "period 8", "16 structured vs 15 brute"),
    ]


def test_each_period_enumerated_once_per_run(monkeypatch):
    calls = Counter()
    for name in ["enumerate_mss_structured", "enumerate_mss_bruteforce"]:
        fn = getattr(selftest, name)
        monkeypatch.setattr(selftest, name, lambda p, _fn=fn, _name=name, **kw:
                            calls.update([(_name, p)]) or _fn(p, **kw))
    assert all(r.ok for r in run_selftest(pmax=10))
    # The round-trip suite reads the structured periods up to 12 whatever pmax is.
    expected = Counter([("enumerate_mss_structured", p) for p in range(2, 13)]
                       + [("enumerate_mss_bruteforce", p) for p in range(2, 11)])
    assert calls == expected


def test_bruteforce_list_dropped_after_its_last_reader():
    run = selftest._Run(8, ["oracle", "counting", "construction"])
    words = run.bruteforce(6)
    assert run.bruteforce(6) is words
    assert not run._bruteforce
    assert run.structured(6) is run.structured(6)


def test_enumerated_words_proved_once(monkeypatch):
    # Counting and round-trip scan enumerated words without a second proof;
    # the round trip proves each composite once, with its own check.
    calls = []
    monkeypatch.setattr(composition, "is_shift_maximal", _refuse)
    monkeypatch.setattr(selftest, "is_shift_maximal",
                        lambda s: calls.append(s) or is_shift_maximal(s))
    results = run_selftest(pmax=10, suites=["counting", "roundtrip"])
    assert [r.ok for r in results] == [True] * 5
    assert len(calls) == 864


def test_bare_string_names_one_suite():
    assert run_selftest(pmax=6, suites="oracle") == run_selftest(pmax=6, suites=["oracle"])
    assert [r.suite for r in run_selftest(pmax=6, suites="counting")] == ["counting"] * 3


def test_rejects_a_pmax_that_is_not_an_int():
    with pytest.raises(TypeError, match="^pmax must be an int, got float$"):
        run_selftest(8.0)
