"""Built-in verification suites behind the CLI ``selftest`` verb.

Each suite cross-checks an independent pair of routes to the same
answer: the structured shift-maximality test against the two direct
tests, structured enumeration against brute force, counting formulas
against enumeration, and composition against factoring round-trips.

One :func:`run_selftest` call enumerates each period once by the
structured generator and once by the sequential brute force, and its
suites share those word lists.  The oracle reads route a, the direct
symbol-level test, as membership in the brute-force enumeration, whose
filter applies that test's kernel to every candidate.  The sign-level and structured routes
still run on every candidate, which is built admissible and R-leading,
through the private cores behind their parse-once public entries: the
bit-sliced sign-level kernel on fixed batches of ``_ORACLE_BATCH``
candidates, so memory stays bounded at any pmax.  No two routes share a
comparison kernel.  The construction suite compares the two lists.  The
counting and round-trip suites scan the structured words, which the
enumerator has proved shift-maximal, without proving them again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .composition import (
    _divisor_scan,
    check_stem_shape,
    compose,
    factor_interleaved_core,
)
from .counting import (
    blocks_report,
    count_nonprimary_cores,
    count_nonprimary_single_group,
    enumerated_core_factors,
    enumerated_single_group_nonprimary,
)
from .errors import ShapeError
from .generators import PeriodEnumeration, enumerate_mss_bruteforce, enumerate_mss_structured
from .generators import _rl_words
from .sequences import _shift_maximal_signs_mask, is_shift_maximal
from .structure import _structured_verdict

__all__ = ["CheckResult", "SUITES", "run_selftest"]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str


_BRUTEFORCE_READERS = ("oracle", "construction")
_ORACLE_BATCH = 4096  # candidates per call of the sign-level kernel


class _Run:
    """What the suites of one :func:`run_selftest` call share: its options
    and each period's enumerations, built on first use.  Structured ones
    stay for the whole call; a period's brute-force words are dropped once
    every chosen suite that reads them has read them."""

    def __init__(self, pmax: int, chosen: list[str]):
        self.pmax = pmax
        self._structured: dict[int, PeriodEnumeration] = {}
        self._bruteforce: dict[int, tuple[str, ...]] = {}
        self._reads: dict[int, int] = {}
        self._readers = sum(name in _BRUTEFORCE_READERS for name in chosen)

    def structured(self, p: int) -> PeriodEnumeration:
        """Period p's structured enumeration: plain ``rows``, wrapped on iteration."""
        if p not in self._structured:
            self._structured[p] = enumerate_mss_structured(p)
        return self._structured[p]

    def bruteforce(self, p: int) -> tuple[str, ...]:
        words = self._bruteforce.pop(p, None)
        if words is None:
            words = enumerate_mss_bruteforce(p).rows
        self._reads[p] = self._reads.get(p, 0) + 1
        if self._reads[p] < self._readers:
            self._bruteforce[p] = words
        return words


def _suite_oracle(run: _Run) -> list[CheckResult]:
    disagreements = 0
    checked = 0
    for p in range(2, run.pmax + 1):
        mss = set(run.bruteforce(p))  # route a's verdict on every candidate
        candidates = _rl_words(p - 2, "R", "C")  # admissible and R-leading by construction
        while words := list(itertools.islice(candidates, _ORACLE_BATCH)):
            signs = _shift_maximal_signs_mask(words)  # route b: bit i for words[i]
            bits = format(signs, f"0{len(words)}b")[::-1]  # character i is bit i
            checked += len(words)
            for word, bit in zip(words, bits):
                a = word in mss
                b = bit == "1"
                c = _structured_verdict(word).is_mss
                if not (a == b == c):
                    disagreements += 1
    return [
        CheckResult(
            "oracle",
            f"three-route equivalence p<={run.pmax}",
            disagreements == 0,
            f"{checked} candidates, {disagreements} disagreements",
        )
    ]


def _suite_construction(run: _Run) -> list[CheckResult]:
    out = []
    for p in range(2, run.pmax + 1):
        structured = run.structured(p).rows
        brute = run.bruteforce(p)
        ok = structured == brute
        out.append(
            CheckResult(
                "construction",
                f"period {p}",
                ok,
                f"{len(structured)} structured vs {len(brute)} brute",
            )
        )
    return out


def _suite_counting(run: _Run) -> list[CheckResult]:
    """Each formula against its enumeration, paired as ``count --verify`` pairs them."""
    pmax = run.pmax
    bad_blocks = [(m, max_run) for m in range(13) for max_run in range(7)
                  if not blocks_report(m, max_run, verify=True).matches]
    bad_single = [p for p in range(2, pmax + 1) if count_nonprimary_single_group(p)
                  != enumerated_single_group_nonprimary(run.structured(p))]
    bad_cores = [p for p in range(4, pmax + 1) if count_nonprimary_cores(p)
                 != len(enumerated_core_factors(run.structured(p)))]
    return [
        CheckResult("counting", "block formula vs enumeration (m<=12, run<=6)",
                    not bad_blocks, f"{len(bad_blocks)} mismatches"),
        CheckResult("counting", f"single-group non-primary count p<={pmax}", not bad_single,
                    f"mismatch at {bad_single}" if bad_single else "all match"),
        CheckResult("counting", f"core-factor count p<={pmax}", not bad_cores,
                    f"mismatch at {bad_cores}" if bad_cores else "all match"),
    ]


def _suite_roundtrip(run: _Run) -> list[CheckResult]:
    out = []
    failures = 0
    pairs = 0
    seqs = {p: list(run.structured(p)) for p in range(2, 13)}
    for pa, pb in itertools.product(seqs, repeat=2):
        if pa * pb > 24:
            continue
        for a in seqs[pa]:
            for b in seqs[pb]:
                pairs += 1
                composed = compose(a, b)
                if not is_shift_maximal(composed):
                    failures += 1
                    continue
                split = next(_divisor_scan(composed), None)  # proved just above
                if split is None or compose(*split).symbols != composed.symbols:
                    failures += 1
    out.append(
        CheckResult(
            "roundtrip",
            "compose/factor round-trip |a|*|b|<=24",
            failures == 0,
            f"{pairs} pairs, {failures} failures",
        )
    )
    shape_bad = 0
    shape_hits = 0
    limit = min(run.pmax, 14)
    for p in range(2, limit + 1):
        for s in run.structured(p):
            hits = check_stem_shape(s)
            try:
                factor_interleaved_core(s)
                hits += 1
            except ShapeError:
                pass
            if hits:
                shape_hits += hits
                if next(_divisor_scan(s), None) is None:  # the enumerator proved s
                    shape_bad += hits
    out.append(
        CheckResult(
            "roundtrip",
            f"shape tests imply non-primary p<={limit}",
            shape_bad == 0,
            f"{shape_hits} shape hits, {shape_bad} unsound",
        )
    )
    return out


SUITES = {
    "oracle": _suite_oracle,
    "construction": _suite_construction,
    "counting": _suite_counting,
    "roundtrip": _suite_roundtrip,
}


def run_selftest(pmax: int = 14, suites=None) -> list[CheckResult]:
    """Run the chosen suites in order: ``suites`` is one name, a list of
    names, or None for all of :data:`SUITES`."""
    if pmax < 2:
        raise ValueError("pmax must be >= 2")
    if isinstance(suites, str):
        suites = [suites]
    chosen = list(suites) if suites else list(SUITES)
    for name in chosen:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    run = _Run(pmax, chosen)
    results = []
    for name in chosen:
        results.extend(SUITES[name](run))
    return results
