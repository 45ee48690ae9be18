"""Built-in verification suites behind the CLI ``selftest`` verb.

Each suite cross-checks an independent pair of routes to the same
answer: the structured shift-maximality test against the two direct
tests, structured enumeration against brute force, counting formulas
against enumeration, and composition against factoring round-trips.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .composition import (
    check_stem_shape,
    compose,
    factor_interleaved_core,
    factor_once,
    is_primary,
)
from .counting import blocks_report, cores_report, single_group_report
from .errors import ShapeError
from .generators import enumerate_mss_bruteforce, enumerate_mss_structured
from .sequences import AdmissibleSeq, is_shift_maximal, is_shift_maximal_signs
from .structure import is_mss_structured

__all__ = ["CheckResult", "SUITES", "run_selftest"]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str


def _all_candidates(p: int):
    for mid in itertools.product("RL", repeat=p - 2):
        yield AdmissibleSeq("R" + "".join(mid) + "C")


def _suite_oracle(pmax: int, workers: int) -> list[CheckResult]:
    disagreements = 0
    checked = 0
    for p in range(2, pmax + 1):
        for seq in _all_candidates(p):  # parsed once, shared by the three routes
            checked += 1
            a = is_shift_maximal(seq)
            b = is_shift_maximal_signs(seq)
            c = is_mss_structured(seq).is_mss
            if not (a == b == c):
                disagreements += 1
    return [
        CheckResult(
            "oracle",
            f"three-route equivalence p<={pmax}",
            disagreements == 0,
            f"{checked} candidates, {disagreements} disagreements",
        )
    ]


def _suite_construction(pmax: int, workers: int) -> list[CheckResult]:
    out = []
    for p in range(2, pmax + 1):
        structured = enumerate_mss_structured(p).words()
        brute = enumerate_mss_bruteforce(p, workers=workers).words()
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


def _suite_counting(pmax: int, workers: int) -> list[CheckResult]:
    """Each formula against its enumeration, paired as ``count --verify`` pairs them."""
    bad_blocks = [(m, run) for m in range(13) for run in range(7)
                  if not blocks_report(m, run, verify=True).matches]
    bad_single = [p for p in range(2, pmax + 1)
                  if not single_group_report(p, verify=True).matches]
    bad_cores = [p for p in range(4, pmax + 1) if not cores_report(p, verify=True).matches]
    return [
        CheckResult("counting", "block formula vs enumeration (m<=12, run<=6)",
                    not bad_blocks, f"{len(bad_blocks)} mismatches"),
        CheckResult("counting", f"single-group non-primary count p<={pmax}", not bad_single,
                    f"mismatch at {bad_single}" if bad_single else "all match"),
        CheckResult("counting", f"core-factor count p<={pmax}", not bad_cores,
                    f"mismatch at {bad_cores}" if bad_cores else "all match"),
    ]


def _suite_roundtrip(pmax: int, workers: int) -> list[CheckResult]:
    out = []
    by_period = {p: enumerate_mss_structured(p).words() for p in range(2, 13)}
    failures = 0
    pairs = 0
    for pa, pb in itertools.product(range(2, 13), repeat=2):
        if pa * pb > 24:
            continue
        for a in by_period[pa]:
            for b in by_period[pb]:
                pairs += 1
                composed = compose(a, b)
                if not is_shift_maximal(composed):
                    failures += 1
                    continue
                split = factor_once(composed)
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
    limit = min(pmax, 14)
    for p in range(2, limit + 1):
        for s in enumerate_mss_structured(p):
            if check_stem_shape(s):
                shape_hits += 1
                if is_primary(s):
                    shape_bad += 1
            try:
                factor_interleaved_core(s)
            except ShapeError:
                continue
            shape_hits += 1
            if is_primary(s):
                shape_bad += 1
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


def run_selftest(pmax: int = 14, suites=None, workers: int = 1) -> list[CheckResult]:
    if pmax < 2:
        raise ValueError("pmax must be >= 2")
    chosen = list(SUITES) if not suites else list(suites)
    results = []
    for name in chosen:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        results.extend(SUITES[name](pmax, workers))
    return results
