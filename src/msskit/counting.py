"""Closed-form counts of non-primary sequences and interior blocks.

Three counters, each paired with an enumeration cross-check:

* ``count_nonprimary_single_group``: non-primary sequences whose block
  form is a single head group; one exists per proper divisor of the
  period, giving ``|divisors(p)| - 2``.
* ``count_blocks``: size of the interior-block set by inclusion-exclusion
  over bounded compositions (the L-run lengths after each R).
* ``count_nonprimary_cores``: distinct single-group inner factors
  realized by period-p composites, summed over proper divisors.  The
  divisor sum needs the boundary convention that a zero-length block
  counts once (the inner factor degenerates to head group + C), while
  block enumeration keeps yielding nothing at length zero; the tension
  is confined to this one counter.

The cross-checks read proved shift-maximal words and factors, which keep
the run bound, so a word is one single-copy group exactly when its head
copy ``R L^q`` occurs once in it: no block form is built.

Counts are plain Python integers, so no overflow concerns apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .composition import _divisor_scan
from .generators import _check_int, enumerate_blocks, enumerate_mss_structured
from .sequences import AdmissibleSeq
from .structure import _single_group_q

__all__ = [
    "DivisorSet",
    "divisor_set",
    "proper_divisors",
    "count_nonprimary_single_group",
    "count_blocks",
    "count_nonprimary_cores",
    "CountReport",
    "single_group_report",
    "cores_report",
    "blocks_report",
]


@dataclass(frozen=True)
class DivisorSet:
    p: int
    divisors: tuple[int, ...]


def divisor_set(p: int) -> DivisorSet:
    """All divisors of p, sorted ascending."""
    _check_int("p", p)
    if p < 1:
        raise ValueError("p must be >= 1")
    small, large = [], []
    d = 1
    while d * d <= p:
        if p % d == 0:
            small.append(d)
            if d != p // d:
                large.append(p // d)
        d += 1
    return DivisorSet(p, tuple(small + large[::-1]))


def proper_divisors(p: int) -> DivisorSet:
    """Divisors d with 1 < d < p."""
    full = divisor_set(p)
    return DivisorSet(p, tuple(d for d in full.divisors if 1 < d < p))


def count_nonprimary_single_group(p: int) -> int:
    """Count of non-primary period-p sequences with a single head group."""
    _check_int("p", p)
    if p < 2:
        raise ValueError("p must be >= 2")
    return len(divisor_set(p).divisors) - 2


def _comb0(n: int, k: int) -> int:
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def count_blocks(length: int, max_run: int) -> int:
    """Number of length-m words starting with R with L-runs at most max_run.

    Splitting on the number k of Rs after the leading one gives a
    bijection with compositions of m-k-1 into k+1 parts bounded by
    max_run; inclusion-exclusion over the parts that overflow yields

        sum_k sum_r (-1)^r C(k+1, r) C(m-1-r(max_run+1), k)

    with out-of-range binomials read as zero, which also absorbs the
    ragged summation limits.

    >>> count_blocks(4, 2)
    7
    """
    _check_int("length", length)
    _check_int("max_run", max_run)
    if length < 0 or max_run < 0:
        raise ValueError("length and max_run must be >= 0")
    if length == 0:
        return 0
    q = max_run + 1
    total = 0
    for k in range(length):
        for r in range(k + 2):
            total += (-1) ** r * _comb0(k + 1, r) * _comb0(length - 1 - r * q, k)
    return total


def count_nonprimary_cores(p: int) -> int:
    """Distinct single-group inner factors of period-p composites.

    For each proper divisor d and head run q in 1..d-2 there are
    ``count_blocks(d-(q+2), q-1)`` inner factors of period d, plus the
    degenerate one with an empty block at q = d-2 (counted as 1 by
    convention).  Every such factor occurs for some period-p composite,
    so the sum equals the number of distinct inner factors observed when
    factoring all period-p sequences.
    """
    _check_int("p", p)
    if p < 2:
        raise ValueError("p must be >= 2")
    total = 0
    for d in proper_divisors(p).divisors:
        for q in range(1, d - 1):
            m = d - (q + 2)
            total += 1 if m == 0 else count_blocks(m, q - 1)
    return total


@dataclass(frozen=True)
class CountReport:
    """A formula value with an optional enumerated cross-check."""

    p: Optional[int]
    kind: str
    formula_value: int
    enumerated_value: Optional[int] = None

    @property
    def matches(self) -> bool:
        return self.enumerated_value is None or self.enumerated_value == self.formula_value


def enumerated_single_group_nonprimary(enumeration: Iterable[AdmissibleSeq]) -> int:
    """Non-primary single-group sequences among one period's MSS-sequences.

    ``enumeration`` holds the sequences an enumerator returned for the
    period, such as a :class:`~msskit.generators.PeriodEnumeration`.  The
    enumerator proved them shift-maximal, so they are not proved again."""
    count = 0
    for s in enumeration:
        if _single_group_q(s.body) is not None and next(_divisor_scan(s), None) is not None:
            count += 1
    return count


def enumerated_core_factors(enumeration: Iterable[AdmissibleSeq]) -> set[str]:
    """Distinct single-group inner factors (head run >= 1) found by factoring
    one period's MSS-sequences, given as for
    :func:`enumerated_single_group_nonprimary`, across all divisor
    alignments."""
    cores: set[str] = set()
    for s in enumeration:
        for inner, _outer in _divisor_scan(s):
            q = _single_group_q(inner.body)
            if q is not None and q >= 1:
                cores.add(inner.symbols)
    return cores


def single_group_report(p: int, verify: bool = False) -> CountReport:
    formula = count_nonprimary_single_group(p)
    enumerated = (
        enumerated_single_group_nonprimary(enumerate_mss_structured(p)) if verify else None
    )
    return CountReport(p, "single", formula, enumerated)


def cores_report(p: int, verify: bool = False) -> CountReport:
    formula = count_nonprimary_cores(p)
    enumerated = len(enumerated_core_factors(enumerate_mss_structured(p))) if verify else None
    return CountReport(p, "repeated", formula, enumerated)


def blocks_report(length: int, max_run: int, verify: bool = False) -> CountReport:
    formula = count_blocks(length, max_run)
    enumerated = len(enumerate_blocks(length, max_run)) if verify else None
    return CountReport(None, "sblocks", formula, enumerated)
