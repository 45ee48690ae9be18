"""Canonical block form and the structured shift-maximality test.

Every MSS candidate starts ``R L^q`` and never lets more than ``q`` Ls
follow an R, so it splits uniquely into head groups ``(RL^q)^n`` joined
by interior blocks: words that start with R and keep their L-runs at or
below q-1.  :func:`block_decompose` produces that parse and
:func:`is_mss_structured` decides shift-maximality from it without
enumerating all shifts.

The test has three layers.  The public :func:`is_mss_structured` parses
its input once.  The private ``_structured_verdict``, which the selftest
oracle calls on words admissible by construction, derives the block form
of that plain word without raising (a run-bound failure is a position;
:func:`block_decompose` still raises :class:`RunLengthError` for its own
callers) and applies the filters: run bound, single leading head group,
nonempty final block.  The core ``_test_form`` takes a block form that
passed them, with its word, and runs the critical-shift comparisons; the
structured enumerator builds each candidate from its block form and
calls it directly.

The structured test needs to examine one shift per group beyond the
first: the shift landing on the last ``RL^q`` copy of the group.  Every
other shift is dominated for free (it starts with a strictly shorter
climb than the head, or inside an interior block, or on an earlier copy
whose continuation is an entire extra head group).  Each examined shift
is settled exactly by a sign-level comparison of its own: the shift's
sign bytes (``_signs``), normalized to start with +1 and zero-padded,
against the word's (``_shift_below``).  The bit-sliced kernel behind
:func:`msskit.sequences.is_shift_maximal_signs` shares no code with it,
so the selftest oracle's sign-level and structured routes stay
independent.  The group-level rules run alongside as a cross-check: the
first diverging interior block goes through :func:`parity_lex_cmp`,
reversed when beta, the count of Rs before it, is odd, and the first
diverging head exponent through its parity rule.  Any disagreement raises, rather than silently
preferring one route.

Verdicts are immutable values that callers may share: every accept is one
object, and rejections come from a bounded table keyed by failing shift
and rule, so a walk over many candidates builds few verdicts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

from .errors import NotAdmissibleError, RunLengthError
from .sequences import AdmissibleSeq, SeqLike, as_sequence, parity_lex_cmp
from .sequences import _NEGATE, _shift_below, _signs  # this test's byte comparison

__all__ = [
    "RULE_RUN_BOUND",
    "RULE_HEAD_EXPONENT",
    "RULE_EMPTY_TAIL",
    "RULE_BLOCK_ORDER",
    "RULE_EXPONENT_PARITY",
    "BlockForm",
    "StructuredVerdict",
    "RuleDisagreement",
    "block_decompose",
    "check_run_bound",
    "check_block_constraints",
    "is_mss_structured",
]

RULE_RUN_BOUND = "run-bound"            # an L-run outgrows the head run
RULE_HEAD_EXPONENT = "head-exponent"    # leading head group repeated
RULE_EMPTY_TAIL = "empty-tail-block"    # final interior block missing
RULE_BLOCK_ORDER = "block-order"        # interior-block comparison fails
RULE_EXPONENT_PARITY = "exponent-parity"  # head-group exponent rule fails


class RuleDisagreement(RuntimeError):
    """Group-level rule and positional sign comparison disagreed.

    This is a consistency alarm, not a user error: the positional
    comparison is exact, so a disagreement means the group-level rules
    were applied outside their hypotheses.
    """


@dataclass(frozen=True)
class BlockForm:
    """Parse of a sequence into head groups and interior blocks.

    ``runs`` holds pairs ``(n_i, S_i)``: n_i copies of ``RL^q`` followed
    by the interior block S_i.  Adjacent head groups merge into one
    exponent, so S_i is empty only in the final position.
    """

    q: int
    runs: tuple[tuple[int, str], ...]

    def reassemble(self) -> AdmissibleSeq:
        return AdmissibleSeq(self._body() + "C")

    def _body(self) -> str:
        head = "R" + "L" * self.q
        return "".join(head * n + s for n, s in self.runs)

    @property
    def group_count(self) -> int:
        return len(self.runs)


def _run_end(body: str, start: int) -> int:
    """Index of the first R at or after ``start``, or the body length."""
    end = body.find("R", start)
    return end if end >= 0 else len(body)


def _decompose(body: str) -> Union[BlockForm, int]:
    """Head-group parse of a body that starts with R, without raising.

    Returns the block form, or, when an L-run exceeds the head run q, the
    position of the first R that starts such a run.
    """
    # q is the L-run after the leading R; the first R followed by q + 1
    # Ls starts the first over-long run.
    q = _run_end(body, 1) - 1
    pos = body.find("R" + "L" * (q + 1))
    if pos >= 0:
        return pos
    # With no run above q, the head copies are exactly the occurrences of
    # R L^q, and the pieces between them are the interior blocks.
    runs: list[tuple[int, str]] = []
    n = 0
    for block in body.split("R" + "L" * q)[1:]:
        n += 1
        if block:
            runs.append((n, block))
            n = 0
    if n:
        runs.append((n, ""))

    form = BlockForm(q, tuple(runs))
    assert form._body() == body
    return form


def _single_group_q(body: str) -> Optional[int]:
    """The head run q when ``body`` is one head copy ``R L^q`` and one interior
    block, else None.  ``body`` must start with R and keep the run bound, as a
    shift-maximal word does; its head copies are then the occurrences of R L^q."""
    q = _run_end(body, 1) - 1
    return q if body.count("R" + "L" * q) == 1 else None


def block_decompose(seq: SeqLike) -> BlockForm:
    """Unique head-group parse of an admissible sequence starting with R.

    Raises :class:`RunLengthError` when an L-run exceeds the head run q
    (no canonical form exists, and the word is not shift-maximal).
    """
    s = as_sequence(seq)
    body = s.body
    if not body.startswith("R"):
        raise NotAdmissibleError(f"{s}: block form requires a leading R")
    form = _decompose(body)
    if isinstance(form, int):
        q = _run_end(body, 1) - 1
        run = _run_end(body, form + 1) - form - 1
        raise RunLengthError(
            f"{s}: L-run of {run} after position {form} exceeds head run {q}", form
        )
    return form


def check_run_bound(seq: SeqLike) -> bool:
    """True iff no R is followed by more Ls than the head run allows."""
    try:
        block_decompose(seq)
    except RunLengthError:
        return False
    return True


def check_block_constraints(form: BlockForm) -> bool:
    """Necessary conditions on a block form: single leading head group and
    a nonempty final interior block whenever there are two or more groups."""
    if form.runs[0][0] >= 2:
        return False
    if form.group_count >= 2 and form.runs[-1][1] == "":
        return False
    return True


@dataclass(frozen=True)
class StructuredVerdict:
    """Outcome of the structured test, with the first failing shift when negative;
    an immutable value, so equal verdicts may be one shared object."""

    is_mss: bool
    failing_shift: Optional[int] = None
    failing_rule: Optional[str] = None


_ACCEPT = StructuredVerdict(True)


@functools.lru_cache(maxsize=1024)
def _rejected(failing_shift: int, failing_rule: str) -> StructuredVerdict:
    """The shared verdict rejecting at ``failing_shift`` by ``failing_rule``."""
    return StructuredVerdict(False, failing_shift, failing_rule)


def _group_rule(form: BlockForm, k: int):
    """Classify the critical shift for group k+1 and, when the group-level
    hypotheses fully apply, predict its verdict.

    One walk pairs the word's groups with the shift's, keeping beta, the
    number of Rs before the current place.  The first diverging exponent
    is settled by its parity rule; the first diverging interior block by
    :func:`parity_lex_cmp` of the head block extended by one head group
    against the tail block, reversed when beta is odd.  Returns ``(rule,
    predicted)`` with ``predicted`` None when the rules are inconclusive
    (the blocks agree over their common span, or the tail runs out with
    every group equal, which resolves where the tail's C meets the
    continuation).
    """
    beta = 0
    for i, ((n_head, s_head), (n_tail, s_tail)) in enumerate(zip(form.runs, form.runs[k:])):
        # The shift starts on the last copy of its first group, so the
        # first exponents always agree.
        if i and n_tail != n_head:
            odd = beta % 2
            ok = (n_tail > n_head and n_head % 2 != odd) or (
                n_tail < n_head and n_tail % 2 == odd
            )
            return RULE_EXPONENT_PARITY, ok
        beta += n_head
        if s_head != s_tail:
            order = parity_lex_cmp(s_head + "R" + "L" * form.q, s_tail)
            if not order:  # EQUAL: the blocks agree over their common span
                return RULE_BLOCK_ORDER, None
            return RULE_BLOCK_ORDER, (order > 0) == (beta % 2 == 0)
        beta += s_head.count("R")
    return RULE_BLOCK_ORDER, None


def is_mss_structured(seq: SeqLike) -> StructuredVerdict:
    """Structured shift-maximality test over the block form.

    Filter order: run bound, head-exponent and empty-tail constraints,
    immediate accept for a single group, then one comparison per critical
    shift, always cross-checked against the group-level rules: a mismatch
    raises :class:`RuleDisagreement`.  It has never fired on exhaustive
    runs and exists to surface any future inconsistency, not mask it.

    >>> is_mss_structured("RLRRLRRRC").is_mss
    True
    >>> is_mss_structured("RLRRRLRRC")
    StructuredVerdict(is_mss=False, failing_shift=4, failing_rule='block-order')
    """
    s = as_sequence(seq)
    if not s.symbols.startswith("R"):
        raise NotAdmissibleError(f"{s}: MSS candidates start with R")
    return _structured_verdict(s.symbols)


def _structured_verdict(word: str) -> StructuredVerdict:
    """:func:`is_mss_structured` on a plain admissible word known to start with R."""
    form = _decompose(word[:-1])
    if isinstance(form, int):
        return _rejected(form, RULE_RUN_BOUND)
    q = form.q
    n1 = form.runs[0][0]
    if n1 >= 2:
        return _rejected((n1 - 1) * (q + 1), RULE_HEAD_EXPONENT)
    r = form.group_count
    if r >= 2 and form.runs[-1][1] == "":
        return _rejected(len(word) - (q + 2), RULE_EMPTY_TAIL)
    if r == 1:
        return _ACCEPT
    return _test_form(form, word)


def _test_form(form: BlockForm, word: str) -> StructuredVerdict:
    """Critical-shift comparisons of the structured test on a ready block form.

    ``form`` must be the block form of ``word`` and pass the filters of
    :func:`is_mss_structured` (run bound, single leading head group,
    nonempty final block when there are two or more groups); nothing here
    checks that.  A single group has no critical shift and is accepted.
    """
    sig = _signs(word)
    neg = sig.translate(_NEGATE)
    shift_at = 0  # offset of the last head copy of group k; group 0 has one copy
    for k, ((_, s), (n, _)) in enumerate(zip(form.runs, form.runs[1:]), 1):
        shift_at += len(s) + n * (form.q + 1)
        below = _shift_below(sig, neg, shift_at)
        rule, predicted = _group_rule(form, k)
        if predicted is not None and predicted != below:
            raise RuleDisagreement(
                f"{word}: shift {shift_at} classified {rule} predicted "
                f"{'pass' if predicted else 'fail'} but comparison says "
                f"{'pass' if below else 'fail'}"
            )
        if not below:
            return _rejected(shift_at, rule)
    return _ACCEPT
