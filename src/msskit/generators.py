"""Construction and enumeration of MSS-sequences.

Three generators live here.

``enumerate_blocks`` grows the interior blocks from ``R`` one letter at
a time, each word gaining L (unless it ends in ``max_run`` Ls) before R.
No rejected word is spelled, and a sorted list of equal-length words stays
sorted, so the blocks come out once each and in lexicographic order.

``enumerate_mss_structured`` builds candidate sequences the way the
paper writes them, ``(R L^q)^(n_1) S_1 (R L^q)^(n_2) S_2 ... C``, and keeps
the ones the structured test accepts.  Per head run q, one recursion
appends a group ``(R L^q)^n S`` at a time: n is 1 in the first group,
every block S is nonempty with no L-run above q-1, and no remainder too
short for another group is left.  So each candidate passes the test's
filters by construction, the candidates sharing q and S_1 come out
together, and the form goes straight to the test's private core instead
of being parsed back out of the word.  A candidate with one head group
has no critical shift, and the test accepts every such word, so it is
kept without a call.  The table of blocks it draws from lasts one
enumeration: no cache outlives the call.
``enumerate_mss_bruteforce`` filters the full candidate space
``R {L,R}^(p-2) C`` with the direct shift-maximality test and serves as
the oracle the structured path is validated against (practical up to
p around 22).  Both sort their words by the sign bytes of
:func:`~msskit.sequences._signs`, the key ``order_report`` sorts by too,
rather than by the pairwise comparator, and return them as a
:class:`PeriodEnumeration` of plain words, wrapped as
:class:`~msskit.sequences.AdmissibleSeq` only on iteration.

``derive_later_blocks`` produces, for a fixed first interior block, the
blocks that may legally follow it in longer sequences: exactly the words
whose sign sequence first departs upward from the comparison template
built from the first block and one head group.  It grows each branch
prefix by the same one-letter rule, so it too builds only the words it
keeps.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import NotAdmissibleError
from .sequences import AdmissibleSeq, _admitted, _shift_maximal_word, _signs
from .structure import BlockForm, _test_form

__all__ = [
    "PeriodEnumeration",
    "enumerate_blocks",
    "derive_later_blocks",
    "enumerate_mss_structured",
    "enumerate_mss_bruteforce",
]


@dataclass(frozen=True)
class PeriodEnumeration:
    """All MSS-sequences of one period, in increasing parity-lex order:
    ``rows`` holds the plain words, which the enumerator proved, and
    iteration wraps each as an :class:`AdmissibleSeq` without a check."""

    period: int
    rows: tuple[str, ...]

    def __iter__(self):
        return map(_admitted, self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def sequences(self) -> tuple[AdmissibleSeq, ...]:
        return tuple(self)

    def words(self) -> list[str]:
        return list(self.rows)


def _check_int(name: str, value) -> None:
    """Raise a TypeError unless ``value`` is an int."""
    if not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


def _rl_words(n: int, head: str = "", tail: str = ""):
    """``head + w + tail`` for every word w over {R, L} of length n, in
    ``itertools.product("RL", repeat=n)`` order.  The last six letters (or
    all n) come from a table of endings, so memory stays bounded at any n."""
    k = min(n, 6)
    ends = ["".join(t) + tail for t in itertools.product("RL", repeat=k)]
    for t in itertools.product("RL", repeat=n - k):
        start = head + "".join(t)
        for end in ends:
            yield start + end


def enumerate_blocks(length: int, max_run: int) -> list[str]:
    """All words of the given length starting with R whose L-runs stay
    at or below ``max_run``, in lexicographic order (L before R), built
    afresh on each call: only an enumeration keeps a table of them.

    length 0 yields the empty list: an absent block is not a block.

    >>> enumerate_blocks(4, 1)
    ['RLRL', 'RLRR', 'RRLR', 'RRRL', 'RRRR']
    """
    _check_int("length", length)
    _check_int("max_run", max_run)
    if length < 0:
        raise ValueError("length must be >= 0")
    if max_run < 0:
        raise ValueError("max_run must be >= 0")
    return _blocks(length, max_run)


def _extend(words: list[str], max_run: int) -> list[str]:
    """Each word plus one letter, L before R, keeping L-runs at or below max_run."""
    cap = "L" * max_run
    return [w + c for w in words for c in ("R" if w.endswith(cap) else "LR")]


def _blocks(length: int, max_run: int) -> list[str]:
    words = ["R"] if length else []
    for _ in range(length - 1):
        words = _extend(words, max_run)
    return words


def derive_later_blocks(q: int, first_block: str, max_len: int) -> list[str]:
    """Blocks admissible after ``first_block`` in a sequence with head run q.

    The comparison template is ``first_block`` plus one head group.  A
    later block must branch upward off its sign sequence: at some -1 entry
    preceded by at most q-1 consecutive +1s, flip the template's letter
    there, which turns the entry into +1, and continue with any letters
    that keep every L-run at or below q-1, the splice at the branch point
    included.  No branch prefix is a prefix of another, so every block
    comes out once.  Each branch prefix grows one letter at a time, like
    :func:`enumerate_blocks`, up to ``max_len`` symbols.

    >>> derive_later_blocks(2, "R", 2)
    ['RL']
    """
    _check_int("q", q)
    _check_int("max_len", max_len)
    if q < 1:
        raise ValueError("head run q must be >= 1")
    if not isinstance(first_block, str):
        raise TypeError(f"first_block must be a str, got {type(first_block).__name__}")
    if set(first_block) - {"R", "L"} or first_block[:1] != "R" or "L" * q in first_block:
        raise NotAdmissibleError(f"{first_block!r} is not an interior block for head run {q}")
    template = first_block + "R" + "L" * q
    sig = _signs(template)  # 0 for a -1 entry, 2 for a +1 entry
    out = []
    for i in range(1, min(len(template), max_len)):  # 0-based branch position
        if sig[i] or i - 1 - sig.rfind(0, 0, i) > q - 1:
            continue  # a +1 entry, or branching here would splice an over-long L-run
        # No prefix ends in over q-1 Ls: a flipped L leaves a final R, and the L-run before
        # an R with entry -1 reads +1 with the R ahead of it, so the skip keeps it <= q-2.
        level = [template[:i] + ("L" if template[i] == "R" else "R")]
        out += level
        for _ in range(max_len - i - 1):
            level = _extend(level, q - 1)
            out += level
    return sorted(out)


def _groups(rest: int, body: str, runs: tuple, head: str, table):
    """``body`` and its ``runs`` completed by groups ``head^n S`` filling
    ``rest`` more letters, then C.  n is 1 in the first group and any n >= 1
    after it; S is a nonempty block from ``table``.  No remainder shorter
    than a group (one head copy and one letter) is left, so every table
    entry drawn serves some candidate.  It lives at module level: a nested
    function that calls itself is a reference cycle, which would hold the
    table past the enumeration until the next garbage collection."""
    if not rest:
        yield body + "C", runs
        return
    unit = len(head)
    for n in range(1, (rest - 1) // unit + 1 if runs else 2):
        for m in range(1, rest - n * unit + 1):
            left = rest - n * unit - m
            if left == 0 or left > unit:
                for s in table(m, unit - 2):
                    yield from _groups(left, body + head * n + s, runs + ((n, s),), head, table)


def _candidates(p: int):
    """Every candidate word of period p with the block form it was built from.

    First the bare ``R L^(p-2) C``, then per head run q the words grown one
    group ``(R L^q)^n S`` at a time by :func:`_groups`, so the candidates
    sharing q and the first block S_1 come out together.  Every form has a
    single leading head group, interior blocks whose L-runs stay below q,
    and, with two or more groups, only nonempty blocks: each passes the
    filters of the structured test by construction.
    """
    yield "R" + "L" * (p - 2) + "C", BlockForm(p - 2, ((1, ""),))
    table = functools.cache(_blocks)  # for this enumeration only
    for q in range(1, p - 2):
        for word, runs in _groups(p - 1, "", (), "R" + "L" * q, table):
            yield word, BlockForm(q, runs)


def enumerate_mss_structured(p: int) -> PeriodEnumeration:
    """All MSS-sequences of period p via structured candidate assembly.

    Each candidate comes with the block form it was assembled from, and
    that form goes straight to the critical-shift comparisons of the
    structured test: nothing is parsed or decomposed again.  A candidate
    with a single head group is accepted without a test, as the test
    accepts every such word.  Output is sorted in parity-lex order.

    >>> enumerate_mss_structured(6).words()
    ['RLRRRC', 'RLLRLC', 'RLLRRC', 'RLLLRC', 'RLLLLC']
    """
    _check_int("period", p)
    if p < 2:
        raise ValueError("period must be >= 2")
    accepted = [
        word
        for word, form in _candidates(p)
        if form.group_count == 1 or _test_form(form, word).is_mss
    ]
    accepted.sort(key=_signs)
    return PeriodEnumeration(p, tuple(accepted))


def enumerate_mss_bruteforce(p: int) -> PeriodEnumeration:
    """Oracle enumeration: filter every candidate word of period p,
    sequentially, with the direct shift-maximality test."""
    _check_int("period", p)
    if p < 2:
        raise ValueError("period must be >= 2")
    words = list(filter(_shift_maximal_word, _rl_words(p - 2, "R", "C")))
    words.sort(key=_signs)
    return PeriodEnumeration(p, tuple(words))
