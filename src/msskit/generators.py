"""Construction and enumeration of MSS-sequences.

Three generators live here.

``enumerate_blocks`` builds the interior blocks directly, by tiling a row
of boxes: write ``m = j*q + rem`` for q = max_run + 1, give each full
tile of q boxes at least one R, and constrain the first R of a tile to
sit no later than the previous tile's last R, which caps every L-run at
q-1 without ever scanning a rejected word.  Each block has one tiling
and each tile's fillings come sorted, so the blocks come out once each
and in lexicographic order.

``enumerate_mss_structured`` assembles candidate sequences from head
groups and interior blocks and keeps the ones the structured test
accepts.  Each candidate is built from its block form with a single
leading head group, nonempty blocks and no L-run above q, so it passes
the test's filters by construction, and the form goes straight to the
test's private core instead of being parsed back out of the word.  A
candidate with one head group has no critical shift, and the test
accepts every such word, so it is kept without a call.  The table of
blocks it draws from lasts one enumeration: no cache outlives the call.
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
built from the first block and one head group.  Like the tiling, it
builds only the words it keeps: each tail after a branch is a short run
of Ls and an interior block from the same table.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import NotAdmissibleError
from .sequences import AdmissibleSeq, _admitted, _shift_maximal_word, _signs, max_l_run
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
    at or below ``max_run``, in the lexicographic order the tiling emits,
    built afresh on each call: only an enumeration keeps a table of them.

    length 0 yields the empty list: an absent block is not a block.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    if max_run < 0:
        raise ValueError("max_run must be >= 0")
    return _blocks(length, max_run)


def _blocks(length: int, max_run: int) -> list[str]:
    if length == 0:
        return []
    q = max_run + 1
    tiles, rem = divmod(length, q)

    @functools.lru_cache(maxsize=None)  # for this call only: many prefixes share first_hi
    def tile_variants(first_hi: int, width: int) -> list[tuple[str, int]]:
        """Fillings of one width-q tile with first R at or before first_hi
        and anything between first and last R, as sorted (word, last_r_pos)."""
        out = []
        for f in range(1, first_hi + 1):
            out.append(("L" * (f - 1) + "R" + "L" * (width - f), f))
            for l in range(f + 1, width + 1):
                ends = _rl_words(l - f - 1, "L" * (f - 1) + "R", "R" + "L" * (width - l))
                out.extend((word, l) for word in ends)
        return sorted(out)

    # The full tiles in order, as (prefix so far, last R of its last tile);
    # the first tile, or the remainder if there is none, starts with R.
    prefixes = [("", 1)]
    for _ in range(tiles):
        prefixes = [(acc + word, last) for acc, prev_last in prefixes
                    for word, last in tile_variants(prev_last, q)]
    free = sorted(_rl_words(rem))  # every remainder, which "" is when there is none
    out = []
    for acc, prev_last in prefixes:
        if prev_last > rem:  # even an all-L remainder stays within the run bound
            out.extend(map(acc.__add__, free))
        else:
            out.extend(acc + word for word, _ in tile_variants(prev_last, rem))
    return out


def derive_later_blocks(q: int, first_block: str, max_len: int) -> list[str]:
    """Blocks admissible after ``first_block`` in a sequence with head run q.

    The comparison template is ``first_block`` plus one head group.  A
    later block must branch upward off its sign sequence: at some -1 entry
    preceded by at most q-1 consecutive +1s, flip the template's letter
    there, which turns the entry into +1, and continue with any letters
    that keep every L-run at or below q-1, the splice at the branch point
    included.  No branch prefix is a prefix of another, so every block
    comes out once.  Only kept blocks are built: after a prefix ending in
    t Ls, a tail is a leading run of at most q-1-t Ls and then an interior
    block (see :func:`enumerate_blocks`), and a prefix whose own last
    L-run exceeds q-1 has none.  Results are capped at ``max_len`` symbols.

    >>> derive_later_blocks(2, "R", 2)
    ['RL']
    """
    if q < 1:
        raise ValueError("head run q must be >= 1")
    if not first_block.startswith("R") or max_l_run(first_block) > q - 1:
        raise NotAdmissibleError(
            f"{first_block!r} is not an interior block for head run {q}"
        )
    template = first_block + "R" + "L" * q
    sig = _signs(template)  # 0 for a -1 entry, 2 for a +1 entry
    table = functools.cache(_blocks)  # for this call only
    out = []
    for i in range(1, min(len(template), max_len)):  # 0-based branch position
        if sig[i] or i - 1 - sig.rfind(0, 0, i) > q - 1:
            continue  # a +1 entry, or branching here would splice an over-long L-run
        prefix = template[:i] + ("L" if template[i] == "R" else "R")
        # Ls a tail may lead with; only the prefix's last run can exceed q-1, and then
        # room < 0 leaves no tail
        room = q - 1 - (len(prefix) - len(prefix.rstrip("L")))
        for tail_len in range(max_len - i):
            for lead in range(min(room, tail_len) + 1):
                head = prefix + "L" * lead
                if lead == tail_len:
                    out.append(head)
                else:
                    out.extend(map(head.__add__, table(tail_len - lead, q - 1)))
    return sorted(out)


def _positive_compositions(total: int, parts: int):
    """``total`` as ``parts`` positive summands, in lexicographic order (stars and bars)."""
    cuts = itertools.combinations(range(1, total), parts - 1) if total > 0 else ()
    return (tuple(b - a for a, b in zip((0, *c), (*c, total))) for c in cuts)


def _candidates(p: int):
    """Every candidate word of period p with the block form it was built from.

    Per head run q: the bare ``R L^(p-2) C``, then for each group count
    the exponent vectors and interior-block choices that reach period p.
    Every form has a single leading head group, interior blocks whose
    L-runs stay below q, and, with two or more groups, only nonempty
    blocks: each passes the filters of the structured test by
    construction.
    """
    yield "R" + "L" * (p - 2) + "C", BlockForm(p - 2, ((1, ""),))
    table = functools.cache(_blocks)  # for this enumeration only
    body_len = p - 1
    for q in range(1, p - 2):
        unit = q + 1
        max_groups = (body_len - unit) // (unit + 1) + 1
        for r in range(1, max_groups + 1):
            exp_budget = (body_len - r) // unit - 1  # total extra head copies
            if exp_budget < r - 1:
                continue
            for exponents in itertools.product(range(1, exp_budget - r + 3), repeat=r - 1):
                copies = 1 + sum(exponents)
                m_total = body_len - unit * copies
                if m_total < r:
                    continue
                counts = (1,) + exponents
                for lens in _positive_compositions(m_total, r):
                    for blocks in itertools.product(*(table(m, q - 1) for m in lens)):
                        form = BlockForm(q, tuple(zip(counts, blocks)))
                        yield form._body() + "C", form


def enumerate_mss_structured(p: int) -> PeriodEnumeration:
    """All MSS-sequences of period p via structured candidate assembly.

    Each candidate comes with the block form it was assembled from, and
    that form goes straight to the critical-shift comparisons of the
    structured test: nothing is parsed or decomposed again.  A candidate
    with a single head group is accepted without a test, as the test
    accepts every such word.  Output is sorted in parity-lex order.
    """
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
    if p < 2:
        raise ValueError("period must be >= 2")
    words = list(filter(_shift_maximal_word, _rl_words(p - 2, "R", "C")))
    words.sort(key=_signs)
    return PeriodEnumeration(p, tuple(words))
