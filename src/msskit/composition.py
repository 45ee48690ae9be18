"""Orbit composition, primality and factorization of MSS-sequences.

The composition ``compose(inner, outer)`` repeats the inner sequence's
body once per symbol of the outer sequence, separating the copies by the
outer letters; the letters are written verbatim when the inner sequence
holds an even number of Rs and flipped (R <-> L) when odd.  The result
has period ``len(inner) * len(outer)`` and is again shift-maximal.
Non-primary sequences are exactly the composites, so factoring scans the
proper divisors of the period for a repeating stem.  One private helper
spells that layout and one the flip rule; composing builds with them and
both factorers test a split by building it again.

``factor_once`` returns the factorization with the shortest inner
sequence; the scan order makes the result deterministic.  Uniqueness
holds only for special families, so ``factor_all`` exposes every
divisor-aligned factorization.

Two shape tests identify composites directly from the block form:
``check_stem_shape`` for sequences whose interior blocks all extend the
final block by one letter, and ``factor_interleaved_core`` for sequences
whose head groups interleave copies of the short core ``R L^(q-1)``.
Both are accelerators; the divisor scan stays the ground truth.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import NotMssError, ShapeError
from .sequences import AdmissibleSeq, SeqLike, _shift_maximal_word, as_sequence, is_shift_maximal
from .sequences import _admitted
from .structure import _decompose, _run_end

__all__ = [
    "Parity",
    "r_parity",
    "compose",
    "factor_once",
    "factor_all",
    "is_primary",
    "FactorTree",
    "factor_tree",
    "check_stem_shape",
    "factor_interleaved_core",
]


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


_FLIP = str.maketrans("RL", "LR")


def r_parity(seq: SeqLike) -> Parity:
    """Parity of the number of R symbols (the terminal C never counts)."""
    s = as_sequence(seq)
    return Parity.ODD if s.symbols.count("R") % 2 else Parity.EVEN


def _layout(stem: str, letters: str) -> str:
    """The composite word: ``stem`` before, between and after the letters, then C."""
    return stem + stem.join(letters) + stem + "C"


def _oriented(stem: str, letters: str) -> str:
    """``letters`` flipped (R <-> L) when ``stem`` holds an odd number of Rs.

    Flipping twice restores them, so the one rule maps outer letters into
    a composite and a composite's letters back out."""
    return letters.translate(_FLIP) if stem.count("R") % 2 else letters


def compose(inner: SeqLike, outer: SeqLike) -> AdmissibleSeq:
    """Compose two admissible sequences; period multiplies.

    The result is :func:`_layout` of the inner body around the outer
    body's letters, :func:`_oriented` by the inner body.

    >>> compose("RC", "RC").symbols
    'RLRC'
    """
    a = as_sequence(inner)
    b = as_sequence(outer)
    out = _admitted(_layout(a.body, _oriented(a.body, b.body)))  # R and L bodies, one C
    assert out.period == a.period * b.period
    return out


def _split_at(word: str, h: int) -> Optional[tuple[str, str]]:
    """Try to read ``word`` as stem-and-letters with inner period h.

    The letters are the symbols at positions h-1, 2h-1, ... before the
    final C; the stem is the first h-1 symbols, and the word must be
    their :func:`_layout`, as :func:`compose` builds it.  Returns (inner,
    outer) symbol strings when it is and both recovered sequences are
    shift-maximal; ``compose(inner, outer)`` is then the word, since
    :func:`_oriented` applied twice restores the letters."""
    stem = word[: h - 1]
    letters = word[h - 1 : -1 : h]
    if _layout(stem, letters) != word:
        return None
    inner = stem + "C"
    if not _shift_maximal_word(inner):
        return None
    outer = _oriented(stem, letters) + "C"
    if not _shift_maximal_word(outer):
        return None
    return inner, outer


def _factorizations(seq: SeqLike):
    """Prove the input an MSS-sequence, then scan it with :func:`_divisor_scan`."""
    s = as_sequence(seq)
    if not is_shift_maximal(s):
        raise NotMssError(f"{s} is not an MSS-sequence")
    return _divisor_scan(s)


def _divisor_scan(s: AdmissibleSeq):
    """Lazy divisor scan of a sequence already known to be shift-maximal:
    every factorization, shortest inner sequence first."""
    p = s.period
    for h in range(2, p):
        if p % h:
            continue
        split = _split_at(s.symbols, h)
        if split is not None:
            yield _admitted(split[0]), _admitted(split[1])


def factor_once(seq: SeqLike) -> Optional[tuple[AdmissibleSeq, AdmissibleSeq]]:
    """One factorization with the shortest inner sequence, or None if primary.

    Raises :class:`NotMssError` unless the input is shift-maximal.
    """
    return next(_factorizations(seq), None)


def factor_all(seq: SeqLike) -> list[tuple[AdmissibleSeq, AdmissibleSeq]]:
    """Every divisor-aligned factorization, shortest inner sequence first."""
    return list(_factorizations(seq))


def is_primary(seq: SeqLike) -> bool:
    """True iff the sequence admits no factorization."""
    return factor_once(seq) is None


@dataclass(frozen=True)
class FactorTree:
    """Binary factorization tree; leaves are primary sequences."""

    node: AdmissibleSeq
    children: Optional[tuple["FactorTree", "FactorTree"]] = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def leaves(self) -> list[AdmissibleSeq]:
        if self.children is None:
            return [self.node]
        left, right = self.children
        return left.leaves() + right.leaves()

    def to_dict(self, render=str) -> dict:
        """The tree as nested ``{"sequence": ..., "children": [...]}`` dicts,
        with ``"children": None`` at the leaves.  ``render`` maps each
        node's :class:`AdmissibleSeq` to its ``"sequence"`` value; the
        default ``str`` gives its symbols."""
        return {
            "sequence": render(self.node),
            "children": None
            if self.children is None
            else [c.to_dict(render) for c in self.children],
        }


def factor_tree(seq: SeqLike) -> FactorTree:
    """Factor recursively until every leaf is primary."""
    s = as_sequence(seq)
    return _factor_tree(s, factor_once(s))


def _factor_tree(s: AdmissibleSeq, split) -> FactorTree:
    """The tree below ``s``, given its first factorization ``split``.

    :func:`_split_at` proved both factors shift-maximal, so they are
    scanned without a second proof."""
    if split is None:
        return FactorTree(s)
    return FactorTree(s, tuple(_factor_tree(f, next(_divisor_scan(f), None)) for f in split))


def check_stem_shape(seq: SeqLike) -> bool:
    """Pattern test for composites hiding in a uniform block form.

    True when the sequence parses into single-copy head groups whose
    interior blocks each equal the final block plus one trailing letter,
    the first two added letters being L then R, and the final block does
    not end in ``R L^(q-1)``.  On shift-maximal input a hit implies the
    sequence is non-primary, with inner factor head-group + final block.
    """
    s = as_sequence(seq)
    if not s.symbols.startswith("R"):
        return False
    form = _decompose(s.body)
    if isinstance(form, int):  # an L-run outgrows the head run
        return False
    runs = form.runs
    if len(runs) < 2 or any(n != 1 for n, _ in runs):
        return False
    stem = runs[-1][1]
    if stem == "":
        return False
    added = []
    for _, block in runs[:-1]:
        if len(block) != len(stem) + 1 or not block.startswith(stem):
            return False
        added.append(block[-1])
    if added[0] != "L":
        return False
    if len(added) >= 2 and added[1] != "R":
        return False
    if form.q >= 1 and stem.endswith("R" + "L" * (form.q - 1)):
        return False
    return True


def factor_interleaved_core(seq: SeqLike) -> tuple[AdmissibleSeq, AdmissibleSeq]:
    """Factor a sequence whose head groups interleave the core ``R L^(q-1)``.

    Expected form: head ``R L^q``, then alternating groups of
    ``R L^(q-1) R`` and ``R L^q`` units, closed by ``R L^(q-1) C``; the
    first R-unit group must be the longest and the first L-unit group
    nonempty.  The letters are the symbols at positions q, 2q+1, ...
    before the final C, the head's last L first, and the word must be
    their :func:`_layout` around the core.  Returns (core sequence, outer
    sequence), the outer letters :func:`_oriented` back by the core.
    Raises :class:`ShapeError` on any mismatch, including an R-unit group
    longer than the first, which would force an over-long L-run into the
    outer factor.
    """
    s = as_sequence(seq)
    word = s.symbols
    body = s.body
    if not body.startswith("R"):
        raise ShapeError(f"{s}: must start with R")
    q = _run_end(body, 1) - 1
    if q < 1:
        raise ShapeError(f"{s}: needs a head run of at least one L")
    core = "R" + "L" * (q - 1)
    letters = word[q : -1 : q + 1]  # nonempty: the head's last L is word[q]
    if _layout(core, letters) != word:
        raise ShapeError(f"{s}: not copies of {core} around single letters, closed by {core}C")

    groups = [(ch, len(list(run))) for ch, run in itertools.groupby(letters[1:])]
    if not groups or groups[0][0] != "R":
        raise ShapeError(f"{s}: first unit group must extend the core with R")
    r_groups = [n for ch, n in groups if ch == "R"]
    l_groups = [n for ch, n in groups if ch == "L"]
    if not l_groups:
        raise ShapeError(f"{s}: needs at least one full head group after the first")
    if any(n > r_groups[0] for n in r_groups):
        raise ShapeError(
            f"{s}: a later R-unit group exceeds the first; the outer factor "
            f"would carry an over-long L-run"
        )

    inner = _admitted(core + "C")
    outer = _admitted(_oriented(core, letters) + "C")
    assert compose(inner, outer).symbols == word
    return inner, outer
