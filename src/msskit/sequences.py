"""Symbolic itineraries of unimodal maps and their ordering.

A finite itinerary is a word over the alphabet {L, C, R}: L and R code
points left and right of the critical point, C codes the critical point
itself.  An *admissible sequence* is a word of Ls and Rs closed by exactly
one C in the final position; it describes one period of a superstable
orbit.  Throughout the package:

* plain ``str`` values hold raw words (suffixes, interior blocks);
* :class:`AdmissibleSeq` wraps a validated, C-terminated sequence and is
  the currency every higher-level module trades in.

Comparisons use the parity-lexicographic order: L < C < R, with the
comparison at the first differing position reversed whenever the common
prefix contains an odd number of Rs.  A sequence is *shift-maximal* when
no proper right shift exceeds it in this order; shift-maximality is the
operational test for being an MSS-sequence.

Two equivalent shift-maximality tests are provided on purpose.  The
symbol-level test applies the order directly, to the shifts that start
with R (any other is below the word at its first symbol).  The sign-level
test rewrites a word into a +-1/0 sequence in which R flips a running
sign, L copies it and C maps to 0, and compares each right shift,
normalized and zero-padded, with it; it is bit-sliced, so a few int
operations per shift and position decide a batch of words at once.  The
structured test of :mod:`msskit.structure` has a byte comparator of its
own, so no two routes share a kernel and each is an oracle for the
others.  Each public test parses its input once and hands the plain word
to a private core, which the selftest oracle calls directly on words
admissible by construction.

Input text may compress letter runs as ``RL^4RC``; see
:func:`parse_sequence`.  A word is validated once, where it enters the
package (:func:`parse_sequence`, :func:`as_sequence` or the
:class:`AdmissibleSeq` constructor).  Words built admissible by
construction (enumerated rows, compositions, factors) are wrapped by the
private :func:`_admitted`, which checks nothing.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .errors import NotAdmissibleError

__all__ = [
    "Ordering",
    "AdmissibleSeq",
    "parse_sequence",
    "expand_exponents",
    "compress_exponents",
    "as_sequence",
    "r_count_before",
    "sign_sequence",
    "decode_signs",
    "shift",
    "parity_lex_cmp",
    "is_shift_maximal",
    "is_shift_maximal_signs",
    "max_l_run",
    "sort_parity_lex",
]

_SYMBOL_RANK = {"L": 0, "C": 1, "R": 2}
_R_BITS = str.maketrans("RL", "10", "C")
_R_TWOS = bytes.maketrans(b"RLC", b"\x02\x00\x00")
_C_ONES = bytes.maketrans(b"RLC", b"\x00\x00\x01")
_NEGATE = bytes.maketrans(b"\x00\x02", b"\x02\x00")  # -1 <-> +1 in _signs' bytes

_MAX_LENGTH = 10**6  # longest word run notation may expand to
_MAX_DIGITS = len(str(_MAX_LENGTH))
_TOO_LONG = f"run notation expands to more than {_MAX_LENGTH} symbols"
_REPEAT_RE = re.compile(r"(.)\1+", re.DOTALL)
_L_RUN_RE = re.compile("L+")


class Ordering(enum.IntEnum):
    """Result of a parity-lexicographic comparison."""

    LESS = -1
    EQUAL = 0
    GREATER = 1


def expand_exponents(text: str) -> str:
    """Expand run notation: ``'RL^2RC'`` -> ``'RLLRC'``.

    Grammar: a sequence of letters R/L/C, each optionally followed by
    ``^k`` with k a positive decimal integer.  A plain word of R, L and
    C alone is returned as it is.  Otherwise one scan splits the text at
    its carets: letters first, then each piece is an exponent's digits
    and the letters after it.  A word longer than ``_MAX_LENGTH``
    symbols is rejected before any run is built, and an exponent reaches
    ``int()`` only when it has at most ``_MAX_DIGITS`` digits besides its
    leading zeros.  A zero exponent is reported first, then a syntax
    error, then the length.  Anything but a ``str`` raises ``TypeError``.
    """
    if not isinstance(text, str):
        raise TypeError(f"run notation must be a str, got {type(text).__name__}")
    tail = text.lstrip("RLC")
    if not tail:  # plain word
        if len(text) > _MAX_LENGTH:
            raise NotAdmissibleError(_TOO_LONG)
        return text
    if tail[0] != "^":
        raise _syntax_error(text)
    word = text[: len(text) - len(tail)]  # the letters before the current caret
    words, counts = [], []
    for piece in tail[1:].split("^"):
        digits = piece.rstrip("RLC")
        if not (word and digits.isdecimal()):
            raise _syntax_error(text)
        counts.append(int(digits) if len(digits) <= _MAX_DIGITS else _long_exponent(digits))
        words.append(word)
        word = piece[len(digits):]
    if 0 in counts:
        raise NotAdmissibleError(f"exponent must be positive in {text!r}")
    if sum(map(len, words)) + len(word) - len(counts) + sum(counts) > _MAX_LENGTH:
        raise NotAdmissibleError(_TOO_LONG)
    return "".join([w + w[-1] * (n - 1) for w, n in zip(words, counts)]) + word


def _syntax_error(text: str) -> NotAdmissibleError:
    """The error for run notation outside the grammar: a zero exponent in
    the prefix the grammar matches, else the offset where that prefix ends."""
    word, *pieces = text.split("^")
    end = len(word) - len(word.lstrip("RLC"))
    for piece in pieces if end == len(word) else ():
        n = next((i for i, ch in enumerate(piece) if not ch.isdecimal()), len(piece))
        if not (word and n):  # a caret after no letter, or before no digit
            break
        if (int(piece[:n]) if n <= _MAX_DIGITS else _long_exponent(piece[:n])) == 0:
            return NotAdmissibleError(f"exponent must be positive in {text!r}")
        word = piece[n:]
        bad = word.lstrip("RLC")
        end += 1 + len(piece) - len(bad)
        if bad:
            break
    return NotAdmissibleError(f"cannot parse {text!r} at offset {end}")


def _long_exponent(digits: str) -> int:
    """Value of an exponent written with more than ``_MAX_DIGITS`` decimal
    digits (of any script), or ``_MAX_LENGTH + 1`` when a digit before its
    last ``_MAX_DIGITS`` is not a zero."""
    head = digits[:-_MAX_DIGITS].lstrip("0")  # ASCII zeros at once, other zeros one by one
    if any(map(int, head)):
        return _MAX_LENGTH + 1
    return int(digits[-_MAX_DIGITS:])


def compress_exponents(word: str) -> str:
    """Inverse of :func:`expand_exponents`: collapse letter runs of length >= 2."""
    return _REPEAT_RE.sub(lambda m: f"{m[1]}^{len(m[0])}", word)


@dataclass(frozen=True)
class AdmissibleSeq:
    """A word of Rs and Ls closed by exactly one C at the final position.

    Minimum length is 2 ("RC"); the period-1 word "C" is handled as a
    degenerate special case by the locator only and is rejected here.
    The constructor validates its word, and :meth:`parse` checks once the
    word it expands.  Words the package builds admissible by construction
    skip the check through :func:`_admitted`.
    """

    symbols: str

    def __post_init__(self):
        s = self.symbols
        if not isinstance(s, str):
            raise TypeError(f"AdmissibleSeq symbols must be a str, got {type(s).__name__}")
        if len(s) < 2:
            raise NotAdmissibleError(f"{s!r}: admissible sequences have length >= 2")
        if s[-1] != "C":
            raise NotAdmissibleError(f"{s!r}: must end with C")
        if s[:-1].strip("RL"):  # non-empty iff a symbol is neither R nor L
            raise NotAdmissibleError(f"{s!r}: interior symbols must be R or L")

    @classmethod
    def parse(cls, text: str) -> "AdmissibleSeq":
        """Expand run notation and validate the word, once."""
        word = expand_exponents(text)  # a word of R, L and C
        return _checked(word) if cls is AdmissibleSeq else cls(word)

    @property
    def period(self) -> int:
        return len(self.symbols)

    @property
    def body(self) -> str:
        """Symbols without the terminal C."""
        return self.symbols[:-1]

    def compressed(self) -> str:
        return compress_exponents(self.symbols)

    def __str__(self) -> str:
        return self.symbols

    def __len__(self) -> int:
        return len(self.symbols)


def _admitted(word: str) -> AdmissibleSeq:
    """:class:`AdmissibleSeq` of ``word`` without validation.

    Precondition: ``word`` is admissible (R and L only, then one final C,
    length >= 2), as the caller has built or checked it."""
    seq = object.__new__(AdmissibleSeq)
    object.__setattr__(seq, "symbols", word)
    return seq


def _checked(word: str) -> AdmissibleSeq:
    """:class:`AdmissibleSeq` of a word of R, L and C, such as :func:`expand_exponents`
    returns: one ``find`` admits it, else the constructor raises its own error."""
    if word.find("C") == len(word) - 1 > 0:  # one C, at the end
        return _admitted(word)
    return AdmissibleSeq(word)


SeqLike = Union[AdmissibleSeq, str]


def parse_sequence(text: str) -> AdmissibleSeq:
    """Parse text (run notation allowed) into an :class:`AdmissibleSeq`."""
    return AdmissibleSeq.parse(text)


def as_sequence(seq: SeqLike) -> AdmissibleSeq:
    """Coerce a str (run notation allowed) or pass through an AdmissibleSeq."""
    if isinstance(seq, AdmissibleSeq):
        return seq
    if not isinstance(seq, str):
        raise TypeError(f"a sequence must be a str or AdmissibleSeq, got {type(seq).__name__}")
    return AdmissibleSeq.parse(seq)


def r_count_before(seq: SeqLike, i: int) -> int:
    """Number of R symbols strictly before 1-based position ``i``.

    >>> r_count_before("RLLRC", 1)
    0
    >>> r_count_before("RLLRC", 5)
    2
    """
    word = seq.symbols if isinstance(seq, AdmissibleSeq) else seq
    if not 1 <= i <= len(word):
        raise ValueError(f"position {i} out of range 1..{len(word)}")
    return word.count("R", 0, i - 1)


def sign_sequence(seq: SeqLike) -> tuple[int, ...]:
    """Numeric encoding of a word: R flips a running +-1 sign, L copies it, C is 0.

    Entry i is +1 when the symbol agrees with the orientation induced by
    the number of preceding Rs (an even count keeps R positive), -1 when
    it opposes it.  The encoding is injective on words and
    order-preserving with respect to :func:`parity_lex_cmp`.
    """
    word = seq.symbols if isinstance(seq, AdmissibleSeq) else seq
    bad = word.lstrip("RLC")  # starts at the first symbol that is none of them
    if bad:
        raise NotAdmissibleError(f"invalid symbol {bad[0]!r}")
    return tuple(map((-1, 0, 1).__getitem__, _signs(word)))


def _signs(word: str) -> bytes:
    """:func:`sign_sequence` of a word of R, L and C as bytes, each entry plus one.

    Entry i is +1 when ``word[: i + 1]`` holds an odd number of Rs: XORing
    2 per R into every later byte (log2 p shifts of one int) gives 2 or 0,
    and each C, which flips nothing, then becomes 1.  Fast path: a word
    with no C (the empty word too) is done after the XOR, and one whose
    only C is its last symbol, as in every admissible sequence, just sets
    its last byte to 1.  Only a word with a C before its last symbol
    builds the C mask."""
    raw = word.encode()
    size = len(raw)
    n = int.from_bytes(raw.translate(_R_TWOS), "big")
    step = 8
    while step < 8 * size:
        n ^= n >> step
        step <<= 1
    c_at = word.find("C")
    if c_at < 0:
        return n.to_bytes(size, "big")
    if c_at == size - 1:
        return ((n & -256) | 1).to_bytes(size, "big")
    c = int.from_bytes(raw.translate(_C_ONES), "big")
    return ((n & ~(c << 1)) | c).to_bytes(size, "big")


def _shift_below(sig: bytes, neg: bytes, k: int) -> bool:
    """Whether the shift at offset k of an R-leading word with :func:`_signs`
    ``sig`` (negated: ``neg``) stays below the word: normalized to start
    with +1, zero-padded and compared as bytes."""
    return (sig if sig[k] else neg)[k:] + b"\x01" * k < sig


def decode_signs(entries: Sequence[int]) -> str:
    """Inverse of :func:`sign_sequence`."""
    beta = 0
    out = []
    for a in entries:
        if a == 0:
            out.append("C")
            continue
        sign_r = 1 if beta % 2 == 0 else -1
        if a == sign_r:
            out.append("R")
            beta += 1
        elif a == -sign_r:
            out.append("L")
        else:
            raise ValueError(f"sign entries must be in {{-1, 0, +1}}, got {a!r}")
    return "".join(out)


def shift(seq: SeqLike, k: int) -> str:
    """Right shift: drop the first ``k`` symbols, 0 <= k <= period.

    Returns a plain word; no padding happens at symbol level (zero padding
    belongs to the sign-level comparison only).
    """
    word = seq.symbols if isinstance(seq, AdmissibleSeq) else seq
    if not 0 <= k <= len(word):
        raise ValueError(f"shift {k} out of range 0..{len(word)}")
    return word[k:]


def parity_lex_cmp(a: SeqLike, b: SeqLike) -> Ordering:
    """Parity-lexicographic comparison over the common span of two words.

    L < C < R at the first differing position; the verdict is reversed
    when the common prefix holds an odd number of Rs.  If one word runs
    out with no difference seen, the result is EQUAL: for admissible
    sequences this cannot hide a real tie because a shorter sequence ends
    in C where a longer one still carries L or R.
    """
    wa = a.symbols if isinstance(a, AdmissibleSeq) else a
    wb = b.symbols if isinstance(b, AdmissibleSeq) else b
    r_parity = 0
    for x, y in zip(wa, wb):
        if x != y:
            diff = _SYMBOL_RANK[x] - _SYMBOL_RANK[y]
            if r_parity:
                diff = -diff
            return Ordering.LESS if diff < 0 else Ordering.GREATER
        if x == "R":
            r_parity ^= 1
    return Ordering.EQUAL


def is_shift_maximal(seq: SeqLike) -> bool:
    """Direct test: no proper right shift exceeds the sequence.

    The empty shift (k = period) is vacuously dominated and skipped.
    """
    return _shift_maximal_word(as_sequence(seq).symbols)


def _shift_maximal_word(word: str) -> bool:
    """:func:`is_shift_maximal` on a plain word already known to be admissible.

    Only shifts starting with R can exceed an R-leading word, and the
    final C exceeds an L-leading one."""
    if word[0] != "R":
        return False
    k = word.find("R", 1)
    while k > 0:
        # First difference of word[k:] and word: by the final C at the latest,
        # so the word's symbol there is R or L, and the shift's is larger iff
        # the word's is L; the Rs in the common prefix orient that verdict.
        i = k + 1
        while word[i] == word[i - k]:
            i += 1
        if (word[i - k] == "L") != (word.count("R", k, i) % 2 == 1):
            return False
        k = word.find("R", k + 1)
    return True


def is_shift_maximal_signs(seq: SeqLike) -> bool:
    """Sign-level shift-maximality test; agrees with :func:`is_shift_maximal`.

    For each shift the zero-padded sign sequence is compared against the
    full one.  Of the two signed copies of a shifted sequence, the one
    starting with -1 is dominated outright because the sequence itself
    starts with +1; only the copy normalized to start with +1 needs the
    positional comparison, made by the bit-sliced
    :func:`_shift_maximal_signs_mask` on a batch of one.  Requires a
    sequence starting with R.
    """
    s = as_sequence(seq)
    if not s.symbols.startswith("R"):
        raise NotAdmissibleError(f"{s}: sign-level test requires a leading R")
    return _shift_maximal_signs_mask([s.symbols]) == 1


def _shift_maximal_signs_mask(words: Sequence[str]) -> int:
    """The sign-level test on a non-empty batch of admissible, R-leading
    words of one period p: bit i is set iff ``words[i]`` passes.

    Bit-sliced: int j holds, over the batch, whether each word's sign
    entry j is +1 (an odd number of Rs in ``word[: j + 1]``, a prefix XOR
    of the R columns).  Shift k's entry i, normalized to start with +1,
    is +1 where columns k + i and k agree.  Each shift k = 1..p-2 walks
    its positions with a mask of the words still undecided; where entries
    differ, the shift is above iff its entry is +1.  At i = p-1-k the
    shift's C meets the word's +-1 entry, so the padding is never reached,
    and shift p-1, which starts with the C, is always below."""
    p = len(words[0])
    rows = "".join(reversed(words))  # words[0] in the lowest bit
    ones = (1 << len(words)) - 1
    cols = []
    parity = 0
    for j in range(p - 1):
        parity ^= int(rows[j::p].translate(_R_BITS), 2)
        cols.append(parity)
    fail = 0
    for k in range(1, p - 1):
        undecided = ones & ~fail
        if not undecided:
            break
        flip = ones ^ cols[k]  # shift entry i = flip ^ cols[k + i]
        for i in range(1, p - 1 - k):
            entry = flip ^ cols[k + i]
            diff = entry ^ cols[i]
            fail |= diff & entry & undecided
            undecided &= ~diff
            if not undecided:
                break
        else:
            fail |= undecided & ~cols[p - 1 - k]
    return ones & ~fail


def max_l_run(word: str) -> int:
    """Length of the longest run of consecutive Ls."""
    return max(map(len, _L_RUN_RE.findall(word)), default=0)


def sort_parity_lex(items: Iterable[SeqLike]) -> list:
    """Sort words or sequences into increasing parity-lexicographic order.

    This keeps the comparison sort on purpose.  Over plain words,
    :func:`parity_lex_cmp` reads a word and its own prefix as EQUAL, and
    the stable sort keeps such words in input order; a key sort by
    :func:`sign_sequence` would put the prefix first.  Where every item
    is an admissible sequence no two are ever equal: the package's own
    sorts of admissible words use the bytes key :func:`_signs`, and
    callers that hold sequences may sort with ``key=sign_sequence``.
    """
    return sorted(items, key=functools.cmp_to_key(parity_lex_cmp))
