"""Reference answers owned by the benchmark.

Nothing here imports msskit: every output the benchmark checks is judged
against these definitions, written straight from the mathematics rather
than from the package's code paths.

* parity-lexicographic order and the shift-maximality (MSS) test;
* the orbit composition law and the shortest-inner factorization built
  on it;
* the closed form for the number of MSS-sequences of period p, which is
  OEIS A000048: a(p) = 1/(2p) * sum over odd d | p of mu(d) * 2^(p/d);
* the critical orbit of the logistic map, evaluated in mpmath, to judge a
  located parameter by its itinerary and residual.
"""

from __future__ import annotations

import mpmath

_RANK = {"L": 0, "C": 1, "R": 2}
_SWAP = {"R": "L", "L": "R"}


def compare(a: str, b: str) -> int:
    """Parity-lex comparison over the common span: -1, 0 or +1.

    L < C < R at the first difference, reversed when the common prefix
    holds an odd number of Rs.
    """
    odd = False
    for x, y in zip(a, b):
        if x != y:
            up = _RANK[x] > _RANK[y]
            return -1 if up == odd else 1
        if x == "R":
            odd = not odd
    return 0


def is_mss(word: str) -> bool:
    """True iff ``word`` is an admissible word no proper right shift exceeds."""
    if len(word) < 2 or word[0] != "R" or word[-1] != "C" or "C" in word[:-1]:
        return False
    return all(compare(word[k:], word) <= 0 for k in range(1, len(word)))


def compose(inner: str, outer: str) -> str:
    """Composition law: one copy of the inner body per outer symbol, joined
    by the outer letters, flipped when the inner body has odd R count."""
    stem = inner[:-1]
    flip = stem.count("R") % 2 == 1
    joints = (_SWAP[c] if flip else c for c in outer[:-1])
    return "".join(stem + c for c in joints) + stem + "C"


def factor_once(word: str):
    """Shortest-inner factorization (inner, outer) of an MSS word, or None."""
    p = len(word)
    for h in range(2, p):
        if p % h:
            continue
        inner = word[: h - 1] + "C"
        flip = inner.count("R") % 2 == 1
        letters = "".join(word[j * h - 1] for j in range(1, p // h))
        outer = "".join(_SWAP[c] for c in letters) + "C" if flip else letters + "C"
        if compose(inner, outer) == word and is_mss(inner) and is_mss(outer):
            return inner, outer
    return None


def factor_tree(word: str):
    """Nested ``(word, children)`` tree; children is None at primary leaves."""
    split = factor_once(word)
    if split is None:
        return (word, None)
    return (word, (factor_tree(split[0]), factor_tree(split[1])))


def _mobius(n: int) -> int:
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


def mss_count(p: int) -> int:
    """Number of MSS-sequences of period p (OEIS A000048)."""
    total = sum(_mobius(d) * 2 ** (p // d) for d in range(1, p + 1, 2) if p % d == 0)
    return total // (2 * p)


def compress(word: str) -> str:
    """Run notation as users type it: ``'RLLRC'`` -> ``'RL^2RC'``."""
    out, i = [], 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        out.append(word[i] if j - i == 1 else f"{word[i]}^{j - i}")
        i = j
    return "".join(out)


def orbit_check(word: str, r, dps: int = 60):
    """Follow the critical orbit of x -> r x (1 - x) for ``len(word)`` steps.

    Returns ``(itinerary_ok, residual)``: whether the first p-1 points sit
    on the sides ``word`` names, and |f^p(1/2) - 1/2| at parameter r.
    """
    ctx = mpmath.ctx_mp.MPContext()
    ctx.dps = dps
    r = ctx.mpf(r)
    half = ctx.mpf(1) / 2
    x = half
    for want in word[:-1]:
        x = r * x * (1 - x)
        if ("R" if x > half else "L") != want:
            return False, None
    x = r * x * (1 - x)
    return True, float(abs(x - half))
