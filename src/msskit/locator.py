"""Numerical location of superstable parameters in the logistic family.

The family is f_r(x) = r x (1 - x) on [0, 1] with critical point 1/2; it
satisfies the round-top concave conditions, and by universality the order
in which symbol sequences appear matches any other conforming family.  A
sequence of period p is realized at the parameter r* where the critical
orbit returns: f_r*^p(1/2) = 1/2.

``locate`` bisects on r inside [3, 4].  Sign-sequence order is parity-lex
order and so parameter order, so the orbit's sign entry where it first
leaves the target word says on which side of r* the midpoint lies; once
the first p-1 symbols match, f^p(1/2) - 1/2 reads as R or L at step p and
steers until the residual drops below tolerance.

Near r = 4 the residual responds to parameter changes at a rate of order
4^p, so with p = 7 or 8 one double-precision ulp in r already moves the
residual by about 1e-13: float64 bisection cannot certify residuals at
that tolerance (measured: best achievable 1.04e-13 for R L^5 C).  The
bracket is held as two integers on the 2^-g grid, g = prec - 2, which
holds every mpf in [2, 4) at the working precision of prec bits; each
midpoint is the sum rounded to prec bits, ties to even, then halved, as
mpf arithmetic computes it.  Most steps need far less than prec bits, so
each call runs two stages on one bisection path, each answering only
what it can prove:

1. fixed point: on Python integers x = X / 2^P, with P four bits below
   the mpmath working precision, a static bound of (4^i - 1)/3 units at
   step i covers this orbit and the mpmath one at any precision, so a
   step decided here is the step mpmath would take;
2. mpmath extended precision (30 significant digits, more for long
   periods) decides every step the first leaves open and is the only
   stage that ends the search, so it computes every reported residual.
   Its orbit computes r x, 1 - x, their product and x - 1/2 exactly on
   integers, each rounded to nearest-even at prec bits as libmp's
   correctly rounded calls are: the bits of mpf arithmetic.

The fixed stage abstains instead of guessing, so every step goes the way
an all-mpmath bisection takes it and the result (parameter, residual and
step count) is that bisection's, to the last bit, whichever stage
decided each step.  In practice mpmath runs once per call, on the step
that ends the search; that probe's step p is then reclassified, as
:func:`itinerary` reads it, against the word's final C.

Ahead of the two stages sits a root enclosure (interval Newton, after
R. E. Moore, *Interval Analysis*, 1966).  Once the whole prefix has
matched at both ends of the bracket, the steps left are decided by the
sign of the closing gap G(r) = f_r^p(1/2) - 1/2 alone.  The bracket is
then certified from one fixed-point orbit at its centre, in the fixed
stage's integers, that carries bounds over the whole bracket: the
prefix matches for every parameter in it, with the mpmath orbit within
E_i of the exact one, and dG/dr keeps one sign inside a known range.
Newton steps find a point near the root, and that range turns the gap
there into points a < b with |G| above tol plus E_p at and beyond them.
G being monotone, every later midpoint below a (above b) is a step the
mpmath probe would take, with a gap beyond tol and the sign it has at a
(at b); it is decided by one comparison.  Midpoints inside (a, b) go
through the two stages, and mpmath alone still ends the search, so no
result can change.  The enclosure is built from each call's own
bracket, at every precision and period; after a failed attempt it waits
as many halvings as the failing bound's ratio to its room asks for.
Located parameters are reported as mpmath floats; cast with float() for
display.

Checks run at the boundary.  ``locate`` checks its arguments, proves
its word an MSS word and prepares a search, which holds everything that
depends only on the period and the arguments; the bisection runs on the
proven word and that search.  ``order_report`` checks tol before it
enumerates, prepares one search per period and proves every word as
``locate`` does.  A search lives for one call in one thread.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple, Optional, Union

import mpmath
from mpmath import mpf
from mpmath.libmp import finf, fnan, fninf, from_float, from_man_exp, mpf_abs, mpf_lt
from mpmath.libmp import round_nearest, to_fixed, to_float

from .errors import LocateError, NotMssError
from .sequences import SeqLike, as_sequence, expand_exponents, is_shift_maximal, sign_sequence
from .sequences import _checked, _signs

__all__ = [
    "MapParam",
    "LocatedSequence",
    "itinerary",
    "locate",
    "verify_order",
    "order_report",
]

_DEFAULT_EPS = 1e-12
_DEFAULT_TOL = 1e-13
_MIN_DPS = 30
_MIN_ITER = 200

# Fixed-point stage, in units of 2^-P with P = working precision - 4, so
# that one mpmath step r*x*(1-x) errs by under one unit (see _probe_fixed).
# The comparison slack covers the floored thresholds and the rounding of
# the mpmath difference x - 1/2.
_FIXED_GUARD_BITS = 4
_FIXED_SLACK = 2

# Root enclosure.  Newton steps run from the bracket centre towards the
# root.  The first attempt waits two halvings past the first bracket whose
# ends both match the prefix: earlier attempts mostly fail the slope bound
# by one to three halvings.
_NEWTON_STEPS = 8
_FIRST_WAIT = 2


@dataclass(frozen=True)
class MapParam:
    """Logistic parameter; the critical point sits at 1/2 and maps to r/4."""

    r: float

    def __post_init__(self):
        if not 0 < self.r <= 4:
            raise ValueError(f"parameter {self.r} outside (0, 4]")

    def __call__(self, x):
        return self.r * x * (1 - x)


Param = Union[MapParam, float, mpf]


def _finite(x) -> bool:
    """Whether ``x`` is finite, tested on its exact form: an mpf is never
    converted to a float, where one above the float range reads as inf."""
    if hasattr(x, "_mpf_"):
        return x._mpf_ not in (finf, fninf, fnan)
    return isinstance(x, int) or math.isfinite(x)


def _check_type(name: str, x) -> None:
    """Raise a TypeError unless ``x`` is an int, float or mpf, whose exact value is known."""
    if not isinstance(x, (int, float)) and not hasattr(x, "_mpf_"):
        raise TypeError(f"{name} must be an int, float or mpf, got {type(x).__name__}")


def _check_tol(tol) -> None:
    """Raise unless ``tol`` is a finite int, float or mpf > 0."""
    _check_type("tol", tol)
    if not (_finite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def _check_eps(eps) -> None:
    """Raise unless ``eps`` is a finite int, float or mpf >= 0."""
    _check_type("eps", eps)
    if not (_finite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and >= 0, got {eps!r}")


def _tol_scales(tol) -> tuple:
    """ceil(-log10 tol) and ceil(-log2 tol), which size locate's default dps and max_iter.

    A ``tol`` outside the float range, at either end, is read at its exact
    value, m 2^e with m odd; any other is read by math's logarithms.
    """
    _, man, exp, _ = raw = mpf.mpf_convert_rhs(tol)
    if 0 < to_float(raw, rnd=round_nearest) < math.inf:
        return math.ceil(-math.log10(tol)), math.ceil(-math.log2(tol))
    halvings = 1 - exp - man.bit_length()  # 2^-halvings <= tol < 2^(1 - halvings)
    if halvings < 0:  # above the float range: -floor(log10 tol), from floor(tol)
        whole = man << exp if exp >= 0 else man >> -exp
        digits = (whole.bit_length() - 1) * 3 // 10  # at most log10 tol, as log10 2 > 0.3
        while 10 ** (digits + 1) <= whole:
            digits += 1
        return -digits, halvings
    digits = (halvings - 1) * 3 // 10  # below -log10 tol, as log10 2 > 0.3
    while 10**digits * man < 1 << -exp:  # until 10^digits tol >= 1
        digits += 1
    return digits, halvings


def itinerary(r: Param, steps: int, eps: float = _DEFAULT_EPS) -> str:
    """Symbol word of the critical orbit: step i classifies f^i(1/2).

    Points within ``eps`` of 1/2 read as C; the dead band keeps the
    terminal step of a located orbit classified as C despite rounding.
    ``eps`` must be a finite int, float or mpf >= 0 and is compared at
    its exact value.  The orbit is :func:`locate`'s mpmath one, exact
    integer operations rounded to nearest-even at prec bits, as libmp's
    correctly rounded calls are: an mpf parameter at its own context's
    precision, any other at 53 bits, which is float64 arithmetic.

    >>> itinerary(2.0, 1)
    'C'
    >>> itinerary(4.0, 2)
    'RL'
    >>> itinerary(locate("RLRRC").r_star, 5)
    'RLRRC'
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    _check_eps(eps)
    rv = r.r if isinstance(r, MapParam) else r
    if not 0 < rv <= 4:
        raise ValueError(f"parameter {rv} outside (0, 4]")
    prec, rv = (rv.context.prec, rv._mpf_) if hasattr(rv, "_mpf_") else (53, from_float(float(rv)))
    return _word(islice(_orbit(rv, prec), steps), eps)


@dataclass(frozen=True)
class LocatedSequence:
    """A sequence with its superstable parameter.

    ``r_star`` is an mpmath float; ``residual`` is |f^p(1/2) - 1/2| at
    r_star, evaluated at working precision.
    """

    sequence: str
    r_star: mpf
    residual: float
    iterations: int


# A decided verdict is the orbit's sign entry where it first leaves the target.
_BELOW, _ABOVE, _MATCHED = -1, 1, 0


def _round(m: int, e: int, prec: int):
    """m 2^e rounded to nearest at ``prec`` bits, ties to even, as (m, e)."""
    a = abs(m)
    n = a.bit_length() - prec
    if n <= 0:  # exact; a zero orbit (r = 4) keeps exponent 0 instead of sinking
        return (m, e) if m else (0, 0)
    t = a >> (n - 1)  # the kept bits and the first dropped one
    if t & 1 and (t & 2 or a & ((1 << (n - 1)) - 1)):
        t += 2
    t >>= 1
    return (t if m > 0 else -t), e + n


def _orbit(r: tuple, prec: int):
    """f^i(1/2) - 1/2, i = 1, 2, ..., as (m, e) pairs, for a raw mpf ``r`` > 0.

    Each of r x, 1 - x, their product and x - 1/2 is exact, then rounded.
    """
    _, rm, re, _ = r
    xm, xe = 1, -1
    while True:
        am, ae = _round(rm * xm, re + xe, prec)
        e = xe if xe < 0 else 0  # 1 - x on the finer grid of its two terms
        bm, be = _round((1 << -e) - (xm << xe - e), e, prec)
        xm, xe = _round(am * bm, ae + be, prec)
        e = xe if xe < -1 else -1  # x - 1/2 likewise
        yield _round((xm << xe - e) - (1 << -1 - e), e, prec)


def _symbol(m: int, e: int, eps_m: int, eps_e: int) -> str:
    """Symbol of the distance m 2^e from 1/2: C when it is at most eps_m 2^eps_e."""
    k = e - eps_e
    if (abs(m) << k <= eps_m) if k >= 0 else (abs(m) <= eps_m << -k):
        return "C"
    return "R" if m > 0 else "L"


def _word(points, eps) -> str:
    """The symbols of the distances (m, e) from 1/2 in ``points``, C within ``eps`` exactly."""
    _, eps_m, eps_e, _ = mpf.mpf_convert_rhs(eps)
    return "".join(_symbol(m, e, eps_m, eps_e) for m, e in points)


def _probe(r: tuple, prefix: str, signs: tuple, eps: tuple, prec: int, points=None):
    """Compare the critical itinerary at r against the target prefix.

    ``r`` and ``eps`` are raw mpf values, rounded to nearest at ``prec``
    bits as in the locating context; ``signs`` is the target's sign
    sequence with the final C read as R; each symbol is the one mpf
    arithmetic reads (see :func:`_orbit`).  Returns (verdict, gap): verdict
    -signs[i] (_BELOW or _ABOVE) at the first symbol difference i, or
    _MATCHED when all prefix symbols agree, in which case ``gap`` carries
    the raw mpf f^p(1/2) - 1/2 for the final steering and residual.  A
    dead-band hit before the prefix ends is undecidable here and reads
    as _BELOW: superstable points of shorter period are isolated, so the
    search escapes upward.  A list ``points`` gets each (m, e) point read.
    """
    _, eps_m, eps_e, _ = eps
    points = [] if points is None else points
    orbit = _orbit(r, prec)
    for i, (want, point) in enumerate(zip(prefix, orbit)):
        points.append(point)
        got = _symbol(*point, eps_m, eps_e)
        if got == "C":
            return _BELOW, None
        if got != want:
            return -signs[i], None
    points.append(next(orbit))
    return _MATCHED, from_man_exp(*points[-1])


def _probe_fixed(mid: int, prefix: str, signs: tuple, bits: int, eps_fix: int, tol_fix: int):
    """Fixed-point twin of :func:`_probe` that answers only when certain.

    The orbit runs on integers X = x 2^bits at the midpoint ``mid`` 2^-g,
    g = bits + 2 (a bracket point of :func:`locate`), which must be a
    multiple of 2^-bits; ``eps_fix`` and ``tol_fix`` are the mpmath
    thresholds in units of 2^-bits, floored.  The mpmath orbit is
    :func:`_orbit`'s, rounded to nearest-even at prec bits as libmp's
    correctly rounded calls are.
    After step i this orbit and the mpmath one are each within ``err`` =
    E_i = (4^i - 1)/3 units of the exact one (E_{i+1} = 4 E_i + 1):

    - with r <= 4 all three orbits stay in [0, 1] (before its last
      rounding an mpf step is at most 1 + 2^-prec, which rounds to 1),
      where one step of f at most multiplies their distance by 4;
    - the floor adds under one unit per step, and the mpmath step, three
      roundings of values at most 4, under 9 * 2^-prec < one unit.

    Returns (verdict, matched): ``matched`` is True when every prefix
    symbol agreed, so that only the closing gap was left to read.  A step
    is decided only when every comparison clears its floored threshold by
    2 E_i + ``_FIXED_SLACK``; otherwise, when the midpoint is off the
    2^-bits grid, and whenever the closing residual may be below ``tol``
    (only the mpf path ends the search), the verdict is None.  A decided
    closing step reads the gap as R (signs[-1]) or L (-signs[-1]).
    """
    if mid & 3:
        return None, False
    r_fix = mid >> 2
    one = 1 << bits
    half = one >> 1
    shift = 2 * bits
    x = half
    err = 0
    for i, want in enumerate(prefix):
        err = 4 * err + 1
        x = r_fix * x * (one - x) >> shift
        d = x - half
        dist = abs(d)
        if abs(dist - eps_fix) <= 2 * err + _FIXED_SLACK:
            return None, False
        if dist <= eps_fix:
            return _BELOW, False
        got = "R" if d > 0 else "L"
        if got != want:
            return -signs[i], False
    err = 4 * err + 1
    gap = (r_fix * x * (one - x) >> shift) - half
    if abs(gap) - tol_fix <= 2 * err + _FIXED_SLACK:
        return None, True
    return (signs[-1] if gap > 0 else -signs[-1]), True


def _gap_slope(r_fix: int, steps: int, bits: int):
    """Integer G(r) = f_r^steps(1/2) - 1/2 and dG/dr at r = r_fix 2^-bits, for Newton steps."""
    one = 1 << bits
    shift = 2 * bits
    x, dx = one >> 1, 0
    for _ in range(steps):
        g = x * (one - x)
        dx = (g << bits) + r_fix * (one - 2 * x) * dx >> shift
        x = r_fix * g >> shift
    return x - (one >> 1), dx


def _halvings(needed: int, allowed: int):
    """Bracket halvings before a bound ``needed`` that scales with the width fits ``allowed``.

    inf when nothing is allowed: the shortfall is then not the bracket's.
    """
    return (needed // allowed).bit_length() if allowed > 0 else math.inf


def _certify(lo_fix: int, hi_fix: int, prefix: str, signs: tuple, bits: int, eps_fix: int,
             tol_fix: int):
    """Certify the sign of the closing gap outside a small interval of the bracket.

    G(r) = f_r^p(1/2) - 1/2, and the bracket and every bound below are in
    :func:`_probe_fixed`'s units of 2^-bits.  One integer orbit X at the
    grid point c nearest the centre of [lo_fix, hi_fix] carries bounds
    over every r in it (|r - c| <= h): ``w`` on
    the distance from the exact orbit x_r at r to X, which grows per
    step by h x(1-x), plus c |1 - x_r - X| times itself, plus the floor;
    the static E_i on the distance from the mpf orbit at r to x_r; and
    ``dr`` on the distance from the exact dx_r/dr to its integer value
    ``dx`` at c.  When every prefix comparison clears its threshold by
    w + E_i + ``_FIXED_SLACK``, the mpf probe matches the whole prefix
    throughout the bracket; when |dx| > dr at step p, G is monotone on
    it with slope sign s and |dG/dr| in [|dx| - dr, |dx| + dr].  Newton
    steps from c then find a point t near the root, whose integer orbit
    puts G(t) within E_p of its gap, and that slope range gives grid
    points a < b (one interval Newton step) with s G < -(tol + E_p +
    slack) at and below a and s G > tol + E_p + slack at and above b.
    So at every midpoint m <= a (m >= b) the mpf probe matches the
    prefix and reads a gap beyond ``tol`` with the sign it has at a
    (at b), and the step is decided.

    Returns (certificate, halvings).  The certificate is (a, b, verdict
    below a, verdict at or above b), or None when a bound fails.
    ``halvings`` is how many bracket halvings to wait before the next
    attempt can do better: the failing bound's ratio to its room, or inf
    once t is as close to the root as E_p lets the gap tell, or once ``w``
    passes the unit, where no room can hold it and the probes decide.
    """
    c = (lo_fix + hi_fix) >> 1
    h = hi_fix - c
    one = 1 << bits
    half = one >> 1
    shift = 2 * bits
    x, e, w, dx, dr = half, 0, 0, 0, 0
    wait = 0
    hc2 = 2 * (h + c)
    for i in range(len(prefix) + 1):
        u = one - 2 * x
        au = abs(u)
        g = x * (one - x)
        q = w * (au + w)  # |x_r (1 - x_r) - X (1 - X)| <= q, as |1 - x_r - X| <= |u| + w
        cu = c * u
        # |r u_r x_r' - c u dx| <= h |u_r| |x_r'| + 2 c w |x_r'| + c |u| dr, |u_r| <= |u| + 2 w
        dr = ((q << bits) + (h * au + w * hc2) * (abs(dx) + dr) + abs(cu) * dr >> shift) + 2
        dx = (g << bits) + cu * dx >> shift
        # |r x_r (1 - x_r) - c X (1 - X)| <= h (X (1 - X) + q) + c q, plus the floor of X
        w = (h * (g + q) + c * q >> shift) + 2
        if w > one:  # no later step's room can hold w, which now roughly squares per step
            return None, math.inf
        e = 4 * e + 1
        x = c * g >> shift
        if i < len(prefix):
            d = x - half
            if (d > 0) != (prefix[i] == "R"):
                return None, 1
            room = abs(d) - eps_fix - e - _FIXED_SLACK
            if room <= w:
                wait = max(wait, _halvings(w, room))
    slope = abs(dx)
    if slope <= dr:
        wait = max(wait, _halvings(dr, slope))
    if wait:
        return None, wait
    s = 1 if dx > 0 else -1
    # G(t) is within e of the integer gap at t and the mpf gap within e of G
    margin = tol_fix + 2 * e + _FIXED_SLACK
    t, gap = c, x - half
    wait = 1
    for _ in range(_NEWTON_STEPS):
        if abs(gap) <= margin:  # as close to the root as E_p lets the gap tell
            wait = math.inf
            break
        t -= gap * one // dx
        if not lo_fix <= t <= hi_fix:
            return None, 1
        gap, dx = _gap_slope(t, len(prefix) + 1, bits)
        if s * dx <= 0:  # rounding has swamped the slope
            return None, 1
    # past these offsets from t the slope bounds take s G below
    # -(tol + e + slack) (at a) and above tol + e + slack (at b)
    k = s * gap + margin
    a = t - k * one // (slope - dr if k > 0 else slope + dr) - 1
    k = margin - s * gap
    b = t + k * one // (slope - dr if k > 0 else slope + dr) + 1
    if a <= lo_fix and b >= hi_fix:
        return None, wait
    return (a, b, -s * signs[-1], s * signs[-1]), wait


def _replay(cert: tuple, mid: int) -> Optional[int]:
    """The certified verdict at the midpoint ``mid`` 2^-(bits + 2), or None inside (a, b)."""
    a, b, below, above = cert
    m = mid >> 2  # floor(mid 2^bits)
    return below if m < a else above if m >= b else None


def _midpoint(lo: int, hi: int) -> int:
    """The mpf midpoint of lo 2^-g < hi 2^-g in [3, 4], g = prec - 2, in units of 2^-g.

    As ``mpf_shift(mpf_add(lo, hi, prec, round_nearest), -1)``: the sum,
    in [6, 8), rounds to an even unit count, ties to even; halving is exact.
    """
    t = lo + hi
    mid = t >> 1
    if t & 1 and mid & 1:
        mid += 1
    return mid


class _Contexts(threading.local):
    """One private mpmath context per (thread, dps), so concurrent calls stay independent."""

    def __init__(self):
        self.by_dps = {}

    def get(self, dps: int):
        ctx = self.by_dps.get(dps)
        if ctx is None:
            ctx = self.by_dps[dps] = mpmath.ctx_mp.MPContext()
            ctx.dps = dps
        return ctx


_CONTEXTS = _Contexts()


def locate(
    seq: Union[SeqLike, str],
    tol: float = _DEFAULT_TOL,
    eps: float = _DEFAULT_EPS,
    max_iter: Optional[int] = None,
    dps: Optional[int] = None,
) -> LocatedSequence:
    """Find the parameter whose critical orbit realizes ``seq``.

    The input must be an MSS-sequence; the degenerate period-1 word "C"
    maps to r = 2 directly.  Raises :class:`LocateError` when the
    bisection budget runs out before the residual drops below ``tol``,
    and with the same message as soon as the bracket stalls: a midpoint
    equal to the previous step's would repeat that step to the end.

    The defaults grow with the period p and the tolerance: ``dps`` is
    max(30, ceil(p log10 4) + ceil(-log10 tol) + 8) significant digits,
    since the residual moves like 4^p per unit of r, and ``max_iter`` is
    max(200, 2p + ceil(-log2 tol) + 60) bisection steps, which is 200 at
    the default ``tol`` for every p <= 48; a ``tol`` outside the float
    range is read at its exact value.  ``tol`` and ``eps`` must each be an
    int, float or mpf (else ``TypeError``); ``tol`` must be finite and
    positive, ``eps`` finite and >= 0, and an explicit ``dps`` or
    ``max_iter`` at least 1; anything else raises ``ValueError``.

    This is the public boundary: it checks the arguments, parses ``seq``
    and proves it an MSS word (:class:`NotMssError` otherwise), then
    prepares one search for its period, which holds what depends only on
    (p, tol, eps, max_iter, dps): dps and ``max_iter``, the calling
    thread's context, ``eps`` and ``tol`` as raw mpf and fixed-point
    values and the closing threshold ``max(eps, tol)``.

    Each bisection step is decided by the first of two stages that can
    prove its verdict: a fixed-point integer probe at the midpoint mpf
    arithmetic rounds, whose error is at most (4^i - 1)/3 units
    after step i, and the mpmath probe at ``dps`` digits (see the module
    docstring).  The first abstains unless the mpmath probe would
    certainly give the same verdict, and only the mpmath probe ends the
    search, so the result is the all-mpmath bisection's whichever stage
    decides a step.  Both steer by the target's sign sequence.
    Once the prefix has matched at both ends of the bracket, a root
    enclosure certified in the fixed-point stage's integers decides, by
    one comparison, each later midpoint outside an interval (a, b) around
    the root; it does so only where it proves the mpmath probe's verdict,
    so it cannot change a result either.
    The mpmath stage's orbit is mpf arithmetic's to the bit (see
    :func:`_orbit`), and the probe that ends the search keeps its p
    points: before a parameter is returned, step p is reclassified, as
    :func:`itinerary` reads it at the exact ``max(eps, tol)``, against the
    final C.  Steps 1..p-1 cannot read otherwise: the points are prec-bit
    numbers and rounding to nearest is monotone, so a point the probe read
    as R or L against ``eps`` rounded to prec bits lies farther from 1/2
    than the exact ``eps`` too.
    """
    _check_tol(tol)
    _check_eps(eps)
    if dps is not None and dps < 1:
        raise ValueError(f"dps must be >= 1, got {dps!r}")
    if max_iter is not None and max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")
    word = _proven(seq)
    if word == "C":
        return LocatedSequence("C", mpf(2), 0.0, 0)
    return _bisect(word, _prepare(len(word), tol, eps, max_iter, dps))


def _proven(seq: Union[SeqLike, str]) -> str:
    """The word of ``seq``, parsed once and proved R-leading and shift-maximal.

    The period-1 word "C", in run notation too, is returned as it is;
    anything else that is not an MSS word raises :class:`NotMssError`.
    """
    if isinstance(seq, str):
        word = expand_exponents(seq)  # so that "C^1" is the period-1 word too
        if word == "C":
            return word
        s = _checked(word)
    else:
        s = as_sequence(seq)
    if not s.symbols.startswith("R") or not is_shift_maximal(s):
        raise NotMssError(f"{s} is not an MSS-sequence")
    return s.symbols


class _Search(NamedTuple):
    """What a bisection needs besides its word: everything that depends
    only on (period, tol, eps, max_iter, dps).  It holds the calling
    thread's context, so it serves one call in one thread."""

    max_iter: int
    ctx: mpmath.ctx_mp.MPContext  # the thread's context at the working dps
    eps_mp: tuple  # eps and tol rounded to the working precision, as raw mpf values
    tol_mp: tuple
    eps_fix: int  # the same, floored in units of 2^-bits, bits = prec - _FIXED_GUARD_BITS
    tol_fix: int
    close: mpf  # max(eps, tol) at its exact value, against which step p is reread


def _prepare(p: int, tol, eps, max_iter: Optional[int] = None,
             dps: Optional[int] = None) -> _Search:
    """The search for words of period p, with :func:`locate`'s defaults
    for a ``dps`` or ``max_iter`` of None, from arguments already checked."""
    digits, halvings = _tol_scales(tol)
    if dps is None:
        dps = max(_MIN_DPS, math.ceil(p * math.log10(4)) + digits + 8)
    if max_iter is None:
        max_iter = max(_MIN_ITER, 2 * p + halvings + 60)
    ctx = _CONTEXTS.get(dps)
    eps_mp = ctx.mpf(eps)._mpf_
    tol_mp = ctx.mpf(tol)._mpf_
    bits = ctx.prec - _FIXED_GUARD_BITS
    close = ctx.make_mpf(mpf.mpf_convert_rhs(max(eps, tol)))
    return _Search(max_iter, ctx, eps_mp, tol_mp, to_fixed(eps_mp, bits), to_fixed(tol_mp, bits),
                   close)


def _bisect(word: str, search: _Search) -> LocatedSequence:
    """:func:`locate`'s bisection on a proven MSS ``word`` of period >= 2
    and the search prepared for its period."""
    max_iter, ctx, eps_mp, tol_mp, eps_fix, tol_fix, close = search
    prefix = word[:-1]
    signs = sign_sequence(prefix + "R")
    prec = ctx.prec
    bits = prec - _FIXED_GUARD_BITS
    g = prec - 2  # every mpf in [2, 4) is a multiple of 2^-g, and 2^-bits = 4 * 2^-g
    lo, hi = 3 << g, 4 << g  # the bracket, in units of 2^-g
    cert = None  # the root enclosure of _certify, once one is granted
    retry = 0  # the first step at which a certificate may be attempted (again)
    lo_matched = hi_matched = False  # whether the orbit at lo (hi) matched the whole prefix
    last = None  # the previous step's midpoint
    for iteration in range(1, max_iter + 1):
        mid = _midpoint(lo, hi)
        if mid == last:  # same midpoint, same verdict, same bracket: a fixed point
            break
        last = mid
        verdict = None
        matched = False  # whether the orbit at mid matches the whole prefix
        if cert is not None:
            verdict = _replay(cert, mid)
            matched = verdict is not None
        if verdict is None:
            verdict, matched = _probe_fixed(mid, prefix, signs, bits, eps_fix, tol_fix)
        if verdict is None:
            r = from_man_exp(mid, -g)
            verdict, gap = _probe(r, prefix, signs, eps_mp, prec, points := [])
            if verdict == _MATCHED:
                matched = True
                dist = mpf_abs(gap, prec, round_nearest)
                if mpf_lt(dist, tol_mp):
                    # a guard that cannot fire: step p's point dist has prec bits and rounding
                    # is monotone, so dist < tol_mp = round(tol) gives dist <= tol, read as C
                    # at max(eps, tol); nor can steps 1..p-1 differ (see locate's docstring)
                    read = prefix + _word(points[-1:], close)
                    if read != word:
                        raise LocateError(f"{word}: residual converged but itinerary reads {read}")
                    residual = to_float(dist, rnd=round_nearest)
                    return LocatedSequence(word, ctx.make_mpf(r), residual, iteration)
                # steer by the symbol the orbit would print at step p (gap != 0)
                verdict = -signs[-1] if gap[0] else signs[-1]
        if verdict == _BELOW:
            lo, lo_matched = mid, matched
        else:
            hi, hi_matched = mid, matched
        if not (lo_matched and hi_matched):
            retry = iteration + 1 + _FIRST_WAIT  # halvings past the step at which both match
        elif iteration >= retry:
            # ends rounded outwards onto the 2^-bits grid: the certified bracket holds this one
            found, wait = _certify(lo >> 2, -(-hi >> 2), prefix, signs, bits, eps_fix, tol_fix)
            cert = found or cert  # a certificate stays valid on every later bracket
            retry = iteration + wait
    raise LocateError(f"{word}: no convergence within {max_iter} bisection steps")


def order_report(pmax: int, tol: float = _DEFAULT_TOL) -> list[LocatedSequence]:
    """Locate every MSS-sequence of period 2..pmax, in parity-lex order.

    ``tol`` is checked as :func:`locate` checks it, before anything is
    enumerated.  Each row is ``locate(word, tol=tol)``: every word is
    proved as :func:`locate` proves it and runs the same bisection, on a
    search prepared once for its period rather than once per word.
    """
    from .generators import enumerate_mss_structured

    if pmax < 2:
        raise ValueError("pmax must be >= 2")
    _check_tol(tol)
    seqs = []
    for p in range(2, pmax + 1):
        seqs.extend(enumerate_mss_structured(p).rows)
    seqs.sort(key=_signs)  # sign-sequence order; no two admissible sequences compare equal
    searches = {p: _prepare(p, tol, _DEFAULT_EPS) for p in range(2, pmax + 1)}
    return [_bisect(word, searches[len(word)]) for word in map(_proven, seqs)]


def verify_order(pmax: int, tol: float = _DEFAULT_TOL) -> bool:
    """Check that parameter order equals parity-lex order up to period pmax.

    Locates every sequence with :func:`order_report`, which checks ``tol``
    before it enumerates, and verifies the parameters increase strictly
    along the parity-lex sort.  Sized for pmax <= 12 (379 sequences);
    larger values work but scale with the sequence count.
    """
    return _increasing(order_report(pmax, tol=tol))


def _increasing(rows: list[LocatedSequence]) -> bool:
    """True when the located parameters increase strictly along ``rows``."""
    return all(a.r_star < b.r_star for a, b in zip(rows, rows[1:]))
