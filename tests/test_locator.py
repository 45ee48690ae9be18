"""Superstable parameter location in the logistic family."""

import itertools
import math
import random
import re
import sys
import threading
import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf
from mpmath.ctx_mp_python import _mpf
from mpmath.libmp import (
    fhalf, fone, from_float, from_man_exp, mpf_abs, mpf_add, mpf_le, mpf_lt, mpf_mul, mpf_pos,
    mpf_shift, mpf_sub, round_nearest, to_fixed, to_float,
)

from msskit import (
    LocateError,
    MapParam,
    NotMssError,
    compose,
    enumerate_mss_structured,
    itinerary,
    locate,
    order_report,
    parity_lex_cmp,
    sign_sequence,
    verify_order,
)
from msskit import locator
from msskit.locator import _BELOW, _MATCHED, _probe, _probe_fixed

from conftest import brute_shift_maximal


def mpf_bisection(word, tol=1e-13, eps=1e-12, max_iter=200, dps=30):
    """All-mpmath bisection, written apart from the library as an oracle.

    Returns (sequence, r_star, residual, iterations), or None when the
    budget runs out.
    """
    rank = {"L": 0, "C": 1, "R": 2}
    ctx = mpmath.ctx_mp.MPContext()
    ctx.dps = dps
    lo, hi = ctx.mpf(3), ctx.mpf(4)
    eps_mp, tol_mp = ctx.mpf(eps), ctx.mpf(tol)
    for iteration in range(1, max_iter + 1):
        mid = (lo + hi) / 2
        half = mid * 0 + 0.5
        x, odd = half, False
        for want in word[:-1]:
            x = mid * x * (1 - x)
            d = x - half
            if abs(d) <= eps_mp:
                below = True
                break
            got = "R" if d > 0 else "L"
            if got != want:
                below = (rank[got] < rank[want]) != odd
                break
            odd ^= got == "R"
        else:
            gap = mid * x * (1 - x) - half
            if abs(gap) < tol_mp:
                return word, mid, float(abs(gap)), iteration
            below = (gap <= 0) != odd  # the orbit reads L at step p, and L < C
        if below:
            lo = mid
        else:
            hi = mid
    return None


def is_least_scale(k, base, tol):
    """Whether k is the least integer with base^k tol >= 1, for a Fraction tol."""
    return Fraction(base) ** k * tol >= 1 > Fraction(base) ** (k - 1) * tol


def default_dps(p):
    return max(30, math.ceil(p * math.log10(4)) + 13 + 8)


def extremal(p):
    return "R" + "L" * (p - 2) + "C"


def composite_power(word, k):
    """``word`` composed with itself k - 1 times: period len(word)^k."""
    out = word
    for _ in range(k - 1):
        out = compose(out, word).symbols
    return out


def default_args(p, tol=1e-13):
    """The library's default dps and max_iter, restated for the oracle."""
    return {
        "dps": max(30, math.ceil(p * math.log10(4)) + math.ceil(-math.log10(tol)) + 8),
        "max_iter": max(200, 2 * p + math.ceil(-math.log2(tol)) + 60),
    }


def random_mss_words(seed, count, pmin, pmax):
    """Seeded sample of MSS words, drawn as candidates and kept if maximal."""
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        p = rng.randint(pmin, pmax)
        word = "R" + "".join(rng.choice("RL") for _ in range(p - 2)) + "C"
        if brute_shift_maximal(word):
            words.append(word)
    return words


class TestMapParam:
    def test_validates_range(self):
        MapParam(3.5)
        with pytest.raises(ValueError):
            MapParam(0.0)
        with pytest.raises(ValueError):
            MapParam(4.5)

    def test_critical_image(self):
        f = MapParam(3.2)
        assert f(0.5) == pytest.approx(0.8)


class TestItinerary:
    def test_superstable_fixed_point(self):
        assert itinerary(2.0, 1) == "C"

    def test_full_map(self):
        assert itinerary(4.0, 2) == "RL"
        assert itinerary(4.0, 5) == "RLLLL"

    def test_period_three_window(self):
        r = float(locate("RLC").r_star)
        assert itinerary(r, 3, eps=1e-6) == "RLC"

    def test_accepts_map_param(self):
        assert itinerary(MapParam(4.0), 2) == "RL"

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            itinerary(4.0, 0)
        with pytest.raises(ValueError):
            itinerary(5.0, 3)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -1])
    def test_rejects_bad_eps(self, eps):
        # nan never read C and inf read every step as C
        with pytest.raises(ValueError, match="eps must be finite and >= 0, got"):
            itinerary(4.0, 3, eps=eps)

    @pytest.mark.parametrize("eps", [Fraction(1, 10**12), Decimal("1e-12"), "1e-12"])
    def test_rejects_eps_of_another_type(self, eps):
        # an eps whose exact value is not known is a TypeError in both functions
        message = f"^eps must be an int, float or mpf, got {type(eps).__name__}$"
        with pytest.raises(TypeError, match=message):
            itinerary(3.9, 5, eps)
        with pytest.raises(TypeError, match=message):
            locate("RLC", eps=eps)


class TestLocate:
    def test_threads_stay_independent(self):
        # Each thread works at its own precision, low enough to show in the
        # residual; a context shared between threads would leak one
        # thread's digits into another's results.
        jobs = [(extremal(p), dps) for p in (10, 12) for dps in (18, 21, 24, 45)]
        expected = [_as_tuple(locate(w, dps=dps)) for w, dps in jobs]
        results = [None] * len(jobs)

        def work(i):
            for _ in range(3):
                results[i] = _as_tuple(locate(jobs[i][0], dps=jobs[i][1]))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == expected


    def test_degenerate_period_one(self):
        found = locate("C")
        assert float(found.r_star) == 2.0
        assert found.residual == 0.0

    def test_degenerate_period_one_in_run_notation(self):
        assert _as_tuple(locate("C^1")) == _as_tuple(locate("C")) == ("C", 2, 0.0, 0)

    def test_parses_a_str_once(self, monkeypatch):
        from msskit import sequences

        calls = []
        expand = sequences.expand_exponents

        def counted(text):
            calls.append(text)
            return expand(text)

        monkeypatch.setattr(sequences, "expand_exponents", counted)
        monkeypatch.setattr(locator, "expand_exponents", counted)
        assert locate("RL^2C").sequence == "RLLC"
        assert calls == ["RL^2C"]

    def test_rc_closed_form(self):
        found = locate("RC")
        assert abs(float(found.r_star) - (1 + math.sqrt(5))) < 1e-10

    def test_rlc_bracket(self):
        found = locate("RLC")
        assert 3.8318 < found.r_star < 3.8319

    def test_residual_below_tolerance(self):
        for word in ["RC", "RLRC", "RLC", "RLLC", "RLLLLLC"]:
            found = locate(word, tol=1e-13)
            assert found.residual < 1e-13
            assert found.iterations <= 200

    def test_itinerary_reproduces_sequence(self):
        for word in ["RLRC", "RLLRC", "RLLRLC"]:
            found = locate(word)
            assert itinerary(found.r_star, len(word)) == word

    def test_superstability(self):
        # The cycle multiplier contains the map derivative near the critical
        # point, so it collapses at the located parameter.
        from msskit import enumerate_mss_structured

        for p in range(2, 7):
            for seq in enumerate_mss_structured(p):
                r = locate(seq).r_star
                x = mpf(1) / 2
                mult = mpf(1)
                for _ in range(p):
                    x = r * x * (1 - x)
                    mult *= r * (1 - 2 * x)
                assert abs(mult) < 1e-6, seq

    def test_rejects_non_mss(self):
        with pytest.raises(NotMssError):
            locate("RRC")
        with pytest.raises(NotMssError):
            locate("RLRLC")

    def test_budget_error(self):
        with pytest.raises(LocateError):
            locate("RLC", tol=1e-13, max_iter=3)

    def test_accepts_run_notation(self):
        found = locate("RL^2C")
        assert 3.96 < found.r_star < 3.961

    @pytest.mark.parametrize("p", [34, 60])
    def test_long_period_converges(self, p):
        word = extremal(p)
        found = locate(word)
        assert found.residual < 1e-13
        assert itinerary(found.r_star, p) == word

    @pytest.mark.parametrize("word, k", [("RC", 7), ("RC", 8), ("RC", 9), ("RLC", 5)])
    def test_long_composites_return(self, word, k):
        # Past the unit, the certificate's orbit bound w roughly squares per
        # step, so these return only if _certify gives up there.  Half a
        # second each keeps the four within 2 s.
        target = composite_power(word, k)
        assert len(target) == len(word) ** k
        start = time.perf_counter()
        found = locate(target)
        assert time.perf_counter() - start < 0.5
        assert itinerary(found.r_star, len(target)) == target

    def test_budget_grows_with_tolerance(self):
        # 200 steps fall short of 1e-100; the default budget adds -log2 tol.
        found = locate("RLRC", tol=1e-100)
        assert found.residual < 1e-100
        assert found.iterations > 200

    def test_explicit_budget_overrides_default(self):
        # 30 digits cannot resolve p = 34; the default adds digits with p.
        with pytest.raises(LocateError):
            locate(extremal(34), dps=30)


MP40 = mpmath.mp.clone()  # an mpf from here carries 136 bits
MP40.dps = 40


def _as_tuple(found):
    return found.sequence, found.r_star, found.residual, found.iterations


def _as_reprs(found):
    return found.sequence, repr(found.r_star), repr(found.residual), found.iterations


class TestMatchesMpfBisection:
    """Every search takes the all-mpmath bisection's steps and returns its result."""

    def test_identical_to_mpf_bisection(self):
        words = [w for p in range(2, 11) for w in enumerate_mss_structured(p).words()]
        assert len(words) == 116
        words += [extremal(p) for p in range(2, 32)]
        for word in words:
            expected = mpf_bisection(word, dps=default_dps(len(word)))
            assert _as_tuple(locate(word)) == expected, word

    @pytest.mark.parametrize("eps", [mpf("1e-12"), mpf(0), MP40.mpf("1e-12"), MP40.mpf("3e-13")],
                             ids=["53-bit", "zero", "136-bit", "136-bit-3e-13"])
    def test_identical_to_mpf_bisection_at_an_mpf_eps(self, eps):
        # Both stages compare with eps rounded to the working precision,
        # as the mpf bisection does.
        for word in period_words(10):
            expected = mpf_bisection(word, eps=eps, dps=default_dps(len(word)))
            assert tuple(map(repr, _as_tuple(locate(word, eps=eps)))) == tuple(map(repr, expected))

    @pytest.mark.parametrize("tol", [1e-2, 1e-3])
    def test_identical_to_mpf_bisection_at_a_loose_tol(self, tol):
        # A residual below tol but above eps converges; the closing check
        # widens the dead band to tol at step p only, so an orbit that
        # passes within tol of 1/2 in mid-word still reads as the word.
        words = period_words(12)
        assert len(words) == 379
        for word in words:
            expected = mpf_bisection(word, tol=tol, **default_args(len(word), tol))
            assert _as_tuple(locate(word, tol=tol)) == expected, word


class TestClosingReclassification:
    """A converged search rereads step p of the closing probe's own orbit."""

    @pytest.mark.parametrize("kwargs, least", [
        ({}, 146), ({"tol": 1e-3}, 146), ({"dps": 9, "tol": 1e-9, "eps": 1e-9}, 15),
    ])
    def test_one_orbit_per_mpf_probe(self, monkeypatch, kwargs, least):
        # The confirmation starts no orbit of its own: every _orbit start
        # is an mpf probe's, converged calls included.
        counts = Counter()
        for name in ("_orbit", "_probe"):
            def counted(*args, _name=name, _inner=getattr(locator, name)):
                counts[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(locator, name, counted)
        words = period_words(10) + [extremal(p) for p in range(11, 41)]
        for word in words:
            try:
                locate(word, **kwargs)
                counts["converged"] += 1
            except LocateError:
                pass
        assert counts["converged"] >= least
        assert counts["_orbit"] == counts["_probe"] >= counts["converged"]

    @pytest.mark.parametrize("misread, word, read", [
        (lambda w: w.replace("C", "R"), "RLRRC", "RLRRR"),
    ], ids=["step-p"])
    @pytest.mark.parametrize("kwargs", [{}, {"tol": 1e-3, "eps": 1e-5}])
    def test_guard_fires_on_a_misread_orbit(self, monkeypatch, misread, word, read, kwargs):
        classify = locator._word
        monkeypatch.setattr(locator, "_word", lambda points, eps: misread(classify(points, eps)))
        message = re.escape(f"{word}: residual converged but itinerary reads {read}")
        with pytest.raises(LocateError, match=f"^{message}$"):
            locate(word, **kwargs)

    @pytest.mark.parametrize("kwargs", [{}, {"dps": 18}, {"eps": 0}, {"tol": 1e-100}],
                             ids=["defaults", "dps-18", "eps-0", "tol-1e-100"])
    def test_steps_before_p_read_as_the_word(self, monkeypatch, kwargs):
        # Why the confirmation reads step p alone: each orbit point is a
        # prec-bit number and rounding to nearest is monotone, so a point no
        # farther from 1/2 than the exact eps is no farther than the rounded
        # eps either.  Steps 1..p-1 of a matched probe, read as R or L against
        # the rounded eps, therefore read the word at the exact eps too.
        eps = kwargs.get("eps", locator._DEFAULT_EPS)
        probe = locator._probe
        matched = []

        def recorded(r, prefix, signs, eps_mp, prec, points=None):
            verdict, gap = probe(r, prefix, signs, eps_mp, prec, points)
            if verdict == _MATCHED:
                matched.append(points)
            return verdict, gap

        monkeypatch.setattr(locator, "_probe", recorded)
        for word in period_words(10):
            matched.clear()
            locate(word, **kwargs)
            assert matched  # the closing probe at least
            for points in matched:
                assert locator._word(points[:-1], eps) == word[:-1]

    @pytest.mark.parametrize("kwargs, least", [
        ({"dps": 14, "tol": 1e-12, "eps": 1e-12}, 100), ({"eps": MP40.mpf("1e-12")}, 116),
    ], ids=["50-bit", "136-bit-eps"])
    def test_results_read_as_their_words_at_the_exact_eps(self, kwargs, least):
        # The search compares with eps rounded to the working precision
        # (50 and 103 bits here), which moves it; the confirmation reads the
        # orbit at eps's exact value, as itinerary does on the returned
        # parameter.
        eps = kwargs["eps"]
        converged = 0
        for word in period_words(10):
            try:
                found = locate(word, **kwargs)
            except LocateError:
                continue
            converged += 1
            prec = found.r_star.context.prec
            assert mpf_pos(mpf.mpf_convert_rhs(eps), prec, round_nearest) != mpf.mpf_convert_rhs(eps)
            assert itinerary(found.r_star, len(word), eps) == word
        assert converged >= least


class TestOrder:
    def test_period_four_order(self):
        rows = {w: float(locate(w).r_star) for w in ["RC", "RLRC", "RLC", "RLLC"]}
        assert rows["RC"] < rows["RLRC"] < rows["RLC"] < rows["RLLC"]

    def test_verify_small(self):
        assert verify_order(2) is True  # single sequence, vacuous order
        assert verify_order(5) is True

    def test_order_matches_parity_lex(self):
        rows = order_report(6)
        for a, b in zip(rows, rows[1:]):
            assert parity_lex_cmp(a.sequence, b.sequence) < 0
            assert a.r_star < b.r_star

    def test_counts(self):
        assert len(order_report(5)) == 1 + 1 + 2 + 3

    def test_order_isomorphism_to_period_10(self):
        # Parameter order equals symbolic order for all 116 sequences of
        # periods 2..10, with gaps far above the numerical-tie guard 10*tol.
        rows = order_report(10, tol=1e-13)
        assert len(rows) == 116
        gaps = [float(b.r_star - a.r_star) for a, b in zip(rows, rows[1:])]
        assert all(g > 0 for g in gaps)
        assert min(gaps) > 10 * 1e-13
        assert all(r.residual < 1e-13 for r in rows)

    @pytest.mark.parametrize("tol", [1e-13, 1e-20, mpf("1e-15")], ids=["1e-13", "1e-20", "mpf"])
    def test_rows_are_single_locates(self, tol):
        # order_report prepares one search per period, locate one per call:
        # the rows are the same to the repr
        words = sorted(period_words(12), key=sign_sequence)
        expected = [_as_reprs(locate(word, tol=tol)) for word in words]
        assert [_as_reprs(row) for row in order_report(12, tol=tol)] == expected

    def test_one_search_per_period_and_a_proof_per_word(self, monkeypatch):
        from msskit import sequences

        counts = Counter()
        for module, name in ((locator, "_prepare"), (sequences, "_shift_maximal_word")):
            def counted(*args, _name=name, _inner=getattr(module, name)):
                counts[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(module, name, counted)
        assert len(order_report(12)) == 379
        assert counts == {"_prepare": 11, "_shift_maximal_word": 379}

    def test_proves_every_word(self, monkeypatch):
        from msskit import generators

        enumerate_period = generators.enumerate_mss_structured

        def with_a_stranger(p):
            found = enumerate_period(p)
            return type(found)(p, found.rows + ("RLRLC",)) if p == 5 else found

        monkeypatch.setattr(generators, "enumerate_mss_structured", with_a_stranger)
        with pytest.raises(NotMssError, match="^RLRLC is not an MSS-sequence$"):
            order_report(6)

    @pytest.mark.parametrize("tol", ["x", None, Fraction(1, 10**13), 0, -1.0, math.nan,
                                     math.inf, mpf("-inf")])
    def test_rejects_a_bad_tol_before_enumerating(self, monkeypatch, tol):
        from msskit import generators

        def refuse(p):
            raise AssertionError("enumerated before tol was checked")

        monkeypatch.setattr(generators, "enumerate_mss_structured", refuse)
        with pytest.raises((TypeError, ValueError)) as expected:
            locate("RLC", tol=tol)
        message = f"^{re.escape(str(expected.value))}$"
        for check in (order_report, verify_order):
            with pytest.raises(expected.type, match=message):
                check(16, tol=tol)


class TestArguments:
    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_bad_eps(self, eps):
        with pytest.raises(ValueError, match="eps"):
            locate("RLC", eps=eps)

    @pytest.mark.parametrize("dps", [0, -5])
    def test_rejects_bad_dps(self, dps):
        with pytest.raises(ValueError, match="dps"):
            locate("RLC", dps=dps)

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_rejects_bad_max_iter(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            locate("RLC", max_iter=max_iter)

    def test_tol_below_the_float_range(self):
        # float(tol) is 0, so math's logarithms cannot size the defaults;
        # they come from tol's exact value: ceil(-log10 tol) = 401 and
        # ceil(-log2 tol) = 1329 give dps 4 + 401 + 8 and max_iter
        # 10 + 1329 + 60.
        tol = mpf("1e-400")
        assert float(tol) == 0
        found = locate("RLRRC", tol=tol)
        assert found.r_star.context.dps == 413
        assert _as_tuple(found) == mpf_bisection("RLRRC", tol=tol, dps=413, max_iter=1399)

    def test_default_sizes_at_the_exact_tol(self):
        # Below the float range both scales are the least integers k with
        # 10^k tol >= 1 and 2^k tol >= 1; above it they are math's, which
        # the oracle's default_args restates.
        rng = random.Random(20261019)
        ctx = mpmath.ctx_mp.MPContext()
        for _ in range(300):
            man = rng.getrandbits(rng.randint(1, 200)) | 1
            exp = -rng.randint(1080, 5000) - man.bit_length()
            tol = ctx.make_mpf((0, man, exp, man.bit_length()))
            assert float(tol) == 0
            exact = Fraction(man) * Fraction(2)**exp
            digits, halvings = locator._tol_scales(tol)
            assert 10**digits * exact >= 1 > 10**(digits - 1) * exact, tol
            assert 2**halvings * exact >= 1 > 2**(halvings - 1) * exact, tol
        for tol in (1e-13, 1e-2, 2.0**-40, 1e-300, 5e-324, mpf("1e-20"), MP40.mpf("1e-300")):
            digits, halvings = locator._tol_scales(tol)
            assert (digits, halvings) == (math.ceil(-math.log10(tol)), math.ceil(-math.log2(tol)))

    def test_tol_and_eps_above_the_float_range(self):
        # float() of this mpf is inf, yet it is finite: both functions take
        # it at its exact value.  The defaults it sizes, dps 30 and 200
        # steps, are the oracle's own, and a float tol of 1e300 already
        # gives r = 3.5 after one step.
        big = mpf("1e400")
        assert float(big) == math.inf
        expected = mpf_bisection("RLC", tol=big)
        assert expected == mpf_bisection("RLC", tol=1e300)
        assert (expected[1], expected[3]) == (3.5, 1)
        found = locate("RLC", tol=big)
        assert found.r_star.context.dps == 30
        assert _as_tuple(found) == expected
        assert _as_tuple(locate("RLC", tol=1e300)) == expected
        # every orbit point lies within eps of 1/2 and reads C, so neither converges
        assert mpf_bisection("RLC", eps=big) is None
        with pytest.raises(LocateError, match="^RLC: no convergence within 200 bisection steps$"):
            locate("RLC", eps=big)
        assert itinerary(3.5, 3, eps=big) == "CCC"

    def test_default_sizes_above_the_float_range(self):
        # Both scales are then negative: the least integers k with
        # 10^k tol >= 1 and 2^k tol >= 1, whether the mantissa is shifted
        # left or right.
        rng = random.Random(20261020)
        ctx = mpmath.ctx_mp.MPContext()
        signs = Counter()
        for _ in range(300):
            man = rng.getrandbits(rng.randint(1, 1500)) | 1
            exp = rng.randint(1030, 5000) - man.bit_length()
            signs[exp >= 0] += 1
            tol = ctx.make_mpf((0, man, exp, man.bit_length()))
            assert float(tol) == math.inf
            exact = Fraction(man) * Fraction(2)**exp
            digits, halvings = locator._tol_scales(tol)
            assert is_least_scale(digits, 10, exact) and is_least_scale(halvings, 2, exact), tol
        assert signs[True] and signs[False]
        assert locator._tol_scales(ctx.mpf(2)**1024) == (-308, -1024)
        assert locator._tol_scales(ctx.make_mpf(from_man_exp(5**400, 400))) == (-400, -1328)  # 10^400

    @pytest.mark.parametrize("tol", [Fraction(1, 10**13), Fraction(1, 10**400), Decimal("1e-13"),
                                     Decimal("1e-400"), "1e-13", None],
                             ids=["Fraction", "Fraction-1e-400", "Decimal", "Decimal-1e-400",
                                  "str", "None"])
    def test_rejects_tol_of_another_type(self, tol):
        # as for eps, a tol whose exact value is not known is a TypeError
        message = f"^tol must be an int, float or mpf, got {type(tol).__name__}$"
        with pytest.raises(TypeError, match=message):
            locate("RLC", tol=tol)

    def test_int_tol_above_the_float_range(self):
        # read at its exact value, as an mpf there is: 10^400 sizes the
        # defaults as mpf("1e400") does, and both give r = 3.5 after one step
        assert locator._tol_scales(10**400) == (-400, -1328)
        assert locator._tol_scales(2**1024) == (-308, -1024)
        for word in ("RLC", "RLRRC", extremal(12)):
            found = locate(word, tol=10**400)
            assert found.r_star.context.dps == 30
            assert _as_tuple(found) == _as_tuple(locate(word, tol=mpf("1e400"))), word
            if word == "RLC":
                assert (found.r_star, found.iterations) == (3.5, 1)

    @pytest.mark.parametrize("bad", [mpf("inf"), mpf("-inf"), mpf("nan")])
    def test_rejects_non_finite_mpfs(self, bad):
        tol_message = re.escape(f"tol must be finite and positive, got {bad!r}")
        eps_message = re.escape(f"eps must be finite and >= 0, got {bad!r}")
        with pytest.raises(ValueError, match=f"^{tol_message}$"):
            locate("RLC", tol=bad)
        with pytest.raises(ValueError, match=f"^{eps_message}$"):
            locate("RLC", eps=bad)
        with pytest.raises(ValueError, match=f"^{eps_message}$"):
            itinerary(3.5, 3, eps=bad)

    def test_zero_eps_still_locates(self):
        found = locate("RLC", eps=0)
        assert _as_tuple(found) == mpf_bisection("RLC", eps=0)
        assert _as_tuple(found) == _as_tuple(locate("RLC"))


class TestFixedStage:
    """The fixed-point stage must leave the all-mpmath bisection path intact."""

    def test_identical_on_random_words(self):
        words = random_mss_words(seed=20240611, count=24, pmin=11, pmax=40)
        for word in words:
            expected = mpf_bisection(word, **default_args(len(word)))
            assert expected is not None, word
            assert _as_tuple(locate(word)) == expected, word

    def test_identical_on_long_extremal_words(self):
        for p in range(32, 61):
            word = extremal(p)
            expected = mpf_bisection(word, **default_args(p))
            assert expected is not None, word
            assert _as_tuple(locate(word)) == expected, word

    @pytest.mark.parametrize("tol", [1e-20, 1e-100])
    def test_identical_at_tight_tolerance(self, tol):
        expected = mpf_bisection("RLRC", tol=tol, **default_args(4, tol))
        assert _as_tuple(locate("RLRC", tol=tol)) == expected

    def test_identical_at_explicit_dps_and_zero_eps(self):
        words = [w for p in range(2, 9) for w in enumerate_mss_structured(p).words()]
        words += [extremal(12), extremal(24)]
        for word in words:
            assert _as_tuple(locate(word, dps=45)) == mpf_bisection(word, dps=45), word
            expected = mpf_bisection(word, eps=0, **default_args(len(word)))
            assert _as_tuple(locate(word, eps=0)) == expected, word

    def test_abstains_near_located_parameter(self):
        for word in ["RLC", "RLLRLC", "RLRRRLRC", extremal(12)]:
            ctx = mpmath.ctx_mp.MPContext()
            ctx.dps = default_dps(len(word))
            bits = ctx.prec - 4
            unit = ctx.ldexp(1, -bits)
            eps_fix = math.floor(Fraction(1e-12) * 2**bits)
            tol_fix = math.floor(Fraction(1e-13) * 2**bits)
            r_star = ctx.mpf(locate(word).r_star)
            r_grid = int(r_star * 2**(bits + 2))  # the search's grid, 2^-(bits + 2)
            assert r_grid == r_star * 2**(bits + 2)
            prefix = word[:-1]
            signs = sign_sequence(prefix + "R")

            def probe(steps):
                # offsets on the 2^-bits grid, so no answer is lost to rounding
                mid = r_grid + 4 * steps
                return _probe_fixed(mid, prefix, signs, bits, eps_fix, tol_fix)[0]

            near = round(1e-30 / unit)
            assert near >= 1
            for steps in (-near, 0, near):
                assert probe(steps) is None, (word, steps)
            # far from r*, the same probe does decide
            far = round(1e-6 / unit)
            assert {probe(-far), probe(far)} == {locator._BELOW, locator._ABOVE}, word

    def test_abstains_when_a_threshold_is_within_the_margin(self):
        # Away from r* the probe decides; moving eps or tol to within a few
        # units of an orbit distance it compares against must make it abstain.
        word = "RLRRRLRC"
        prefix, signs = word[:-1], sign_sequence(word[:-1] + "R")
        ctx = mpmath.ctx_mp.MPContext()
        ctx.dps = default_dps(len(word))
        bits = ctx.prec - 4
        r = ctx.mpf(locate(word).r_star) - ctx.ldexp(1, -30)
        big = int(r * 2**bits)
        assert big == r * 2**bits
        mid = big << 2  # on the search's grid, 2^-(bits + 2)
        one, x, dists = 1 << bits, 1 << (bits - 1), []
        for _ in word:
            x = big * x * (one - x) >> 2 * bits
            dists.append(abs(x - (one >> 1)))
        closest, gap = min(dists[:-1]), dists[-1]
        eps_fix = math.floor(Fraction(1e-12) * 2**bits)
        tol_fix = math.floor(Fraction(1e-13) * 2**bits)
        assert _probe_fixed(mid, prefix, signs, bits, eps_fix, tol_fix)[0] is not None
        assert _probe_fixed(mid, prefix, signs, bits, eps_fix, gap // 2)[0] is not None
        for units in (1, 5):
            assert _probe_fixed(mid, prefix, signs, bits, closest - units, tol_fix)[0] is None
            assert _probe_fixed(mid, prefix, signs, bits, eps_fix, gap - units)[0] is None

    def test_abstains_off_the_grid(self):
        # A search midpoint is on the 2^-(bits + 2) grid; one off the
        # coarser 2^-bits grid has no exact fixed-point orbit.
        word = "RLRRRLRC"
        prefix, signs = word[:-1], sign_sequence(word[:-1] + "R")
        bits = 99
        eps_fix, tol_fix = fixed_thresholds(1e-12, 1e-13, bits)
        far = (int(locate(word).r_star * 2**bits) - 2**(bits - 30)) << 2
        assert _probe_fixed(far, prefix, signs, bits, eps_fix, tol_fix)[0] is not None
        for k in (1, 2, 3):
            assert _probe_fixed(far + k, prefix, signs, bits, eps_fix, tol_fix) == (None, False)

    def test_margin_is_twice_the_static_bound(self):
        # Either orbit may be E_i = (4^i - 1)/3 units from the exact one
        # after step i, so a comparison is decided once it clears its
        # threshold by 2 E_i + _FIXED_SLACK units, and not before.
        word = "RLRRRLRC"
        prefix, signs = word[:-1], sign_sequence(word[:-1] + "R")
        ctx = mpmath.ctx_mp.MPContext()
        ctx.dps = default_dps(len(word))
        bits = ctx.prec - 4
        r = ctx.mpf(locate(word).r_star) - ctx.ldexp(1, -30)
        big = int(r * 2**bits)
        assert big == r * 2**bits
        mid = big << 2  # on the search's grid, 2^-(bits + 2)
        one, x, dists = 1 << bits, 1 << (bits - 1), []
        for _ in word:
            x = big * x * (one - x) >> 2 * bits
            dists.append(abs(x - (one >> 1)))
        eps_fix = math.floor(Fraction(1e-12) * 2**bits)
        tol_fix = math.floor(Fraction(1e-13) * 2**bits)

        def probe(eps_fix, tol_fix):
            return _probe_fixed(mid, prefix, signs, bits, eps_fix, tol_fix)[0]

        bound = [(4**i - 1) // 3 for i in range(1, len(word) + 1)]
        k = min(range(len(prefix)), key=dists.__getitem__)
        margin = 2 * bound[k] + locator._FIXED_SLACK
        assert probe(dists[k] - margin, tol_fix) is None
        assert probe(dists[k] + margin, tol_fix) is None
        assert probe(dists[k] - margin - 1, tol_fix) is not None
        assert probe(dists[k] + margin + 1, tol_fix) == locator._BELOW
        margin = 2 * bound[-1] + locator._FIXED_SLACK
        assert probe(eps_fix, dists[-1] - margin) is None
        assert probe(eps_fix, dists[-1] - margin - 1) is not None

    @pytest.mark.parametrize("dps", [5, 9, 15, 30, 60])
    def test_orbits_stay_within_the_static_bound(self, dps):
        # After step i the integer orbit and the mpf orbit are each within
        # E_i = (4^i - 1)/3 units of 2^-bits of the exact orbit, computed
        # here at four times the precision.
        ctx, exact = mpmath.ctx_mp.MPContext(), mpmath.ctx_mp.MPContext()
        ctx.dps = dps
        exact.prec = 4 * ctx.prec
        bits = ctx.prec - 4
        one = 1 << bits
        rng = random.Random(dps)
        grid = [rng.randrange(3 * one, 4 * one) for _ in range(12)]
        grid += [4 * one - 1, 4 * one - 2**bits // 2**10, 4 * one]
        for word in ("RLRRRLRC", extremal(12), extremal(30)):
            grid.append(int(locate(word).r_star * one))
        for r_fix in grid:
            r_mp, r_ex = ctx.mpf(r_fix) / one, exact.mpf(r_fix) / one
            assert r_ex * one == r_fix and r_mp == r_ex
            x_fix, x_mp, x_ex = one >> 1, ctx.mpf(0.5), exact.mpf(0.5)
            bound = 0
            for step in range(1, 61):
                bound = 4 * bound + 1
                x_fix = r_fix * x_fix * (one - x_fix) >> 2 * bits
                x_mp = r_mp * x_mp * (1 - x_mp)
                x_ex = r_ex * x_ex * (1 - x_ex)
                assert 0 <= x_mp <= 1, (dps, r_fix, step)
                assert abs(x_fix - x_ex * one) <= bound, (dps, r_fix, step)
                assert abs(exact.mpf(x_mp) - x_ex) * one <= bound, (dps, r_fix, step)

    @pytest.mark.parametrize("word", ["RLC", "RLRRRLRC"])
    def test_runs_above_1000_bits(self, monkeypatch, word):
        # tol = 1e-300 needs over 1000 bits of working precision; the
        # fixed-point stage still decides every step but the last.
        expected = mpf_bisection(word, tol=1e-300, **default_args(len(word), 1e-300))
        assert expected is not None
        calls = []
        probe = locator._probe

        def counted(*args):
            calls.append(args[1])
            return probe(*args)

        monkeypatch.setattr(locator, "_probe", counted)
        assert _as_tuple(locate(word, tol=1e-300)) == expected
        assert len(calls) == 1

    def test_mpf_runs_once_per_call(self, monkeypatch):
        # The fixed-point stage and the enclosure decide every step but the last.
        calls = []
        probe = locator._probe

        def counted(*args):
            calls.append(args[1])
            return probe(*args)

        monkeypatch.setattr(locator, "_probe", counted)
        rows = order_report(8)
        assert len(calls) == len(rows) > 30
        calls.clear()
        locate(extremal(40))
        assert len(calls) == 1


def mpf_step_agrees(verdict, r, prefix, eps, tol, prec):
    """True when the mpf probe at the raw mpf ``r`` takes the certified
    step: it matches the whole prefix and reads a closing gap of at least
    ``tol`` whose steering verdict is ``verdict``.  ``eps`` and ``tol``
    are rounded to ``prec`` bits, as the locating context does."""
    signs = sign_sequence(prefix + "R")
    eps_mp, tol_mp = (mpf_pos(from_float(v), prec, round_nearest) for v in (eps, tol))
    got, gap = _probe(r, prefix, signs, eps_mp, prec)
    if got != _MATCHED or mpf_lt(mpf_abs(gap), tol_mp):
        return False
    return verdict == (-signs[-1] if gap[0] else signs[-1])


def period_words(pmax):
    return [w for p in range(2, pmax + 1) for w in enumerate_mss_structured(p).words()]


def fixed_thresholds(eps, tol, bits):
    """``locate``'s eps_fix and tol_fix at a working precision of bits + 4."""
    return tuple(to_fixed(mpf_pos(from_float(v), bits + 4, round_nearest), bits)
                 for v in (eps, tol))


def regrid(lo, hi, bits, grid):
    """A bracket of ints on the 2^-bits grid, moved to the coarser 2^-grid
    one, or None when an end is off it."""
    shift = bits - grid
    if (lo | hi) & ((1 << shift) - 1):
        return None
    return lo >> shift, hi >> shift


def exact_gap(r_fix, bits, steps):
    """f_r^steps(1/2) - 1/2 at r = r_fix 2^-bits in units of 2^-bits, at over four times the bits."""
    ctx = mpmath.ctx_mp.MPContext()
    ctx.prec = 4 * bits + 8 * steps
    r, x = ctx.mpf(r_fix) / 2**bits, ctx.mpf(0.5)
    for _ in range(steps):
        x = r * x * (1 - x)
    return (x - 0.5) * 2**bits


def granted_certificates(monkeypatch, words):
    """Locate ``words`` and return the arguments of every granted certificate."""
    certify = locator._certify
    calls = []

    def recorded(*args):
        found = certify(*args)
        if found[0] is not None:
            calls.append(args)
        return found

    monkeypatch.setattr(locator, "_certify", recorded)
    for word in words:
        locate(word)
    monkeypatch.undo()
    return calls


class TestRootEnclosure:
    """Steps decided by the certified root enclosure are the mpf probe's steps."""

    @staticmethod
    def replayed_steps(monkeypatch, words, **kwargs):
        """Locate ``words``, re-deciding each replayed step with the mpf probe.

        Returns (the word of each replayed step, the steps the mpf probe
        decides otherwise).
        """
        tol, eps = kwargs.get("tol", 1e-13), kwargs.get("eps", 1e-12)
        replay = locator._replay
        current = {}
        replayed, wrong = [], []

        def checked(cert, mid):
            verdict = replay(cert, mid)
            if verdict is not None:
                word, prec = current["word"], current["prec"]
                replayed.append(word)
                r = from_man_exp(mid, 2 - prec)  # mid is on the 2^-(prec - 2) grid
                if not mpf_step_agrees(verdict, r, word[:-1], eps, tol, prec):
                    wrong.append((word, mid))
            return verdict

        monkeypatch.setattr(locator, "_replay", checked)
        for word in words:
            ctx = mpmath.ctx_mp.MPContext()
            ctx.dps = kwargs.get("dps") or default_args(len(word), tol)["dps"]
            current.update(word=word, prec=ctx.prec)
            try:
                locate(word, **kwargs)
            except LocateError:  # 18 digits cannot resolve the longest words
                pass
        return replayed, wrong

    @pytest.mark.parametrize("kwargs", [{}, {"dps": 18}, {"dps": 9, "tol": 1e-9, "eps": 1e-9}])
    def test_replayed_steps_are_mpf_steps(self, monkeypatch, kwargs):
        # At every period and precision: the certificate runs in the
        # fixed-point stage's integers, so long words and precisions below
        # 53 bits have one too.
        words = [row.sequence for row in order_report(10)]
        words += [extremal(p) for p in range(14, 61)]
        words += random_mss_words(seed=20261019, count=40, pmin=4, pmax=40)
        replayed, wrong = self.replayed_steps(monkeypatch, words, **kwargs)
        assert wrong == []
        assert len(replayed) > {None: 7000, 18: 4500, 9: 700}[kwargs.get("dps")]
        if not kwargs:
            assert sum(len(word) >= 37 for word in replayed) > 900

    @pytest.mark.parametrize("bits", [None, 40])
    def test_certificate_holds_across_the_bracket(self, monkeypatch, bits):
        # Every parameter of a certified bracket outside (a, b) is decided as
        # certified, not only the midpoints a search visits: at the locating
        # precision, and at 40 bits (a working precision of 44), where the
        # static bound E_i takes a large share of every margin.
        words = period_words(10) + [extremal(p) for p in range(14, 41, 2)]
        calls = granted_certificates(monkeypatch, words)
        assert len(calls) == len(words)
        checked = 0
        for lo, hi, prefix, signs, locating_bits, eps_fix, tol_fix in calls:
            grid = bits or locating_bits
            if bits:
                eps_fix, tol_fix = fixed_thresholds(1e-12, 1e-13, bits)
                if regrid(lo, hi, locating_bits, bits) is None:
                    continue
                lo, hi = regrid(lo, hi, locating_bits, bits)
            cert, _ = locator._certify(lo, hi, prefix, signs, grid, eps_fix, tol_fix)
            if cert is None:
                continue
            checked += self.check_points(cert, lo, hi, grid, prefix, 1e-12, 1e-13)
        assert checked > 30 * len(words)

    @staticmethod
    def check_points(cert, lo_fix, hi_fix, bits, prefix, eps, tol):
        """Re-decide grid points of [lo, a] and [b, hi] with the mpf probe."""
        a, b, below, above = cert
        below_a = {lo_fix, *(lo_fix + (a - lo_fix) * k // 9 for k in range(9))}
        below_a.update(a - k for k in range(1, 10))
        above_b = {hi_fix, *(b + (hi_fix - b) * k // 9 for k in range(9))}
        above_b.update(b + k for k in range(9))
        points = [(m, below) for m in below_a if m < a] + [(m, above) for m in above_b if m >= b]
        checked = 0
        for m, verdict in points:
            if lo_fix <= m <= hi_fix:
                checked += 1
                raw = from_man_exp(m, -bits)
                assert mpf_step_agrees(verdict, raw, prefix, eps, tol, bits + 4), (prefix, m)
        return checked

    def test_certificate_holds_near_the_dead_band(self):
        # With eps just below the orbit's closest approach to 1/2 at r*, the
        # dead band begins a short way from r*: brackets reaching into it
        # must be refused, and every certificate granted nearby must hold.
        checked = granted = 0
        for word in ("RLC", "RLLRLC", "RLRRRLRC", extremal(12), "RLRRRRRRLRLRRRC"):
            found = locate(word)
            ctx = mpmath.ctx_mp.MPContext()
            ctx.dps = default_dps(len(word))
            bits = ctx.prec - 4
            x, half, dists = ctx.mpf(0.5), ctx.mpf(0.5), []
            for _ in word[:-1]:
                x = found.r_star * x * (1 - x)
                dists.append(abs(x - half))
            prefix, signs = word[:-1], sign_sequence(word[:-1] + "R")
            r_fix = int(found.r_star * 2**bits)
            for shrink in (1e-2, 1e-5, 1e-8):
                eps = float(min(dists) * (1 - shrink))
                eps_fix, tol_fix = fixed_thresholds(eps, 1e-13, bits)
                for j in range(12, 2 * len(word) + 40, 2):
                    for offset in (-2, 0, 1):
                        h = 1 << (bits - j)
                        lo, hi = r_fix + (offset - 4) * h // 4, r_fix + (offset + 4) * h // 4
                        cert, _ = locator._certify(lo, hi, prefix, signs, bits, eps_fix, tol_fix)
                        if cert is not None:
                            granted += 1
                            checked += self.check_points(cert, lo, hi, bits, prefix, eps, 1e-13)
        assert granted > 50
        assert checked > 1000

    @pytest.mark.parametrize("bits", [None, 40])
    def test_certificate_survives_the_worst_orbit_error(self, monkeypatch, bits):
        # The integer orbit at the Newton point may sit up to E_p units from
        # the exact one, either way.  With its gap replaced by the exact one
        # moved that far, the certificate must still keep the exact |G|
        # above tol + E_p + slack at and beyond a and b, with the certified
        # signs, so that the mpf orbit, itself within E_p, reads a gap
        # beyond tol there.  At 40 bits E_p outweighs tol.
        words = period_words(9) + random_mss_words(seed=7, count=30, pmin=10, pmax=40)
        calls = granted_certificates(monkeypatch, words)
        gap_slope = locator._gap_slope
        checked = 0
        for shift in (-1, 1):
            def shifted(r_fix, steps, grid):
                _, dx = gap_slope(r_fix, steps, grid)
                worst = int(mpmath.floor(exact_gap(r_fix, grid, steps))) + shift * (4**steps - 4) // 3
                return worst, dx

            monkeypatch.setattr(locator, "_gap_slope", shifted)
            for lo_fix, hi_fix, prefix, signs, grid, eps_fix, tol_fix in calls:
                if bits:
                    eps_fix, tol_fix = fixed_thresholds(1e-12, 1e-13, bits)
                    if regrid(lo_fix, hi_fix, grid, bits) is None:
                        continue
                    lo_fix, hi_fix = regrid(lo_fix, hi_fix, grid, bits)
                    grid = bits
                cert, _ = locator._certify(lo_fix, hi_fix, prefix, signs, grid, eps_fix, tol_fix)
                if cert is None:
                    continue
                a, b, below, _ = cert
                s = -below * signs[-1]  # the sign of dG/dr on the bracket
                need = tol_fix + (4 ** len(signs) - 1) // 3 + locator._FIXED_SLACK
                for m, side in ((lo_fix, -1), (a - 1, -1), (b, 1), (hi_fix, 1)):
                    if lo_fix <= m <= hi_fix and (m < a if side < 0 else m >= b):
                        assert side * s * exact_gap(m, grid, len(signs)) > need, (prefix, m)
                        checked += 1
        assert checked > 4 * len(words)

    def test_refuses_a_bracket_where_the_gap_turns(self):
        # For RC, G(r) = r^2/4 - r^3/16 - 1/2 peaks at r = 8/3: on [2.6, 3.6]
        # every parameter reads R at step 1, but G is not monotone.
        bits = 99
        args = ("R", sign_sequence("RR"), bits, *fixed_thresholds(1e-12, 1e-13, bits))
        lo, hi = (int(Fraction(v) * 2**bits) for v in (2.6, 3.6))
        assert locator._certify(lo, hi, *args)[0] is None
        lo, hi = (int(Fraction(v) * 2**bits) for v in (3.2, 3.27))
        cert, wait = locator._certify(lo, hi, *args)
        a, b, below, above = cert
        assert a / 2**bits < 1 + math.sqrt(5) < b / 2**bits
        assert (below, above) == (locator._BELOW, locator._ABOVE)
        assert wait == math.inf

    def test_refuses_once_the_orbit_bound_passes_the_unit(self):
        # Over [3, 4] the bound w passes the unit within a few steps of the
        # period-128 doubling word; the certificate is refused at once
        # instead of w squaring through the remaining steps.
        word = composite_power("RC", 7)
        bits = 300
        args = (word[:-1], sign_sequence(word[:-1] + "R"), bits,
                *fixed_thresholds(1e-12, 1e-13, bits))
        start = time.perf_counter()
        assert locator._certify(3 << bits, 4 << bits, *args) == (None, math.inf)
        assert time.perf_counter() - start < 0.5

    def test_certifies_below_53_bits(self, monkeypatch):
        # The certificate lives in the fixed-point stage's integers, so it
        # is granted below 53 bits too.
        calls = []
        certify = locator._certify

        def recorded(*args):
            calls.append(certify(*args))
            return calls[-1]

        monkeypatch.setattr(locator, "_certify", recorded)
        for word in period_words(8):
            try:
                locate(word, dps=9, tol=1e-9, eps=1e-9)
            except LocateError:
                pass
        assert sum(cert is not None for cert, _ in calls) > 30

    def test_probe_counts(self, monkeypatch):
        # Without the enclosure order_report(10) makes 5,655 fixed-point and
        # 116 mpf probes; the counts are pinned so that a certificate that
        # silently stops certifying, or a wait schedule that retries too
        # often, shows.
        counts = Counter()
        for name in ("_probe_fixed", "_probe", "_certify"):
            def counted(*args, _name=name, _probe=getattr(locator, name)):
                result = _probe(*args)
                counts[_name] += 1
                if _name == "_certify" and result[0] is not None:
                    counts["certified"] += 1
                return result

            monkeypatch.setattr(locator, name, counted)
        order_report(10)
        assert counts == {"_probe_fixed": 1428, "_probe": 116, "_certify": 128, "certified": 116}


def object_itinerary(r, steps, eps):
    """The critical itinerary in mpf object arithmetic, as an oracle."""
    half = r * 0 + 0.5
    x, word = half, ""
    for _ in range(steps):
        x = r * x * (1 - x)
        d = x - half
        word += "C" if abs(d) <= eps else "R" if d > 0 else "L"
    return word


def float64_itinerary(r, steps, eps):
    """The critical itinerary in float64 arithmetic, as an oracle."""
    x, word = 0.5, ""
    for _ in range(steps):
        x = r * x * (1 - x)
        d = x - 0.5
        word += "C" if abs(d) <= eps else "R" if d > 0 else "L"
    return word


class TestRawStage:
    """The mpf stage runs on raw libmp values with mpf's own bits."""

    def test_float_itinerary_matches_float64_arithmetic(self):
        rng = random.Random(20261018)
        params = [rng.uniform(0.01, 4.0) for _ in range(40)]
        params += [rng.uniform(3.5, 4.0) for _ in range(40)]
        params += [float(locate(w).r_star) for w in ("RLC", "RLRRRLRC", extremal(12))]
        params += [1, 2, 3, 4, 4.0, 2.0, 1e-300]
        epsilons = [0, 1e-12, 1e-6, 1e-3, 1, mpmath.mpf("1e-9"), mpmath.mpf(2) ** -40]
        for r in params:
            for eps in epsilons:
                expected = float64_itinerary(r, 300, eps)
                assert itinerary(r, 300, eps) == expected, (r, eps)
                assert itinerary(MapParam(r), 300, eps) == expected, (r, eps)

    @pytest.mark.parametrize("dps", [15, 30, 60, None])
    def test_itinerary_matches_object_arithmetic(self, dps):
        if dps is None:
            ctx = mpmath.mp
        else:
            ctx = mpmath.ctx_mp.MPContext()
            ctx.dps = dps
        words = ["RLC", "RLLRLC", "RLRRRLRC", extremal(12)]
        params = [ctx.mpf(locate(w).r_star) for w in words]
        params += [ctx.mpf(1) / 3 + 3, ctx.mpf("3.2"), ctx.mpf(4), ctx.mpf(2)]
        epsilons = [1e-12, 1e-6, 0, 1, ctx.mpf("1e-9"), mpmath.mpf(1e-3)]
        for r in params:
            for eps in epsilons:
                for steps in (1, 12, 40):
                    got = itinerary(r, steps, eps)
                    assert got == object_itinerary(r, steps, eps), (dps, r, eps, steps)

    @pytest.mark.parametrize(
        "kwargs",
        [{"tol": 1e-100}, {"dps": 18}, {"dps": 18, "eps": 0}, {"tol": 1e-100, "eps": 0}],
    )
    def test_identical_to_mpf_bisection_on_short_words(self, kwargs):
        for word in (w for p in range(2, 9) for w in enumerate_mss_structured(p).words()):
            self.check_against_oracle(word, **kwargs)

    @pytest.mark.parametrize("dps, tol", [(16, 1e-17), (18, 1e-20), (20, 1e-20)])
    def test_identical_when_the_bracket_outruns_the_precision(self, dps, tol):
        # Here some searches narrow the bracket below 2^-prec, where the
        # rounding of each mpf midpoint decides whether they converge.
        for word in (w for p in range(2, 10) for w in enumerate_mss_structured(p).words()):
            self.check_against_oracle(word, dps=dps, tol=tol)

    @pytest.mark.parametrize(
        "dps, tol, eps",
        [(2, 1e-2, 1e-2), (5, 1e-5, 1e-5), (9, 1e-9, 1e-9),
         (14, 1e-13, 1e-12), (15, 1e-13, 1e-12), (15, 1e-14, 1e-14)],
    )
    def test_identical_to_mpf_bisection_near_and_below_53_bits(self, dps, tol, eps):
        # Below 53 bits (dps <= 14) the mpf orbit is less accurate than
        # float64; the fixed-point stage's bound covers it at any precision.
        for word in (w for p in range(2, 11) for w in enumerate_mss_structured(p).words()):
            self.check_against_oracle(word, dps=dps, tol=tol, eps=eps)

    def test_low_precision_cases(self):
        found = locate("RLRRLRC", dps=2, tol=1e-2, eps=1e-2)
        assert (float(found.r_star), found.iterations) == (3.7734375, 7)
        assert locate("RLRRRC", dps=9, tol=1e-9, eps=1e-9).iterations == 29

    def test_stalled_bracket_stops_at_once(self, monkeypatch):
        # At dps=2 most searches narrow the bracket to one unit of the
        # working precision, where the midpoint rounds onto an end and every
        # later step would repeat the same mpf probe up to max_iter.  The
        # search stops at the first repeated midpoint with the same error.
        probes = []

        def counted(r, *args):
            probes.append(r)
            return _probe(r, *args)

        monkeypatch.setattr(locator, "_probe", counted)
        stalled = 0
        for word in (w for p in range(2, 11) for w in enumerate_mss_structured(p).words()):
            start = len(probes)
            try:
                locate(word, dps=2, tol=1e-2, eps=1e-2)
            except LocateError as err:
                stalled += 1
                assert str(err) == f"{word}: no convergence within 200 bisection steps"
            mids = probes[start:]
            assert all(a != b for a, b in zip(mids, mids[1:])), word
        assert stalled > 50
        assert len(probes) < 1500  # 20,476 when each stalled search ran to max_iter

    @staticmethod
    def check_against_oracle(word, **kwargs):
        args = default_args(len(word), kwargs.get("tol", 1e-13))
        expected = mpf_bisection(word, **{**args, **kwargs})
        if expected is None:
            with pytest.raises(LocateError, match="no convergence"):
                locate(word, **kwargs)
        else:
            assert _as_tuple(locate(word, **kwargs)) == expected, word

    def test_no_mpf_object_multiplications(self, monkeypatch):
        calls = []
        mul = _mpf.__mul__

        def counted(a, b):
            calls.append(b)
            return mul(a, b)

        monkeypatch.setattr(_mpf, "__mul__", counted)
        locate("RLRRRLRC")
        assert calls == []
        mpf(3) * mpf(2)  # the counter does see object arithmetic
        assert len(calls) == 1


class TestMidpoint:
    """The bracket's integer midpoint is the one mpf arithmetic rounds."""

    @pytest.mark.parametrize("prec", [7, 53, 103, 136, 1000])
    def test_matches_libmp(self, prec):
        # lo < hi on the 2^-g grid in [3, 4], g = prec - 2: seeded brackets,
        # one-unit brackets, and odd sums whose rounding ties go both ways
        g = prec - 2
        one = 1 << g
        rng = random.Random(prec)
        brackets = []
        for _ in range(400):
            lo = rng.randrange(3 * one, 4 * one)
            brackets.append((lo, rng.randrange(lo + 1, 4 * one + 1)))
        for lo in [3 * one, 4 * one - 1, 4 * one - 2] + [rng.randrange(3 * one, 4 * one)
                                                           for _ in range(20)]:
            brackets.append((lo, lo + 1))
        for width in (1, 3, 5, 2**(g // 2) + 1, one - 3):
            for lo in (3 * one, 3 * one + 1, 3 * one + 2, 3 * one + 3):
                brackets.append((lo, lo + width))
        ties = Counter()
        for lo, hi in brackets:
            assert 3 * one <= lo < hi <= 4 * one
            mid = locator._midpoint(lo, hi)
            raw = (from_man_exp(lo, -g), from_man_exp(hi, -g))
            want = mpf_shift(mpf_add(*raw, prec, round_nearest), -1)
            assert from_man_exp(mid, -g) == want, (prec, lo, hi)
            if (lo + hi) & 1:
                ties[(lo + hi) >> 1 & 1] += 1  # 1 when the tie rounds up
        assert ties[0] > 10 and ties[1] > 10


def libmp_orbit(r, prec):
    """Raw f^i(1/2) - 1/2 through libmp's mpf calls, rounded to nearest, as an oracle."""
    x = fhalf
    while True:
        x = mpf_mul(mpf_mul(r, x, prec, round_nearest), mpf_sub(fone, x, prec, round_nearest),
                    prec, round_nearest)
        yield mpf_sub(x, fhalf, prec, round_nearest)


def libmp_symbol(d, eps, prec):
    """Symbol of a raw distance ``d`` from 1/2 in libmp's comparisons, as an oracle."""
    if mpf_le(mpf_abs(d, prec, round_nearest), eps):
        return "C"
    return "L" if d[0] else "R"


def libmp_probe(r, prefix, signs, eps, prec):
    """:func:`_probe` on the libmp oracle orbit."""
    orbit = libmp_orbit(r, prec)
    for i, (want, d) in enumerate(zip(prefix, orbit)):
        got = libmp_symbol(d, eps, prec)
        if got == "C":
            return _BELOW, None
        if got != want:
            return -signs[i], None
    return _MATCHED, next(orbit)


def raw_params(prec, rng):
    """Raw mpf parameters in (3, 4] for an orbit at ``prec`` bits.

    Seeded values rounded to ``prec`` bits, r = 4 (where x reaches 1 and
    then 0), and two with 300-bit mantissas, which every first product
    rounds."""
    params = [mpf_pos(from_man_exp(3 * 2**(prec + 40) + rng.getrandbits(prec + 40) + 1,
                                   -(prec + 40)), prec, round_nearest) for _ in range(4)]
    params.append(from_float(4.0))
    params += [from_man_exp(3 * 2**300 + rng.getrandbits(300) + 1, -300) for _ in range(2)]
    return params


def _wide_third():
    ctx = mpmath.ctx_mp.MPContext()
    ctx.prec = 400
    return (ctx.mpf(1) / 3)._mpf_


# 0 as a float and as an int, 1 as an int, floats, and an mpf from a 400-bit context
FIXED_EPSILONS = [from_float(0.0), mpf.mpf_convert_rhs(0), mpf.mpf_convert_rhs(1),
                  from_float(1e-3), from_float(2.0**-30), _wide_third()]


def raw_epsilons(d):
    """Thresholds that exercise every comparison of a symbol read at ``d``:
    the fixed ones, and |d| itself, just above and just below it."""
    if not d[1]:
        return FIXED_EPSILONS
    _, man, exp, _ = d
    return FIXED_EPSILONS + [from_man_exp(man, exp), from_man_exp(2 * man + 1, exp - 1),
                             from_man_exp(2 * man - 1, exp - 1)]


class TestIntegerOrbit:
    """The integer orbit and its symbols are libmp's mpf calls, bit for bit."""

    PRECISIONS = list(range(2, 131)) + [333, 1100]

    @staticmethod
    def check_orbit(r, prec, steps=64):
        """Compare ``steps`` orbit values and their symbols with the libmp oracle."""
        got = locator._orbit(r, prec)
        for i, d in zip(range(steps), libmp_orbit(r, prec)):
            m, e = next(got)
            assert from_man_exp(m, e) == d, (prec, r, i)
            for eps in raw_epsilons(d) if i % 5 == 0 else FIXED_EPSILONS[:1]:
                _, eps_m, eps_e, _ = eps
                assert locator._symbol(m, e, eps_m, eps_e) == libmp_symbol(d, eps, prec), (
                    prec, r, i, eps)

    def test_matches_libmp_at_every_precision(self):
        rng = random.Random(20261019)
        for prec in self.PRECISIONS:
            for r in raw_params(prec, rng):
                self.check_orbit(r, prec)

    def test_reaches_zero_at_four(self):
        # x = 1 at step 1 and 0 from then on, at every precision
        for prec in self.PRECISIONS:
            orbit = itertools.islice(locator._orbit(from_float(4.0), prec), 64)
            assert [from_man_exp(m, e) for m, e in orbit] == [fhalf] + [from_float(-0.5)] * 63

    def test_dead_band_at_the_exact_distance(self):
        # |d| equal to eps reads C and the next value up or down decides it
        rng = random.Random(7)
        for prec in (2, 3, 24, 53, 54, 113):
            r = raw_params(prec, rng)[0]
            orbit = itertools.islice(locator._orbit(r, prec), 20)
            for (m, e), d in zip(orbit, libmp_orbit(r, prec)):
                _, man, exp, _ = d
                assert locator._symbol(m, e, man, exp) == "C"
                assert locator._symbol(m, e, 2 * man - 1, exp - 1) in "RL"
                assert locator._symbol(m, e, 2 * man + 1, exp - 1) == "C"

    @pytest.mark.parametrize("kwargs, least", [
        ({}, 100), ({"eps": 0}, 100), ({"dps": 9, "tol": 1e-9, "eps": 1e-9}, 100),
        ({"tol": 1e-3, "eps": 1e-5}, 30), ({"dps": 2, "tol": 1e-2, "eps": 1e-2}, 5),
    ])
    def test_probe_matches_libmp_at_search_midpoints(self, monkeypatch, kwargs, least):
        # Every bracket midpoint a real search visits, whichever stage
        # decides it, probed at the search's precision: verdicts, and each
        # closing gap as a raw tuple.
        mids = []
        replay = locator._replay
        monkeypatch.setattr(locator, "_replay",
                            lambda cert, mid: mids.append(mid) or replay(cert, mid))
        probe_fixed = locator._probe_fixed
        monkeypatch.setattr(locator, "_probe_fixed",
                            lambda mid, *args: mids.append(mid) or probe_fixed(mid, *args))
        words = ["RLC", "RLRRRLRC", extremal(12), "RLRRRRRRLRLRRRC", extremal(30)]
        matched = 0
        for word in words:
            ctx = mpmath.ctx_mp.MPContext()
            ctx.dps = kwargs.get("dps") or default_args(len(word), kwargs.get("tol", 1e-13))["dps"]
            del mids[:]
            try:
                locate(word, **kwargs)
            except LocateError:
                pass
            prefix, signs = word[:-1], sign_sequence(word[:-1] + "R")
            eps = mpf_pos(from_float(kwargs.get("eps", 1e-12)), ctx.prec, round_nearest)
            raws = [from_man_exp(mid, 2 - ctx.prec) for mid in mids]  # the 2^-(prec - 2) grid
            for r in raws:
                got = _probe(r, prefix, signs, eps, ctx.prec)
                assert got == libmp_probe(r, prefix, signs, eps, ctx.prec), (word, r)
                matched += got[0] == _MATCHED
            for r in raws[::9]:
                self.check_orbit(r, ctx.prec)
        assert matched > least  # probes that read a closing gap

    @pytest.mark.parametrize("prec", [2, 7, 24, 53, 100, 333])
    def test_itinerary_matches_libmp(self, prec):
        # an mpf parameter at its context's precision, with one longer
        # mantissa than that precision, and eps of every accepted type
        ctx = mpmath.ctx_mp.MPContext()
        ctx.prec = prec
        wide = mpmath.ctx_mp.MPContext()
        wide.prec = 400
        rng = random.Random(prec)
        params = [ctx.mpf(3) + ctx.mpf(rng.random()) for _ in range(5)] + [ctx.mpf(4)]
        long = ctx.make_mpf(raw_params(prec, rng)[-1])
        for r in params + [long]:
            orbit = libmp_orbit(r._mpf_, prec)
            distances = [next(orbit) for _ in range(70)]
            at = mpf_abs(distances[9])  # |d| itself, as a float when it fits in one
            exact = [ctx.make_mpf(at)] + ([to_float(at)] if prec <= 53 else [])
            for eps in [0, 1, 1e-3, wide.mpf(1) / 10**6] + exact:
                eps_raw = mpf.mpf_convert_rhs(eps)
                want = "".join(libmp_symbol(d, eps_raw, prec) for d in distances)
                assert itinerary(r, 70, eps) == want, (prec, r, eps)
