"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s or read the
captured output).  Tolerances and ranges are pinned here, not configurable.
"""

import itertools
import math
import time

from msskit import (
    compose,
    count_blocks,
    count_nonprimary_single_group,
    count_nonprimary_cores,
    derive_later_blocks,
    divisor_set,
    enumerate_blocks,
    enumerate_mss_bruteforce,
    enumerate_mss_structured,
    factor_all,
    factor_once,
    is_primary,
    is_shift_maximal,
    is_shift_maximal_signs,
    locate,
    order_report,
    parity_lex_cmp,
    parse_sequence,
)
from msskit.counting import enumerated_core_factors
from msskit.structure import block_decompose, is_mss_structured

from conftest import all_candidates, brute_blocks


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_three_route_equivalence():
    """Structured test == direct test == sign-level test, all candidates p<=16."""
    t0 = time.time()
    checked = 0
    disagreements = []
    for p in range(2, 17):
        for word in all_candidates(p):
            checked += 1
            a = is_shift_maximal(word)
            b = is_shift_maximal_signs(word)
            c = is_mss_structured(word).is_mss
            if not (a == b == c):
                disagreements.append(word)
    elapsed = time.time() - t0
    report(
        1,
        not disagreements,
        f"{checked} candidates p<=16, {len(disagreements)} disagreements, {elapsed:.1f}s",
    )


def test_criterion_2_construction_completeness():
    """Structured enumeration set-equals brute force for 2 <= p <= 16."""
    t0 = time.time()
    bad = []
    total = 0
    for p in range(2, 17):
        structured = enumerate_mss_structured(p).words()
        brute = enumerate_mss_bruteforce(p).words()
        total += len(brute)
        if structured != brute:
            bad.append((p, len(set(structured) ^ set(brute))))
    elapsed = time.time() - t0
    report(2, not bad, f"{total} sequences over p=2..16, mismatches {bad}, {elapsed:.1f}s")


def test_criterion_3_worked_factorization_regression():
    """The big interleaved composite factors exactly and recomposes bit-exactly."""
    big = parse_sequence("RL^4RL^3RRL^3RRL^4RL^4RL^4RL^3RRL^3C")
    split = factor_once(big)
    ok = split is not None
    if ok:
        inner, outer = split
        ok = (
            inner.symbols == "RLLLC"
            and outer.symbols == "RLLRRRLC"
            and compose(inner, outer).symbols == big.symbols
        )
    report(3, ok, f"factor_once({big.compressed()}) -> {split}")


def test_criterion_4_single_group_family():
    """Single-group non-primary sequences are exactly the core * tail family,
    each factoring that one way only, with |divisors(p)| - 2 of them, p <= 16."""
    bad = []
    for p in range(2, 17):
        singles = [
            s.symbols
            for s in enumerate_mss_structured(p)
            if block_decompose(s).group_count == 1 and block_decompose(s).runs[0][0] == 1
        ]
        nonprimary = {w for w in singles if not is_primary(w)}
        family = set()
        for d in divisor_set(p).divisors:
            if d in (1, p):
                continue
            q = d - 1
            inner = "R" + "L" * (q - 1) + "C" if q >= 2 else "RC"
            outer = "R" + "L" * (p // d - 2) + "C" if p // d >= 3 else "RC"
            family.add(compose(inner, outer).symbols)
        expected_count = count_nonprimary_single_group(p)
        unique = all(len(factor_all(w)) == 1 for w in nonprimary)
        if nonprimary != family or len(nonprimary) != expected_count or not unique:
            bad.append(p)
    report(
        4,
        not bad,
        f"family identity, uniqueness and |divisors|-2 count, p=2..16, failures {bad}",
    )


def test_criterion_5_block_count_formula():
    """count_blocks equals the brute-force filter for all m <= 14, run <= 6."""
    t0 = time.time()
    bad = [
        (m, run)
        for m in range(0, 15)
        for run in range(0, 7)
        if count_blocks(m, run) != len(brute_blocks(m, run))
    ]
    ok = not bad and count_blocks(4, 2) == 7
    report(5, ok, f"m<=14, run<=6, mismatches {bad}, {time.time()-t0:.2f}s")


def test_criterion_6_core_count_double_sum():
    """The divisor/head-run double sum equals the number of distinct
    single-group inner factors observed when factoring all of period p."""
    bad = []
    for p in range(4, 17):
        formula = count_nonprimary_cores(p)
        observed = len(enumerated_core_factors(enumerate_mss_structured(p)))
        if formula != observed:
            bad.append((p, formula, observed))
    report(6, not bad, f"p=4..16 under the zero-length-block convention, mismatches {bad}")


def test_criterion_7_compose_factor_roundtrip():
    """factor_once(compose(a, b)) recomposes, and composites stay shift-maximal."""
    by_period = {p: enumerate_mss_structured(p).words() for p in range(2, 13)}
    pairs = 0
    failures = 0
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
    report(7, failures == 0, f"{pairs} pairs with |a|*|b| <= 24, {failures} failures")


def test_criterion_8_order_isomorphism():
    """All 37 parameters of periods 2..8 located below 1e-13 residual, ordered
    like the symbolic order with gaps above 1e-6; spot values pinned."""
    t0 = time.time()
    rows = order_report(8, tol=1e-13)
    ok = len(rows) == 37
    detail = [f"{len(rows)} sequences"]
    if ok:
        residual_bad = [r.sequence for r in rows if not r.residual < 1e-13]
        gaps = [float(b.r_star - a.r_star) for a, b in zip(rows, rows[1:])]
        order_ok = all(g > 0 for g in gaps) and min(gaps) > 1e-6
        lex_ok = all(
            parity_lex_cmp(a.sequence, b.sequence) < 0 for a, b in zip(rows, rows[1:])
        )
        rc = locate("RC")
        rc_ok = abs(float(rc.r_star) - (1 + math.sqrt(5))) < 1e-10
        rlc = locate("RLC")
        rlc_ok = 3.8318 < rlc.r_star < 3.8319
        ok = not residual_bad and order_ok and lex_ok and rc_ok and rlc_ok
        detail.append(f"min gap {min(gaps):.2e}")
        detail.append(f"residual violations {residual_bad}")
        detail.append(f"rc_ok={rc_ok} rlc_ok={rlc_ok}")
    detail.append(f"{time.time()-t0:.1f}s")
    report(8, ok, ", ".join(detail))


def test_criterion_9_derived_block_soundness_and_completeness():
    """Assembled candidates from derived blocks never fool the structured
    test (p<=14), and every divergent later block seen in real sequences is
    derivable; a miss would be a completeness deviation, reported as such."""
    soundness_failures = []
    assembled = 0
    for q in (1, 2, 3):
        head = "R" + "L" * q
        for m1 in range(1, 4):
            for first in enumerate_blocks(m1, q - 1):
                budget = 14 - 2 * (q + 1) - m1 - 1
                if budget < 1:
                    continue
                for later in derive_later_blocks(q, first, budget):
                    word = head + first + head + later + "C"
                    if len(word) > 14:
                        continue
                    assembled += 1
                    if is_mss_structured(word).is_mss and not is_shift_maximal(word):
                        soundness_failures.append(word)

    completeness_deviations = []
    checked = 0
    for p in range(4, 15):
        for seq in enumerate_mss_bruteforce(p):
            form = block_decompose(seq)
            if form.group_count < 2:
                continue
            first = form.runs[0][1]
            template = first + "R" + "L" * form.q
            derived = None
            for _, block in form.runs[1:]:
                if block == "" or block == template[: len(block)]:
                    continue  # continuation of the template, outside the generator
                checked += 1
                if derived is None:
                    longest = max(len(s) for _, s in form.runs[1:])
                    derived = set(derive_later_blocks(form.q, first, longest))
                if block not in derived:
                    completeness_deviations.append((seq.symbols, first, block))

    ok = not soundness_failures and not completeness_deviations
    detail = (
        f"{assembled} assembled candidates, {len(soundness_failures)} unsound; "
        f"{checked} observed later blocks, "
        f"COMPLETENESS-DEVIATIONS={completeness_deviations[:5]}"
    )
    report(9, ok, detail)
