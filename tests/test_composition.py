"""Composition law, factorization, primality, and the composite shape tests."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import msskit
from msskit import (
    NotMssError,
    Parity,
    ShapeError,
    check_stem_shape,
    compose,
    compress_exponents,
    expand_exponents,
    factor_all,
    factor_interleaved_core,
    factor_once,
    factor_tree,
    is_primary,
    is_shift_maximal,
    r_parity,
)

from conftest import all_candidates, brute_shift_maximal

# The worked large composite: RL^4 (RL^3 R)^2 (RL^4)^3 RL^3 R RL^3 C.
BIG = expand_exponents("RL^4RL^3RRL^3RRL^4RL^4RL^4RL^3RRL^3C")
BIG_INNER = "RLLLC"
BIG_OUTER = "RLLRRRLC"


class TestRParity:
    @pytest.mark.parametrize(
        "word,expect",
        [("RC", Parity.ODD), ("RLC", Parity.ODD), ("RLRC", Parity.EVEN)],
    )
    def test_examples(self, word, expect):
        assert r_parity(word) is expect


class TestCompose:
    def test_doubling(self):
        assert compose("RC", "RC").symbols == "RLRC"

    def test_odd_parity_flips(self):
        assert compose("RLC", "RLC").symbols == "RLLRLRRLC"

    def test_even_parity_copies(self):
        # RLRC carries two Rs, so the outer letters pass through unflipped;
        # this is the period-doubling step RLRC -> RLRRRLRC.
        assert compose("RLRC", "RC").symbols == "RLRRRLRC"

    def test_big_example(self):
        assert compose(BIG_INNER, BIG_OUTER).symbols == BIG

    def test_length_multiplies(self):
        for a in ["RC", "RLC", "RLLC", "RLRC"]:
            for b in ["RC", "RLC", "RLLRC"]:
                assert compose(a, b).period == len(a) * len(b)

    def test_closure_under_composition(self, brute_mss_by_period):
        for pa, pb in itertools.product(range(2, 7), repeat=2):
            if pa * pb > 24:
                continue
            for a in brute_mss_by_period[pa]:
                for b in brute_mss_by_period[pb]:
                    assert is_shift_maximal(compose(a, b))

    _POOL = [
        "RC", "RLC", "RLRC", "RLLC", "RLLRC", "RLLLC", "RLRRC",
        "RLLRLC", "RLLRRC", "RLLLRC", "RLLLLC", "RLRRRC",
    ]

    @given(st.sampled_from(_POOL), st.sampled_from(_POOL))
    def test_sampled_roundtrip_property(self, a, b):
        composed = compose(a, b)
        assert composed.period == len(a) * len(b)
        assert is_shift_maximal(composed)
        split = factor_once(composed)
        assert split is not None
        assert compose(*split).symbols == composed.symbols


class TestFactor:
    def test_examples(self):
        assert factor_once("RLC") is None
        inner, outer = factor_once("RLRC")
        assert (inner.symbols, outer.symbols) == ("RC", "RC")

    def test_big_example(self):
        inner, outer = factor_once(BIG)
        assert inner.symbols == BIG_INNER
        assert outer.symbols == BIG_OUTER

    def test_requires_mss(self):
        with pytest.raises(NotMssError):
            factor_once("RRC")

    def test_roundtrip_exhaustive(self, brute_mss_by_period):
        for pa, pb in itertools.product(range(2, 13), repeat=2):
            if pa * pb > 24 or pb > 14 or pa > 14:
                continue
            for a in brute_mss_by_period[pa]:
                for b in brute_mss_by_period[pb]:
                    composed = compose(a, b)
                    split = factor_once(composed)
                    assert split is not None
                    assert compose(*split).symbols == composed.symbols

    def test_factor_all_contains_factor_once(self):
        word = compose("RLC", compose("RC", "RC")).symbols
        first = factor_once(word)
        assert first in factor_all(word)
        # associativity gives a second alignment for this triple product
        assert len(factor_all(word)) == 2


class TestPrimality:
    @pytest.mark.parametrize(
        "word,expect",
        [("RLLC", True), ("RLRC", False), ("RLLRLC", False), ("RC", True), ("RLC", True)],
    )
    def test_examples(self, word, expect):
        assert is_primary(word) is expect

    def test_rllrlc_factors_as_expected(self):
        assert compose("RLC", "RC").symbols == "RLLRLC"

    def test_agreement_with_divisor_scan(self, brute_mss_by_period):
        # Definitional cross-check: primality == no divisor alignment works.
        for p in range(2, 15):
            for word in brute_mss_by_period[p]:
                assert is_primary(word) == (factor_all(word) == [])


class TestFactorTree:
    def test_leaf(self):
        tree = factor_tree("RLC")
        assert tree.is_leaf and tree.leaves()[0].symbols == "RLC"

    def test_two_level(self):
        tree = factor_tree("RLRC")
        assert not tree.is_leaf
        assert [x.symbols for x in tree.leaves()] == ["RC", "RC"]

    def test_three_leaves(self):
        word = compose("RLRC", "RC")
        tree = factor_tree(word)
        assert [x.symbols for x in tree.leaves()] == ["RC", "RC", "RC"]
        inner, outer = tree.children
        assert compose(inner.node, outer.node).symbols == word.symbols

    def test_all_leaves_primary(self, brute_mss_by_period):
        for word in brute_mss_by_period[12]:
            for leaf in factor_tree(word).leaves():
                assert is_primary(leaf)

    def test_proves_its_input_once(self, monkeypatch):
        # The factors below the root come from _split_at, which has proven
        # them shift-maximal; only the input itself is tested again.
        from msskit import composition

        calls = []
        monkeypatch.setattr(composition, "is_shift_maximal",
                            lambda s: calls.append(s) or is_shift_maximal(s))
        tree = factor_tree(compose("RLC", compose("RC", "RC")))
        assert len(tree.leaves()) == 3
        assert [s.symbols for s in calls] == [tree.node.symbols]
        with pytest.raises(NotMssError):
            factor_tree("RRC")

    def test_node_products(self):
        def walk(tree):
            if tree.children is None:
                return
            left, right = tree.children
            assert compose(left.node, right.node).symbols == tree.node.symbols
            assert len(tree.node) == len(left.node) * len(right.node)
            walk(left)
            walk(right)

        walk(factor_tree(compose("RLC", compose("RC", "RC"))))

    def test_to_dict(self):
        leaf = {"sequence": "RC", "children": None}
        assert factor_tree("RLRRRLRC").to_dict() == {
            "sequence": "RLRRRLRC",
            "children": [leaf, {"sequence": "RLRC", "children": [leaf, leaf]}],
        }

    def test_to_dict_renders_every_node(self):
        def walk(tree, node):
            assert node["sequence"] == compress_exponents(tree.node.symbols)
            if tree.children is None:
                assert node["children"] is None
            else:
                assert len(node["children"]) == 2
                for child, sub in zip(tree.children, node["children"]):
                    walk(child, sub)

        for word in (BIG, "RLRRRLRC", compose("RLLC", compose("RLC", "RC"))):
            tree = factor_tree(word)
            walk(tree, tree.to_dict(lambda s: compress_exponents(s.symbols)))


class TestStemShape:
    def test_letter_extended_blocks_hit(self):
        # Interior blocks extend the final block "R" by L then R.
        assert check_stem_shape("RLLRLRLLRRRLLRC") is True

    def test_r1_is_not_a_hit(self):
        assert check_stem_shape("RLC") is False
        assert check_stem_shape("RLLRLC") is False  # single group after parsing

    def test_stem_ending_in_head_tail_stays_hidden(self):
        # When the inner block ends in R L^(q-1), composing welds doubled
        # head groups into the result, so the uniform stem pattern never
        # shows; the appended L would stretch the stem's final run past the
        # block bound.
        inner = "RLLRRLC"  # q = 2 block "RRL" ending in RL
        composite = compose(inner, "RLRC")
        assert not is_primary(composite)
        assert check_stem_shape(composite) is False
        from msskit import block_decompose

        assert any(n >= 2 for n, _ in block_decompose(composite).runs)

    def test_soundness_on_mss(self):
        from msskit import enumerate_mss_structured

        hits = 0
        for p in range(2, 17):
            for seq in enumerate_mss_structured(p):
                if check_stem_shape(seq):
                    hits += 1
                    assert not is_primary(seq), seq
        assert hits >= 1  # the pattern does occur in range

    def test_detects_odd_parity_composites(self):
        # inner RLLRRC has odd R-parity: composing flips, producing the
        # L-then-R letter pattern the shape test looks for.
        inner = "RLLRRC"
        composite = compose(inner, "RLC")
        assert check_stem_shape(composite) is True
        assert not is_primary(composite)


class TestInterleavedCore:
    def test_big_example(self):
        inner, outer = factor_interleaved_core(BIG)
        assert inner.symbols == "RLLLC"
        assert outer.symbols == BIG_OUTER

    def test_q2_example(self):
        word = expand_exponents("RL^2RLRRL^2RLC")
        inner, outer = factor_interleaved_core(word)
        assert inner.symbols == "RLC"
        assert compose(inner, outer).symbols == word

    def test_rejects_unbalanced_exponents(self):
        # A later R-unit group longer than the first makes the outer factor
        # inadmissible, so the shape must raise.
        core = "RL"
        word = "RLL" + "".join(core + c for c in "RLRRL") + core + "C"
        with pytest.raises(ShapeError):
            factor_interleaved_core(word)

    def test_rejects_plain_words(self):
        for word in ["RLRRRC", "RLC", "RLLC", "RLLRLC"]:
            with pytest.raises(ShapeError):
                factor_interleaved_core(word)

    def test_soundness_on_mss(self):
        from msskit import enumerate_mss_structured

        hits = 0
        for p in range(2, 17):
            for seq in enumerate_mss_structured(p):
                try:
                    inner, outer = factor_interleaved_core(seq)
                except ShapeError:
                    continue
                hits += 1
                assert not is_primary(seq)
                assert compose(inner, outer).symbols == seq.symbols
        assert hits >= 1

    def test_core_grid_at_head_run_one(self):
        # With q = 1 the core is R alone, so a word closed by a letter R
        # rather than by a core still ends in "RC"; the grid must refuse it.
        with pytest.raises(ShapeError):
            factor_interleaved_core("RLRRRLRRC")

    def test_every_r_leading_word_raises_or_recomposes(self):
        factored = 0
        for p in range(2, 15):
            for word in all_candidates(p):
                try:
                    inner, outer = factor_interleaved_core(word)
                except ShapeError:
                    continue
                factored += 1
                assert compose(inner, outer).symbols == word
        assert factored >= 1

    def test_results_hold_without_asserts(self):
        # Under -O the asserts in the package are stripped, so the same
        # checks run in a fresh interpreter and report what they find
        # instead of asserting it.
        src = str(Path(msskit.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _CHECKS_UNDER_O],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "2047", "11", "0", "0"]


_CHECKS_UNDER_O = """
import itertools
from msskit import ShapeError, block_decompose, compose, factor_interleaved_core
from msskit.errors import RunLengthError

words = ["R" + "".join(t) + "C" for p in range(2, 13) for t in itertools.product("RL", repeat=p - 2)]
factored = bad_factor = bad_form = 0
for word in words:
    try:
        inner, outer = factor_interleaved_core(word)
        factored += 1
        bad_factor += compose(inner, outer).symbols != word
    except ShapeError:
        pass
    try:
        bad_form += block_decompose(word).reassemble().symbols != word
    except RunLengthError:
        pass
print(__debug__, len(words), factored, bad_factor, bad_form)
"""


# The letter loops that the join-built composition replaced, kept here as
# oracles for it; shift-maximality comes from the definitional oracle.
_FLIP = {"R": "L", "L": "R"}


def loop_compose(inner, outer):
    stem = inner[:-1]
    flip = inner.count("R") % 2 == 1
    parts = []
    for y in outer[:-1]:
        parts.append(stem)
        parts.append(_FLIP[y] if flip else y)
    parts.append(stem)
    parts.append("C")
    return "".join(parts)


def loop_split_at(word, h):
    s = len(word) // h
    stem = word[: h - 1]
    for j in range(1, s):
        if word[j * h : (j + 1) * h - 1] != stem:
            return None
    inner = stem + "C"
    if not brute_shift_maximal(inner):
        return None
    flip = inner.count("R") % 2 == 1
    letters = [word[(j + 1) * h - 1] for j in range(s - 1)]
    outer = "".join(_FLIP[z] if flip else z for z in letters) + "C"
    if not brute_shift_maximal(outer):
        return None
    return inner, outer


class TestKernelsMatchLoops:
    @staticmethod
    def check(a, b):
        from msskit.composition import _split_at

        word = compose(a, b).symbols
        assert word == loop_compose(a, b), (a, b)
        for h in range(2, len(word)):
            if len(word) % h == 0:
                assert _split_at(word, h) == loop_split_at(word, h), (word, h)

    def test_every_pair_to_period_24(self, brute_mss_by_period):
        for pa, pb in itertools.product(range(2, 13), repeat=2):
            if pa * pb <= 24:
                for a in brute_mss_by_period[pa]:
                    for b in brute_mss_by_period[pb]:
                        self.check(a, b)

    def test_seeded_composites_to_period_48(self, brute_mss_by_period):
        import random

        rng = random.Random(48)
        pairs = [(pa, pb) for pa in range(2, 9) for pb in range(2, 15) if 24 < pa * pb <= 48]
        for _ in range(400):
            pa, pb = rng.choice(pairs)
            self.check(rng.choice(brute_mss_by_period[pa]), rng.choice(brute_mss_by_period[pb]))

    def test_split_at_on_words_that_are_not_composites(self, brute_mss_by_period):
        from msskit.composition import _split_at

        for p in (12, 14):
            for word in brute_mss_by_period[p]:
                for h in range(2, p):
                    if p % h == 0:
                        assert _split_at(word, h) == loop_split_at(word, h), (word, h)
