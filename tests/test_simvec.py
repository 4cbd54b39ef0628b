"""Tests for the bit-parallel simulation kernel (repro.aig.simvec).

Every word the kernel computes is checked against the scalar
:meth:`AIG.evaluate`, one pattern at a time: the bit-parallel path must be
a pure speed-up of the scalar semantics on every batch width, including
widths that are not a multiple of a machine word (bits above the mask must
stay clear, complemented literals included).  The :class:`PatternSet`
bookkeeping (per-node seeding, refinement columns, extraction) and the two
consumers of the words — signatures and assignment minimization — are
covered on random cones.
"""

import random

import pytest

from repro.aig.aig import AIG, FALSE, TRUE
from repro.aig.simvec import (
    DEFAULT_SEED,
    PatternSet,
    first_satisfying_index,
    minimize_assignment,
    node_signatures,
)

from test_preprocess import _random_cone


def _random_words(rng, aig, roots, num_patterns):
    return {
        node: rng.getrandbits(num_patterns)
        for node in aig.cone_nodes(roots)
        if aig.is_input(node)
    }


def _scalar_bit(aig, literal, words, index):
    assignment = {node: (word >> index) & 1 for node, word in words.items()}
    return aig.evaluate([literal], assignment)[0]


class TestWordKernel:
    # Widths straddle one machine word (64) and include unaligned counts,
    # where complemented literals must not set bits above the mask.
    @pytest.mark.parametrize("num_patterns", [1, 63, 64, 65, 256, 1000])
    def test_words_match_scalar_evaluation(self, num_patterns):
        rng = random.Random(num_patterns)
        mask = (1 << num_patterns) - 1
        for _trial in range(4):
            aig, root = _random_cone(rng, num_inputs=5, num_gates=30)
            words = _random_words(rng, aig, [root], num_patterns)
            values = aig.evaluate_word_values([root], words, mask)
            for node, word in values.items():
                assert word & ~mask == 0
            (word,) = aig.evaluate_words([root], words, mask)
            assert word & ~mask == 0
            for index in range(0, num_patterns, max(1, num_patterns // 97)):
                assert (word >> index) & 1 == _scalar_bit(aig, root, words, index)

    def test_complemented_roots_partition_the_mask(self):
        rng = random.Random(7)
        num_patterns = 300
        mask = (1 << num_patterns) - 1
        aig, root = _random_cone(rng, num_inputs=6, num_gates=40)
        words = _random_words(rng, aig, [root], num_patterns)
        positive, negative = aig.evaluate_words([root, root ^ 1], words, mask)
        assert positive ^ negative == mask
        assert positive & negative == 0

    def test_constant_and_input_roots(self):
        aig = AIG()
        i0 = aig.add_input("i0")
        num_patterns = 200
        mask = (1 << num_patterns) - 1
        word = random.Random(3).getrandbits(num_patterns)
        assert aig.evaluate_words([FALSE, TRUE, i0, i0 ^ 1], {i0 >> 1: word}, mask) == [
            0,
            mask,
            word,
            word ^ mask,
        ]

    def test_precomputed_cone_gives_the_same_words(self):
        rng = random.Random(19)
        aig, root = _random_cone(rng, num_inputs=6, num_gates=50)
        mask = (1 << 128) - 1
        words = _random_words(rng, aig, [root], 128)
        cone = aig.cone_nodes([root])
        assert aig.evaluate_words([root], words, mask, cone=cone) == (
            aig.evaluate_words([root], words, mask)
        )


class TestPatternSet:
    def test_rejects_an_empty_batch(self):
        with pytest.raises(ValueError, match=">= 1 patterns"):
            PatternSet(0)

    @pytest.mark.parametrize("num_patterns", [1, 65, 512])
    def test_evaluate_matches_scalar_evaluation(self, num_patterns):
        rng = random.Random(num_patterns)
        aig, root = _random_cone(rng, num_inputs=6, num_gates=40)
        patterns = PatternSet(num_patterns)
        (word,) = patterns.evaluate(aig, [root])
        assert word & ~patterns.mask == 0
        for index in range(num_patterns):
            assignment = patterns.extract(aig, [root], index)
            assert (word >> index) & 1 == aig.evaluate([root], assignment)[0]

    def test_words_extend_over_a_growing_aig(self):
        rng = random.Random(11)
        aig, root = _random_cone(rng, num_inputs=4, num_gates=15)
        patterns = PatternSet(128)
        (first,) = patterns.evaluate(aig, [root])
        tracked = dict(patterns.words)
        # Grow the same AIG with fresh inputs and gates: words of the inputs
        # already tracked must not move, and the new cone is covered.
        extra = [aig.add_input(f"j{k}") for k in range(2)]
        grown = aig.and_(root, aig.or_(extra[0], extra[1]))
        first_again, second = patterns.evaluate(aig, [root, grown])
        assert first_again == first
        assert {node: patterns.words[node] for node in tracked} == tracked
        assert set(patterns.words) >= {literal >> 1 for literal in extra}
        for index in range(0, 128, 7):
            assignment = patterns.extract(aig, [grown], index)
            assert (second >> index) & 1 == aig.evaluate([grown], assignment)[0]

    def test_words_depend_on_the_seed_only(self):
        aig = AIG()
        inputs = [aig.add_input(f"i{k}") for k in range(8)]
        root = aig.and_many(inputs)
        same = [PatternSet(64, seed=DEFAULT_SEED) for _ in range(2)]
        other = PatternSet(64, seed=DEFAULT_SEED + 1)
        for patterns in same + [other]:
            patterns.ensure_inputs(aig, [root])
        assert same[0].words == same[1].words
        assert other.words != same[0].words

    def test_refinement_columns_recycle_after_the_cap(self):
        aig = AIG()
        a = aig.add_input("a")
        patterns = PatternSet(4, max_refinements=2)
        patterns.ensure_inputs(aig, [a])
        slots = [patterns.add_pattern({a >> 1: value}) for value in (1, 0, 1)]
        assert slots == [4, 5, 4]
        assert patterns.num_patterns == 6
        # The recycled slot holds the newest pattern's bit.
        assert (patterns.words[a >> 1] >> 4) & 1 == 1
        assert (patterns.words[a >> 1] >> 5) & 1 == 0

    def test_refinement_column_defaults_unnamed_inputs_to_zero(self):
        aig = AIG()
        a = aig.add_input("a")
        b = aig.add_input("b")
        patterns = PatternSet(8)
        patterns.ensure_inputs(aig, [aig.and_(a, b)])
        slot = patterns.add_pattern({a >> 1: 1})
        assert patterns.extract(aig, [aig.and_(a, b)], slot) == {
            a >> 1: 1,
            b >> 1: 0,
        }


class TestFirstSatisfyingIndex:
    def test_lowest_pattern_where_every_goal_holds(self):
        assert first_satisfying_index([0b1101_0000, 0b0111_0000], 0xFF) == 4
        assert first_satisfying_index([0b1100, 0b0110, 0b1111], 0xF) == 2

    def test_no_common_pattern_is_none(self):
        assert first_satisfying_index([0b1010, 0b0101], 0xF) is None

    def test_bits_above_the_mask_never_count(self):
        assert first_satisfying_index([0b1_0000], 0xF) is None
        # No goals at all: every pattern satisfies the empty conjunction.
        assert first_satisfying_index([], 0xF) == 0


class TestSignaturesAndMinimization:
    def test_signatures_are_the_words_of_every_cone_node(self):
        rng = random.Random(29)
        aig, root = _random_cone(rng, num_inputs=6, num_gates=40)
        patterns = PatternSet(96)
        signatures = node_signatures(aig, [root], patterns)
        cone = aig.cone_nodes([root])
        assert set(cone) <= set(signatures)
        for node in cone:
            assert signatures[node] == patterns.evaluate(aig, [node << 1])[0]

    @pytest.mark.parametrize("seed", [23, 31, 37])
    def test_minimized_assignment_still_satisfies_the_goal(self, seed):
        rng = random.Random(seed)
        aig, root = _random_cone(rng, num_inputs=8, num_gates=50)
        patterns = PatternSet(64)
        goal = next(
            literal for literal in (root, root ^ 1) if patterns.evaluate(aig, [literal])[0]
        )
        index = first_satisfying_index(patterns.evaluate(aig, [goal]), patterns.mask)
        assignment = patterns.extract(aig, [goal], index)
        minimized = minimize_assignment(aig, [goal], assignment)
        assert aig.evaluate([goal], minimized) == [1]
        # Only set bits are cleared, and the pass is deterministic.
        assert set(minimized) == set(assignment)
        assert all(minimized[node] <= assignment[node] for node in assignment)
        assert minimize_assignment(aig, [goal], assignment) == minimized

    def test_minimization_keeps_exactly_the_bits_a_conjunction_needs(self):
        aig = AIG()
        a, b, c, d = (aig.add_input(name) for name in "abcd")
        goal = aig.and_(a, aig.or_(b, c))
        assignment = {a >> 1: 1, b >> 1: 1, c >> 1: 1, d >> 1: 1}
        minimized = minimize_assignment(aig, [goal], assignment)
        assert minimized[a >> 1] == 1
        assert minimized[d >> 1] == 0
        assert minimized[b >> 1] + minimized[c >> 1] == 1
