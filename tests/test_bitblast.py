"""Tests for word-level to AIG bit-blasting.

Strategy: build an expression, blast it over fresh vectors, evaluate the AIG
under concrete input values and compare against the word-level reference
evaluator of :mod:`repro.rtl.exprs`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.aig import AIG
from repro.aig.bitblast import BitBlaster
from repro.errors import BitblastError
from repro.rtl import exprs
from repro.utils.bitvec import from_bits, to_bits


def blast_and_eval(expr, signal_widths, assignments):
    """Blast ``expr`` and evaluate the AIG under ``assignments``."""
    aig = AIG()
    blaster = BitBlaster(aig)
    env = {name: blaster.fresh_vector(name, width) for name, width in signal_widths.items()}
    vector = blaster.blast(expr, env)
    input_values = {}
    for name, width in signal_widths.items():
        bits = to_bits(assignments[name], width)
        for literal, bit in zip(env[name], bits):
            input_values[literal >> 1] = bit
    return from_bits(aig.evaluate(vector, input_values))


def reference_eval(expr, assignments):
    return exprs.evaluate(expr, lambda name: assignments[name])


def check(expr, signal_widths, assignments):
    assert blast_and_eval(expr, signal_widths, assignments) == reference_eval(expr, assignments)


_W8 = st.integers(min_value=0, max_value=0xFF)


class TestOperators:
    @pytest.mark.parametrize("op", [
        exprs.BinaryOp.AND, exprs.BinaryOp.OR, exprs.BinaryOp.XOR,
        exprs.BinaryOp.ADD, exprs.BinaryOp.SUB, exprs.BinaryOp.MUL,
    ])
    @given(a=_W8, b=_W8)
    @settings(max_examples=10, deadline=None)
    def test_word_ops_match_reference(self, op, a, b):
        expr = exprs.Binop(8, op, exprs.ref("a", 8), exprs.ref("b", 8))
        check(expr, {"a": 8, "b": 8}, {"a": a, "b": b})

    @pytest.mark.parametrize("op", [
        exprs.BinaryOp.EQ, exprs.BinaryOp.NE, exprs.BinaryOp.ULT,
        exprs.BinaryOp.ULE, exprs.BinaryOp.UGT, exprs.BinaryOp.UGE,
        exprs.BinaryOp.LOG_AND, exprs.BinaryOp.LOG_OR,
    ])
    @given(a=_W8, b=_W8)
    @settings(max_examples=10, deadline=None)
    def test_boolean_ops_match_reference(self, op, a, b):
        expr = exprs.Binop(1, op, exprs.ref("a", 8), exprs.ref("b", 8))
        check(expr, {"a": 8, "b": 8}, {"a": a, "b": b})

    @pytest.mark.parametrize("op", [
        exprs.UnaryOp.NOT, exprs.UnaryOp.NEG, exprs.UnaryOp.RED_AND,
        exprs.UnaryOp.RED_OR, exprs.UnaryOp.RED_XOR, exprs.UnaryOp.LOG_NOT,
    ])
    @given(a=_W8)
    @settings(max_examples=10, deadline=None)
    def test_unary_ops_match_reference(self, op, a):
        width = 8 if op in (exprs.UnaryOp.NOT, exprs.UnaryOp.NEG) else 1
        expr = exprs.Unop(width, op, exprs.ref("a", 8))
        check(expr, {"a": 8}, {"a": a})

    @given(a=_W8, shift=st.integers(min_value=0, max_value=10))
    @settings(max_examples=10, deadline=None)
    def test_shift_by_constant(self, a, shift):
        for op in (exprs.BinaryOp.SHL, exprs.BinaryOp.LSHR):
            expr = exprs.Binop(8, op, exprs.ref("a", 8), exprs.const(shift, 4))
            check(expr, {"a": 8}, {"a": a})

    @given(a=_W8, amount=st.integers(min_value=0, max_value=15))
    @settings(max_examples=10, deadline=None)
    def test_variable_shift(self, a, amount):
        for op in (exprs.BinaryOp.SHL, exprs.BinaryOp.LSHR):
            expr = exprs.Binop(8, op, exprs.ref("a", 8), exprs.ref("s", 4))
            check(expr, {"a": 8, "s": 4}, {"a": a, "s": amount})

    @given(a=_W8)
    @settings(max_examples=10, deadline=None)
    def test_modulo_power_of_two(self, a):
        expr = exprs.Binop(8, exprs.BinaryOp.MOD, exprs.ref("a", 8), exprs.const(16, 8))
        check(expr, {"a": 8}, {"a": a})

    def test_modulo_non_power_of_two_rejected(self):
        aig = AIG()
        blaster = BitBlaster(aig)
        expr = exprs.Binop(8, exprs.BinaryOp.MOD, exprs.ref("a", 8), exprs.const(10, 8))
        with pytest.raises(BitblastError):
            blaster.blast(expr, {"a": blaster.fresh_vector("a", 8)})

    @given(s=st.integers(min_value=0, max_value=1), a=_W8, b=_W8)
    @settings(max_examples=10, deadline=None)
    def test_mux(self, s, a, b):
        expr = exprs.mux(exprs.ref("s", 1), exprs.ref("a", 8), exprs.ref("b", 8))
        check(expr, {"s": 1, "a": 8, "b": 8}, {"s": s, "a": a, "b": b})

    @given(a=_W8, b=st.integers(min_value=0, max_value=0xF))
    @settings(max_examples=10, deadline=None)
    def test_concat_and_slice(self, a, b):
        expr = exprs.slice_expr(exprs.concat((exprs.ref("a", 8), exprs.ref("b", 4))), 2, 6)
        check(expr, {"a": 8, "b": 4}, {"a": a, "b": b})


_TABLE = tuple((i * 7 + 3) & 0xFF for i in range(16))


def _lut(table=_TABLE, width=8, index="i"):
    return exprs.Lut(width=width, index=exprs.ref(index, 4), table=table)


def _assert_lowers_to(aig, vector, index_vector, table, width):
    assert len(vector) == width
    for value in range(16):
        inputs = {literal >> 1: bit for literal, bit in zip(index_vector, to_bits(value, 4))}
        assert from_bits(aig.evaluate(vector, inputs)) == table[value] & ((1 << width) - 1)


class TestLut:
    def test_lut_matches_table(self):
        table = tuple((i * 7 + 3) & 0xFF for i in range(16))
        expr = exprs.Lut(width=8, index=exprs.ref("i", 4), table=table)
        for index in range(16):
            assert blast_and_eval(expr, {"i": 4}, {"i": index}) == table[index]

    def test_lut_with_constant_index_folds(self):
        aig = AIG()
        blaster = BitBlaster(aig)
        expr = exprs.Lut(width=8, index=exprs.const(3, 4), table=tuple(range(16)))
        vector = blaster.blast(expr, {})
        assert from_bits(aig.evaluate(vector, {})) == 3
        assert aig.num_and_nodes == 0

    def test_lut_node_count_is_compact(self):
        """A 256x8 LUT must use the shared decoder, not a naive mux chain."""
        from repro.crypto.aes_ref import SBOX

        aig = AIG()
        blaster = BitBlaster(aig)
        expr = exprs.Lut(width=8, index=exprs.ref("a", 8), table=SBOX)
        blaster.blast(expr, {"a": blaster.fresh_vector("a", 8)})
        assert aig.num_and_nodes < 3000

    def test_sbox_lut_matches_reference(self):
        from repro.crypto.aes_ref import SBOX

        expr = exprs.Lut(width=8, index=exprs.ref("a", 8), table=SBOX)
        for value in (0x00, 0x01, 0x53, 0x7F, 0x80, 0xAA, 0xFF):
            assert blast_and_eval(expr, {"a": 8}, {"a": value}) == SBOX[value]

    # A ROM lowered once over an index vector is never rebuilt on that AIG.
    def test_repeat_over_the_same_index_makes_no_and_call(self, aig_work):
        aig = AIG()
        blaster = BitBlaster(aig)
        env = {"i": blaster.fresh_vector("i", 4)}
        first = blaster.blast(_lut(), env)
        calls, nodes = aig_work["and_calls"], aig.num_nodes
        assert calls > 0
        second = blaster.blast(_lut(), env)
        assert aig_work["and_calls"] == calls
        assert aig.num_nodes == nodes
        assert second == first
        second[0] = -1  # a hit hands out a copy, never the stored literals
        assert blaster.blast(_lut(), env) == first

    def test_another_index_vector_is_lowered_afresh(self, aig_work):
        aig = AIG()
        blaster = BitBlaster(aig)
        env = {"i": blaster.fresh_vector("i", 4), "j": blaster.fresh_vector("j", 4)}
        blaster.blast(_lut(), env)
        calls, nodes = aig_work["and_calls"], aig.num_nodes
        vector = blaster.blast(_lut(index="j"), env)
        assert aig_work["and_calls"] > calls
        assert aig.num_nodes > nodes
        _assert_lowers_to(aig, vector, env["j"], _TABLE, 8)

    def test_another_table_is_lowered_afresh(self, aig_work):
        aig = AIG()
        blaster = BitBlaster(aig)
        env = {"i": blaster.fresh_vector("i", 4)}
        blaster.blast(_lut(), env)
        calls = aig_work["and_calls"]
        table = tuple(value ^ 0xA5 for value in _TABLE)
        vector = blaster.blast(_lut(table=table), env)
        assert aig_work["and_calls"] > calls
        _assert_lowers_to(aig, vector, env["i"], table, 8)

    def test_another_width_is_lowered_afresh(self, aig_work):
        aig = AIG()
        blaster = BitBlaster(aig)
        env = {"i": blaster.fresh_vector("i", 4)}
        blaster.blast(_lut(), env)
        calls = aig_work["and_calls"]
        vector = blaster.blast(_lut(width=4), env)
        assert aig_work["and_calls"] > calls
        _assert_lowers_to(aig, vector, env["i"], _TABLE, 4)

    def test_a_new_blaster_on_a_new_aig_shares_nothing(self, aig_work):
        first_aig = AIG()
        first = BitBlaster(first_aig)
        first.blast(_lut(), {"i": first.fresh_vector("i", 4)})
        calls = aig_work["and_calls"]
        aig = AIG()
        blaster = BitBlaster(aig)
        env = {"i": blaster.fresh_vector("i", 4)}
        vector = blaster.blast(_lut(), env)
        # Built from scratch: the same work and the same graph as the first.
        assert aig_work["and_calls"] == 2 * calls
        assert aig.num_nodes == first_aig.num_nodes
        _assert_lowers_to(aig, vector, env["i"], _TABLE, 8)


class TestStructuralSharing:
    def test_identical_cones_over_same_vectors_share_literals(self):
        aig = AIG()
        blaster = BitBlaster(aig)
        env = {"a": blaster.fresh_vector("a", 8), "b": blaster.fresh_vector("b", 8)}
        expr = exprs.Binop(8, exprs.BinaryOp.ADD, exprs.ref("a", 8), exprs.ref("b", 8))
        first = blaster.blast(expr, env)
        second = blaster.blast(expr, env)
        assert first == second

    def test_equal_vectors_literal(self):
        aig = AIG()
        blaster = BitBlaster(aig)
        a = blaster.fresh_vector("a", 8)
        assert blaster.equal_vectors(a, list(a)) == 1  # TRUE

    def test_missing_signal_raises(self):
        blaster = BitBlaster(AIG())
        with pytest.raises(BitblastError):
            blaster.blast(exprs.ref("ghost", 4), {})
