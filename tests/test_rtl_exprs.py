"""Tests for the word-level RTL expression IR."""

import pytest
from hypothesis import given, strategies as st

from repro.rtl import exprs
from repro.utils.bitvec import mask
from repro.verilog import ast
from repro.verilog.parser import parse_source


def c(value, width):
    return exprs.const(value, width)


def r(name, width):
    return exprs.ref(name, width)


def ev(expr, **env):
    return exprs.evaluate(expr, lambda name: env[name])


class TestConstructors:
    def test_const_truncates(self):
        assert c(0x1FF, 8).value == 0xFF

    def test_concat_width(self):
        expr = exprs.concat((c(1, 4), c(2, 8)))
        assert expr.width == 12

    def test_concat_single_part_collapses(self):
        inner = c(3, 4)
        assert exprs.concat((inner,)) is inner

    def test_slice_full_width_collapses(self):
        base = r("x", 8)
        assert exprs.slice_expr(base, 0, 8) is base

    def test_mux_width_is_max(self):
        expr = exprs.mux(c(1, 1), c(0, 4), c(0, 8))
        assert expr.width == 8

    def test_insert_bits_middle(self):
        base = r("x", 8)
        inserted = exprs.insert_bits(base, 2, c(0b11, 2))
        assert inserted.width == 8
        value = ev(inserted, x=0b0000_0000)
        assert value == 0b0000_1100

    def test_insert_bits_full_width_replaces(self):
        base = r("x", 8)
        assert exprs.insert_bits(base, 0, c(5, 8)) == c(5, 8)

    def test_insert_bits_lsb(self):
        value = ev(exprs.insert_bits(r("x", 8), 0, c(0b1, 1)), x=0b1111_0000)
        assert value == 0b1111_0001

    def test_insert_bits_msb(self):
        value = ev(exprs.insert_bits(r("x", 8), 7, c(0b1, 1)), x=0)
        assert value == 0b1000_0000

    def test_ir_and_ast_nodes_have_no_instance_dict(self):
        # A batch keeps every elaborated design's nodes until it returns;
        # slotted nodes carry no per-instance dict to build and free.
        ir_node = exprs.Binop(width=4, op=exprs.BinaryOp.ADD, left=r("x", 4), right=c(1, 4))
        module = parse_source("module m(input a, output y); assign y = ~a; endmodule").modules[0]
        assign = next(item for item in module.items if isinstance(item, ast.ContinuousAssign))
        for node in (ir_node, ir_node.left, ir_node.right, assign, assign.rhs, *module.ports):
            assert not hasattr(node, "__dict__"), type(node).__name__


class TestTraversal:
    def test_support_collects_refs(self):
        expr = exprs.Binop(8, exprs.BinaryOp.ADD, r("a", 8), exprs.mux(r("s", 1), r("b", 8), c(0, 8)))
        assert exprs.support(expr) == {"a", "s", "b"}

    def test_walk_visits_all_nodes(self):
        expr = exprs.Binop(8, exprs.BinaryOp.XOR, r("a", 8), r("b", 8))
        nodes = list(exprs.walk(expr))
        assert expr in nodes and len(nodes) == 3

    def test_substitute_replaces_refs(self):
        expr = exprs.Binop(8, exprs.BinaryOp.ADD, r("a", 8), r("b", 8))
        substituted = exprs.substitute(expr, {"a": c(1, 8)})
        assert exprs.support(substituted) == {"b"}
        assert ev(substituted, b=2) == 3

    def test_substitute_inside_lut_index(self):
        lut = exprs.Lut(width=8, index=r("a", 2), table=(1, 2, 3, 4))
        substituted = exprs.substitute(lut, {"a": c(2, 2)})
        assert ev(substituted) == 3

    def test_is_boolean_op(self):
        assert exprs.is_boolean_op(exprs.equals(r("a", 4), r("b", 4)))
        assert exprs.is_boolean_op(exprs.reduce_or(r("a", 4)))
        assert not exprs.is_boolean_op(c(1, 1))


class TestEvaluate:
    def test_constants_and_refs(self):
        assert ev(c(0x12, 8)) == 0x12
        assert ev(r("a", 4), a=0x1F) == 0xF  # truncated to declared width

    @pytest.mark.parametrize(
        "op, a, b, expected",
        [
            (exprs.BinaryOp.AND, 0b1100, 0b1010, 0b1000),
            (exprs.BinaryOp.OR, 0b1100, 0b1010, 0b1110),
            (exprs.BinaryOp.XOR, 0b1100, 0b1010, 0b0110),
            (exprs.BinaryOp.ADD, 200, 100, (300) & 0xFF),
            (exprs.BinaryOp.SUB, 5, 10, (5 - 10) & 0xFF),
            (exprs.BinaryOp.MUL, 20, 20, 400 & 0xFF),
            (exprs.BinaryOp.MOD, 21, 8, 5),
            (exprs.BinaryOp.SHL, 0b1, 3, 0b1000),
            (exprs.BinaryOp.LSHR, 0b1000, 3, 0b1),
        ],
    )
    def test_arithmetic_ops(self, op, a, b, expected):
        expr = exprs.Binop(8, op, c(a, 8), c(b, 8))
        assert ev(expr) == expected

    @pytest.mark.parametrize(
        "op, a, b, expected",
        [
            (exprs.BinaryOp.EQ, 5, 5, 1),
            (exprs.BinaryOp.NE, 5, 5, 0),
            (exprs.BinaryOp.ULT, 3, 5, 1),
            (exprs.BinaryOp.ULE, 5, 5, 1),
            (exprs.BinaryOp.UGT, 3, 5, 0),
            (exprs.BinaryOp.UGE, 5, 6, 0),
            (exprs.BinaryOp.LOG_AND, 2, 0, 0),
            (exprs.BinaryOp.LOG_OR, 2, 0, 1),
        ],
    )
    def test_comparison_ops(self, op, a, b, expected):
        expr = exprs.Binop(1, op, c(a, 8), c(b, 8))
        assert ev(expr) == expected

    @pytest.mark.parametrize(
        "op, operand, width, expected",
        [
            (exprs.UnaryOp.NOT, 0b1010, 4, 0b0101),
            (exprs.UnaryOp.NEG, 1, 8, 0xFF),
            (exprs.UnaryOp.RED_AND, 0xF, 4, 1),
            (exprs.UnaryOp.RED_AND, 0xE, 4, 0),
            (exprs.UnaryOp.RED_OR, 0, 4, 0),
            (exprs.UnaryOp.RED_OR, 2, 4, 1),
            (exprs.UnaryOp.RED_XOR, 0b0111, 4, 1),
            (exprs.UnaryOp.LOG_NOT, 0, 4, 1),
            (exprs.UnaryOp.LOG_NOT, 3, 4, 0),
        ],
    )
    def test_unary_ops(self, op, operand, width, expected):
        out_width = width if op in (exprs.UnaryOp.NOT, exprs.UnaryOp.NEG) else 1
        expr = exprs.Unop(out_width, op, c(operand, width))
        assert ev(expr) == expected

    def test_mux_selects_by_condition(self):
        expr = exprs.mux(r("s", 1), c(0xAA, 8), c(0x55, 8))
        assert ev(expr, s=1) == 0xAA
        assert ev(expr, s=0) == 0x55

    def test_concat_is_msb_first(self):
        expr = exprs.concat((c(0xA, 4), c(0x5, 4)))
        assert ev(expr) == 0xA5

    def test_slice(self):
        expr = exprs.slice_expr(c(0xABCD, 16), 4, 8)
        assert ev(expr) == 0xBC

    def test_lut_lookup(self):
        lut = exprs.Lut(width=8, index=r("i", 2), table=(10, 20, 30, 40))
        assert ev(lut, i=2) == 30

    def test_lut_out_of_range_is_zero(self):
        lut = exprs.Lut(width=8, index=r("i", 4), table=(10, 20))
        assert ev(lut, i=9) == 0

    def test_mod_by_zero_is_zero(self):
        assert ev(exprs.Binop(8, exprs.BinaryOp.MOD, c(5, 8), c(0, 8))) == 0

    def test_unknown_node_type_raises(self):
        class Strange(exprs.Expr):
            pass

        with pytest.raises(TypeError):
            exprs.evaluate(Strange(width=1), lambda name: 0)


_word = st.integers(min_value=0, max_value=0xFFFF)


class TestEvaluatePropertyBased:
    @given(a=_word, b=_word)
    def test_add_matches_python(self, a, b):
        expr = exprs.Binop(16, exprs.BinaryOp.ADD, c(a, 16), c(b, 16))
        assert ev(expr) == (a + b) & mask(16)

    @given(a=_word, b=_word)
    def test_xor_matches_python(self, a, b):
        expr = exprs.Binop(16, exprs.BinaryOp.XOR, c(a, 16), c(b, 16))
        assert ev(expr) == a ^ b

    @given(a=_word, b=_word)
    def test_comparison_matches_python(self, a, b):
        expr = exprs.Binop(1, exprs.BinaryOp.ULT, c(a, 16), c(b, 16))
        assert ev(expr) == int(a < b)

    @given(a=_word, b=_word)
    def test_insert_then_slice_roundtrip(self, a, b):
        base = c(a, 16)
        inserted = exprs.insert_bits(base, 4, c(b & 0xF, 4))
        assert ev(exprs.slice_expr(inserted, 4, 4)) == b & 0xF
        assert ev(exprs.slice_expr(inserted, 0, 4)) == a & 0xF
        assert ev(exprs.slice_expr(inserted, 8, 8)) == (a >> 8) & 0xFF
