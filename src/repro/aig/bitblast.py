"""Word-level to bit-level lowering of RTL expressions onto an AIG.

A *vector* is a list of AIG literals, least-significant bit first.  The
bit-blaster interprets every :mod:`repro.rtl.exprs` node over an environment
mapping signal names to vectors, producing a vector for the root expression.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.aig.aig import AIG, FALSE, TRUE, negate
from repro.errors import BitblastError
from repro.rtl import exprs

Vector = List[int]


class BitBlaster:
    """Lowers word-level expressions to AIG literal vectors."""

    def __init__(self, aig: AIG) -> None:
        self._aig = aig
        # Lowered ROMs by (table, width, index literals); see _blast_lut.
        self._luts: Dict[Tuple[Tuple[int, ...], int, Tuple[int, ...]], Tuple[int, ...]] = {}

    @property
    def aig(self) -> AIG:
        return self._aig

    # ------------------------------------------------------------------ #
    # Vector constructors
    # ------------------------------------------------------------------ #

    def constant(self, value: int, width: int) -> Vector:
        return [TRUE if (value >> bit) & 1 else FALSE for bit in range(width)]

    def fresh_vector(self, name: str, width: int) -> Vector:
        return [self._aig.add_input(f"{name}[{bit}]") for bit in range(width)]

    # ------------------------------------------------------------------ #
    # Expression lowering
    # ------------------------------------------------------------------ #

    def blast(self, expr: exprs.Expr, env: Dict[str, Vector]) -> Vector:
        """Lower ``expr`` over the signal environment ``env``."""
        result = self._blast(expr, env)
        if len(result) != expr.width:
            raise BitblastError(
                f"internal width mismatch: produced {len(result)} bits for a {expr.width}-bit expression"
            )
        return result

    def _blast(self, expr: exprs.Expr, env: Dict[str, Vector]) -> Vector:
        if isinstance(expr, exprs.Const):
            return self.constant(expr.value, expr.width)
        if isinstance(expr, exprs.Ref):
            vector = env.get(expr.name)
            if vector is None:
                raise BitblastError(f"no vector bound for signal {expr.name!r}")
            return self._resize(list(vector), expr.width)
        if isinstance(expr, exprs.Unop):
            return self._blast_unop(expr, env)
        if isinstance(expr, exprs.Binop):
            return self._blast_binop(expr, env)
        if isinstance(expr, exprs.Mux):
            condition = self._reduce_or(self._blast(expr.cond, env))
            then = self._resize(self._blast(expr.then, env), expr.width)
            otherwise = self._resize(self._blast(expr.otherwise, env), expr.width)
            return [self._aig.mux(condition, t, e) for t, e in zip(then, otherwise)]
        if isinstance(expr, exprs.Concat):
            bits: Vector = []
            for part in reversed(expr.parts):  # parts are MSB-first; build LSB-first
                bits.extend(self._blast(part, env))
            return self._resize(bits, expr.width)
        if isinstance(expr, exprs.Slice):
            base = self._blast(expr.base, env)
            return self._resize(base[expr.lsb : expr.lsb + expr.width], expr.width)
        if isinstance(expr, exprs.Lut):
            return self._blast_lut(expr, env)
        raise BitblastError(f"cannot bit-blast expression node {type(expr).__name__}")

    def _blast_lut(self, expr: exprs.Lut, env: Dict[str, Vector]) -> Vector:
        """Lower an inferred ROM through a shared one-hot decoder tree.

        All output bits reuse the same minterm literals, which keeps a
        256-entry, 8-bit-wide table (an AES S-box) at roughly 1.5k AIG nodes
        instead of the ~10k a naive multiplexer chain would create.

        A table already lowered over the same index literals is not rebuilt:
        the rebuild would reach the stored literals through structural
        hashing anyway, creating no node.  The memo only skips those
        ``and_`` calls — in the 2-safety miter, instance 1's S-boxes over
        leaves merged into instance 0's are all such repeats.
        """
        index = self._blast(expr.index, env)
        table = expr.table
        constant_index = self._constant_value(index)
        if constant_index is not None:
            value = table[constant_index] if constant_index < len(table) else 0
            return self.constant(value, expr.width)
        key = (table, expr.width, tuple(index))
        lowered = self._luts.get(key)
        if lowered is not None:
            return list(lowered)
        and_ = self._aig.and_
        # minterms[i] is true iff the index equals i.
        minterms: List[int] = [TRUE]
        for bit in index:
            low = bit ^ 1
            # Keep LSB-first ordering: entry i of the expansion corresponds to
            # the index value whose processed low bits equal i.
            expanded = [and_(term, low) for term in minterms]
            expanded.extend([and_(term, bit) for term in minterms])
            minterms = expanded
        result: Vector = []
        for bit_position in range(expr.width):
            selected = [
                minterms[i]
                for i in range(min(len(table), len(minterms)))
                if (table[i] >> bit_position) & 1
            ]
            result.append(self._aig.or_many(selected))
        self._luts[key] = tuple(result)
        return result

    # -- unary ---------------------------------------------------------- #

    def _blast_unop(self, expr: exprs.Unop, env: Dict[str, Vector]) -> Vector:
        operand = self._blast(expr.operand, env)
        op = expr.op
        if op == exprs.UnaryOp.NOT:
            return [negate(bit) for bit in self._resize(operand, expr.width)]
        if op == exprs.UnaryOp.NEG:
            inverted = [negate(bit) for bit in self._resize(operand, expr.width)]
            return self._add(inverted, self.constant(1, expr.width))
        if op == exprs.UnaryOp.RED_AND:
            return [self._aig.and_many(operand)]
        if op == exprs.UnaryOp.RED_OR:
            return [self._aig.or_many(operand)]
        if op == exprs.UnaryOp.RED_XOR:
            result = FALSE
            for bit in operand:
                result = self._aig.xor(result, bit)
            return [result]
        if op == exprs.UnaryOp.LOG_NOT:
            return [negate(self._aig.or_many(operand))]
        raise BitblastError(f"unknown unary operator {op!r}")

    # -- binary --------------------------------------------------------- #

    def _blast_binop(self, expr: exprs.Binop, env: Dict[str, Vector]) -> Vector:
        op = expr.op
        left = self._blast(expr.left, env)
        right = self._blast(expr.right, env)
        if op in (exprs.BinaryOp.AND, exprs.BinaryOp.OR, exprs.BinaryOp.XOR):
            left = self._resize(left, expr.width)
            right = self._resize(right, expr.width)
            gate = {exprs.BinaryOp.AND: self._aig.and_, exprs.BinaryOp.OR: self._aig.or_,
                    exprs.BinaryOp.XOR: self._aig.xor}[op]
            return [gate(a, b) for a, b in zip(left, right)]
        if op == exprs.BinaryOp.ADD:
            return self._add(self._resize(left, expr.width), self._resize(right, expr.width))
        if op == exprs.BinaryOp.SUB:
            inverted = [negate(bit) for bit in self._resize(right, expr.width)]
            return self._add(self._resize(left, expr.width), inverted, carry_in=TRUE)
        if op == exprs.BinaryOp.MUL:
            return self._multiply(self._resize(left, expr.width), self._resize(right, expr.width))
        if op == exprs.BinaryOp.MOD:
            return self._modulo(left, right, expr.width)
        if op == exprs.BinaryOp.EQ:
            return [self._equal(left, right)]
        if op == exprs.BinaryOp.NE:
            return [negate(self._equal(left, right))]
        if op in (exprs.BinaryOp.ULT, exprs.BinaryOp.ULE, exprs.BinaryOp.UGT, exprs.BinaryOp.UGE):
            return [self._compare(op, left, right)]
        if op in (exprs.BinaryOp.SHL, exprs.BinaryOp.LSHR):
            return self._shift(op, self._resize(left, expr.width), right)
        if op == exprs.BinaryOp.LOG_AND:
            return [self._aig.and_(self._reduce_or(left), self._reduce_or(right))]
        if op == exprs.BinaryOp.LOG_OR:
            return [self._aig.or_(self._reduce_or(left), self._reduce_or(right))]
        raise BitblastError(f"unknown binary operator {op!r}")

    # ------------------------------------------------------------------ #
    # Arithmetic helpers
    # ------------------------------------------------------------------ #

    def _add(self, left: Vector, right: Vector, carry_in: int = FALSE) -> Vector:
        result: Vector = []
        carry = carry_in
        for a, b in zip(left, right):
            partial = self._aig.xor(a, b)
            result.append(self._aig.xor(partial, carry))
            carry = self._aig.or_(self._aig.and_(a, b), self._aig.and_(partial, carry))
        return result

    def _multiply(self, left: Vector, right: Vector) -> Vector:
        width = len(left)
        accumulator = self.constant(0, width)
        for shift, select in enumerate(right):
            if select == FALSE:
                continue
            partial = self.constant(0, shift) + left[: width - shift]
            gated = [self._aig.and_(bit, select) for bit in partial]
            accumulator = self._add(accumulator, self._resize(gated, width))
        return accumulator

    def _modulo(self, left: Vector, right: Vector, width: int) -> Vector:
        # Restoring division is expensive; support only constant power-of-two
        # divisors, which is all the benchmark designs use.
        value = self._constant_value(right)
        if value is None or value == 0 or value & (value - 1):
            raise BitblastError("modulo is only supported for constant power-of-two divisors")
        bits = value.bit_length() - 1
        return self._resize(left[:bits], width)

    def _constant_value(self, vector: Vector) -> int | None:
        value = 0
        for index, bit in enumerate(vector):
            if bit == TRUE:
                value |= 1 << index
            elif bit != FALSE:
                return None
        return value

    def _equal(self, left: Vector, right: Vector) -> int:
        width = max(len(left), len(right))
        left = self._resize(list(left), width)
        right = self._resize(list(right), width)
        return self._aig.and_many(self._aig.xnor(a, b) for a, b in zip(left, right))

    def _compare(self, op: str, left: Vector, right: Vector) -> int:
        width = max(len(left), len(right))
        left = self._resize(list(left), width)
        right = self._resize(list(right), width)
        # left < right  <=>  borrow out of (left - right)
        borrow = FALSE
        for a, b in zip(left, right):
            a_xor_b = self._aig.xor(a, b)
            borrow = self._aig.or_(
                self._aig.and_(negate(a), b),
                self._aig.and_(negate(a_xor_b), borrow),
            )
        less_than = borrow
        if op == exprs.BinaryOp.ULT:
            return less_than
        if op == exprs.BinaryOp.UGE:
            return negate(less_than)
        equal = self._equal(left, right)
        if op == exprs.BinaryOp.ULE:
            return self._aig.or_(less_than, equal)
        if op == exprs.BinaryOp.UGT:
            return negate(self._aig.or_(less_than, equal))
        raise BitblastError(f"unknown comparison {op!r}")

    def _shift(self, op: str, value: Vector, amount: Vector) -> Vector:
        constant_amount = self._constant_value(amount)
        width = len(value)
        if constant_amount is not None:
            return self._shift_by_constant(op, value, constant_amount)
        # Variable shift: logarithmic mux ladder over the amount bits.
        useful_bits = max(1, (width - 1).bit_length())
        result = list(value)
        for bit_index in range(min(useful_bits, len(amount))):
            select = amount[bit_index]
            shifted = self._shift_by_constant(op, result, 1 << bit_index)
            result = [self._aig.mux(select, s, r) for s, r in zip(shifted, result)]
        overflow_bits = amount[useful_bits:]
        if overflow_bits:
            overflow = self._aig.or_many(overflow_bits)
            result = [self._aig.mux(overflow, FALSE, bit) for bit in result]
        return result

    def _shift_by_constant(self, op: str, value: Vector, amount: int) -> Vector:
        width = len(value)
        if amount >= width:
            return self.constant(0, width)
        if op == exprs.BinaryOp.SHL:
            return self.constant(0, amount) + value[: width - amount]
        return value[amount:] + self.constant(0, amount)

    # ------------------------------------------------------------------ #
    # Misc helpers
    # ------------------------------------------------------------------ #

    def _reduce_or(self, vector: Vector) -> int:
        if len(vector) == 1:
            return vector[0]
        return self._aig.or_many(vector)

    def _resize(self, vector: Vector, width: int) -> Vector:
        if len(vector) == width:
            return vector
        if len(vector) > width:
            return vector[:width]
        return vector + [FALSE] * (width - len(vector))

    def equal_vectors(self, left: Sequence[int], right: Sequence[int]) -> int:
        """Single literal that is true iff the two vectors are bitwise equal."""
        return self._equal(list(left), list(right))
