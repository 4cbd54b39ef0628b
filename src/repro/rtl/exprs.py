"""Width-annotated word-level expressions of the RTL IR.

Every node carries its result width; operands are implicitly zero-extended to
the node width by the evaluator and the bit-blaster, which keeps width
handling in one place (the elaborator computes the widths once, Verilog
style).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Set, Tuple

from repro.utils.bitvec import mask, truncate


# Operator name constants (kept as plain strings for cheap hashing/repr).
class UnaryOp:
    NOT = "not"          # bitwise complement
    NEG = "neg"          # two's-complement negation
    RED_AND = "redand"   # reduction AND  -> 1 bit
    RED_OR = "redor"     # reduction OR   -> 1 bit
    RED_XOR = "redxor"   # reduction XOR  -> 1 bit
    LOG_NOT = "lognot"   # logical not    -> 1 bit


class BinaryOp:
    AND = "and"
    OR = "or"
    XOR = "xor"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    EQ = "eq"
    NE = "ne"
    ULT = "ult"
    ULE = "ule"
    UGT = "ugt"
    UGE = "uge"
    SHL = "shl"
    LSHR = "lshr"
    LOG_AND = "logand"
    LOG_OR = "logor"
    MOD = "mod"


_REDUCTION_OPS = {UnaryOp.RED_AND, UnaryOp.RED_OR, UnaryOp.RED_XOR, UnaryOp.LOG_NOT}
_BOOLEAN_BINOPS = {
    BinaryOp.EQ, BinaryOp.NE, BinaryOp.ULT, BinaryOp.ULE, BinaryOp.UGT,
    BinaryOp.UGE, BinaryOp.LOG_AND, BinaryOp.LOG_OR,
}


@dataclass(frozen=True)
class Expr:
    """Base class; every expression has a result ``width`` in bits."""

    width: int


@dataclass(frozen=True)
class Const(Expr):
    """Constant with an unsigned ``value`` truncated to ``width`` bits."""

    value: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", truncate(self.value, self.width))


@dataclass(frozen=True)
class Ref(Expr):
    """Reference to a flat signal by name."""

    name: str = ""


@dataclass(frozen=True)
class Unop(Expr):
    """Unary operation; reduction operators always have ``width == 1``."""

    op: str = UnaryOp.NOT
    operand: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Binop(Expr):
    """Binary operation; comparison/logical operators have ``width == 1``."""

    op: str = BinaryOp.AND
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Mux(Expr):
    """Two-way multiplexer selected by a 1-bit condition."""

    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    otherwise: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Concat(Expr):
    """Concatenation; ``parts`` are stored MSB-first (Verilog order)."""

    parts: Tuple[Expr, ...] = ()


@dataclass(frozen=True)
class Slice(Expr):
    """``width`` bits of ``base`` starting at bit ``lsb`` (little-endian)."""

    base: Expr = None  # type: ignore[assignment]
    lsb: int = 0


@dataclass(frozen=True)
class Lut(Expr):
    """Read-only lookup table (inferred ROM): ``table[index]``.

    ``table`` has exactly ``2 ** index.width`` entries of ``width`` bits each.
    The elaborator infers this node from fully constant ``case`` statements
    (e.g. the AES S-box), the simulator evaluates it as a direct lookup and
    the bit-blaster lowers it through a shared decoder tree instead of a long
    multiplexer chain.
    """

    index: Expr = None  # type: ignore[assignment]
    table: Tuple[int, ...] = ()


# --------------------------------------------------------------------------- #
# Construction helpers
# --------------------------------------------------------------------------- #


def const(value: int, width: int) -> Const:
    return Const(width=width, value=value)


def ref(name: str, width: int) -> Ref:
    return Ref(width=width, name=name)


def mux(cond: Expr, then: Expr, otherwise: Expr) -> Mux:
    width = max(then.width, otherwise.width)
    return Mux(width=width, cond=cond, then=then, otherwise=otherwise)


def concat(parts) -> Expr:
    parts = tuple(parts)
    if len(parts) == 1:
        return parts[0]
    return Concat(width=sum(part.width for part in parts), parts=parts)


def slice_expr(base: Expr, lsb: int, width: int) -> Expr:
    if lsb == 0 and width == base.width:
        return base
    return Slice(width=width, base=base, lsb=lsb)


def insert_bits(base: Expr, lsb: int, value: Expr) -> Expr:
    """Return ``base`` with ``value.width`` bits replaced starting at ``lsb``.

    Used for part-select assignments: the untouched bits keep their old value.
    """
    total = base.width
    width = value.width
    if lsb == 0 and width == total:
        return value
    parts = []
    if lsb + width < total:
        parts.append(slice_expr(base, lsb + width, total - lsb - width))
    parts.append(value)
    if lsb > 0:
        parts.append(slice_expr(base, 0, lsb))
    return concat(parts)


def reduce_or(operand: Expr) -> Expr:
    if operand.width == 1:
        return operand
    return Unop(width=1, op=UnaryOp.RED_OR, operand=operand)


def logical_not(operand: Expr) -> Expr:
    return Unop(width=1, op=UnaryOp.LOG_NOT, operand=operand)


def equals(left: Expr, right: Expr) -> Expr:
    return Binop(width=1, op=BinaryOp.EQ, left=left, right=right)


# --------------------------------------------------------------------------- #
# Traversal and analysis
# --------------------------------------------------------------------------- #


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and all sub-expressions (pre-order)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Unop):
            stack.append(node.operand)
        elif isinstance(node, Binop):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Mux):
            stack.extend((node.cond, node.then, node.otherwise))
        elif isinstance(node, Concat):
            stack.extend(node.parts)
        elif isinstance(node, Slice):
            stack.append(node.base)
        elif isinstance(node, Lut):
            stack.append(node.index)


def support(expr: Expr) -> Set[str]:
    """Names of all signals the expression combinationally depends on.

    Visits each shared sub-expression once: elaborated drivers are DAGs
    (one ROM index or mux condition feeds many bits), not trees.  The
    traversal is inlined rather than built on :func:`walk` because it runs
    on every driver of every design.
    """
    names: Set[str] = set()
    seen: Set[int] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Ref):
            names.add(node.name)
        elif isinstance(node, Unop):
            stack.append(node.operand)
        elif isinstance(node, Binop):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Mux):
            stack.extend((node.cond, node.then, node.otherwise))
        elif isinstance(node, Concat):
            stack.extend(node.parts)
        elif isinstance(node, Slice):
            stack.append(node.base)
        elif isinstance(node, Lut):
            stack.append(node.index)
    return names


def substitute(expr: Expr, mapping: Dict[str, Expr]) -> Expr:
    """Replace every :class:`Ref` whose name is in ``mapping`` by its image."""
    cache: Dict[int, Expr] = {}

    def rewrite(node: Expr) -> Expr:
        key = id(node)
        if key in cache:
            return cache[key]
        if isinstance(node, Ref):
            result = mapping.get(node.name, node)
        elif isinstance(node, Unop):
            result = Unop(width=node.width, op=node.op, operand=rewrite(node.operand))
        elif isinstance(node, Binop):
            result = Binop(width=node.width, op=node.op, left=rewrite(node.left), right=rewrite(node.right))
        elif isinstance(node, Mux):
            result = Mux(width=node.width, cond=rewrite(node.cond), then=rewrite(node.then), otherwise=rewrite(node.otherwise))
        elif isinstance(node, Concat):
            result = Concat(width=node.width, parts=tuple(rewrite(part) for part in node.parts))
        elif isinstance(node, Slice):
            result = Slice(width=node.width, base=rewrite(node.base), lsb=node.lsb)
        elif isinstance(node, Lut):
            result = Lut(width=node.width, index=rewrite(node.index), table=node.table)
        else:
            result = node
        cache[key] = result
        return result

    return rewrite(expr)


# --------------------------------------------------------------------------- #
# Concrete evaluation (shared by the simulator and CEX replay)
# --------------------------------------------------------------------------- #


def evaluate(expr: Expr, lookup: Callable[[str], int]) -> int:
    """Evaluate ``expr`` over concrete signal values provided by ``lookup``."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Ref):
        return truncate(lookup(expr.name), expr.width)
    if isinstance(expr, Unop):
        return _eval_unop(expr, lookup)
    if isinstance(expr, Binop):
        return _eval_binop(expr, lookup)
    if isinstance(expr, Mux):
        condition = evaluate(expr.cond, lookup) & 1
        chosen = expr.then if condition else expr.otherwise
        return truncate(evaluate(chosen, lookup), expr.width)
    if isinstance(expr, Concat):
        value = 0
        for part in expr.parts:  # MSB-first
            value = (value << part.width) | evaluate(part, lookup)
        return truncate(value, expr.width)
    if isinstance(expr, Slice):
        return (evaluate(expr.base, lookup) >> expr.lsb) & mask(expr.width)
    if isinstance(expr, Lut):
        index = evaluate(expr.index, lookup)
        if index >= len(expr.table):
            return 0
        return truncate(expr.table[index], expr.width)
    raise TypeError(f"cannot evaluate expression node {type(expr).__name__}")


def _eval_unop(expr: Unop, lookup: Callable[[str], int]) -> int:
    operand = evaluate(expr.operand, lookup)
    operand_width = expr.operand.width
    if expr.op == UnaryOp.NOT:
        return (~operand) & mask(expr.width)
    if expr.op == UnaryOp.NEG:
        return (-operand) & mask(expr.width)
    if expr.op == UnaryOp.RED_AND:
        return 1 if operand == mask(operand_width) else 0
    if expr.op == UnaryOp.RED_OR:
        return 1 if operand != 0 else 0
    if expr.op == UnaryOp.RED_XOR:
        return bin(operand).count("1") & 1
    if expr.op == UnaryOp.LOG_NOT:
        return 0 if operand != 0 else 1
    raise ValueError(f"unknown unary operator {expr.op!r}")


def _eval_binop(expr: Binop, lookup: Callable[[str], int]) -> int:
    left = evaluate(expr.left, lookup)
    right = evaluate(expr.right, lookup)
    op = expr.op
    result_mask = mask(expr.width)
    if op == BinaryOp.AND:
        return (left & right) & result_mask
    if op == BinaryOp.OR:
        return (left | right) & result_mask
    if op == BinaryOp.XOR:
        return (left ^ right) & result_mask
    if op == BinaryOp.ADD:
        return (left + right) & result_mask
    if op == BinaryOp.SUB:
        return (left - right) & result_mask
    if op == BinaryOp.MUL:
        return (left * right) & result_mask
    if op == BinaryOp.MOD:
        return (left % right) & result_mask if right != 0 else 0
    if op == BinaryOp.EQ:
        return 1 if left == right else 0
    if op == BinaryOp.NE:
        return 1 if left != right else 0
    if op == BinaryOp.ULT:
        return 1 if left < right else 0
    if op == BinaryOp.ULE:
        return 1 if left <= right else 0
    if op == BinaryOp.UGT:
        return 1 if left > right else 0
    if op == BinaryOp.UGE:
        return 1 if left >= right else 0
    if op == BinaryOp.SHL:
        return (left << right) & result_mask if right < expr.width + 64 else 0
    if op == BinaryOp.LSHR:
        return (left >> right) & result_mask
    if op == BinaryOp.LOG_AND:
        return 1 if (left != 0 and right != 0) else 0
    if op == BinaryOp.LOG_OR:
        return 1 if (left != 0 or right != 0) else 0
    raise ValueError(f"unknown binary operator {op!r}")


def is_boolean_op(expr: Expr) -> bool:
    """True when the node semantically produces a single-bit boolean."""
    if isinstance(expr, Unop):
        return expr.op in _REDUCTION_OPS
    if isinstance(expr, Binop):
        return expr.op in _BOOLEAN_BINOPS
    return False
