"""Abstract syntax tree for the supported Verilog subset.

The AST keeps expressions word-level and unresolved (identifiers are plain
strings, widths are expressions); :mod:`repro.rtl.elaborate` resolves
parameters, flattens hierarchy and converts processes into the RTL IR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union


# --------------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class Expr:
    """Base class of all AST expressions."""


@dataclass(frozen=True, slots=True)
class Number(Expr):
    """Integer literal; ``width`` is ``None`` for unsized decimal literals."""

    value: int
    width: Optional[int] = None


@dataclass(frozen=True, slots=True)
class Ident(Expr):
    """Reference to a net, register, port, parameter or genvar."""

    name: str


@dataclass(frozen=True, slots=True)
class Unary(Expr):
    """Unary operator: ``~ - ! & | ^ ~& ~| ~^``."""

    op: str
    operand: Expr


@dataclass(frozen=True, slots=True)
class Binary(Expr):
    """Binary operator (arithmetic, bitwise, logical, relational, shift)."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Ternary(Expr):
    """Conditional operator ``cond ? then : otherwise``."""

    cond: Expr
    then: Expr
    otherwise: Expr


@dataclass(frozen=True, slots=True)
class Concat(Expr):
    """Concatenation ``{a, b, c}`` (MSB-first, as written)."""

    parts: Tuple[Expr, ...]


@dataclass(frozen=True, slots=True)
class Repeat(Expr):
    """Replication ``{count{expr}}``."""

    count: Expr
    value: Expr


@dataclass(frozen=True, slots=True)
class Index(Expr):
    """Single-bit select ``name[index]``."""

    target: Expr
    index: Expr


@dataclass(frozen=True, slots=True)
class RangeSelect(Expr):
    """Constant part select ``name[msb:lsb]``."""

    target: Expr
    msb: Expr
    lsb: Expr


# --------------------------------------------------------------------------- #
# Statements (inside always blocks)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class Statement:
    """Base class of procedural statements."""


@dataclass(frozen=True, slots=True)
class Block(Statement):
    """``begin ... end`` sequence."""

    statements: Tuple[Statement, ...]


@dataclass(frozen=True, slots=True)
class Assignment(Statement):
    """Procedural assignment; ``blocking`` selects ``=`` vs ``<=``."""

    lhs: Expr
    rhs: Expr
    blocking: bool


@dataclass(frozen=True, slots=True)
class If(Statement):
    """``if``/``else`` statement; ``otherwise`` may be ``None``."""

    cond: Expr
    then: Statement
    otherwise: Optional[Statement]


@dataclass(frozen=True, slots=True)
class CaseItem:
    """One arm of a case statement; empty ``labels`` marks the default arm."""

    labels: Tuple[Expr, ...]
    body: Statement


@dataclass(frozen=True, slots=True)
class Case(Statement):
    """``case``/``casez``/``casex`` statement."""

    subject: Expr
    items: Tuple[CaseItem, ...]
    kind: str = "case"


# --------------------------------------------------------------------------- #
# Module items
# --------------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class Range:
    """Packed range ``[msb:lsb]`` with unresolved bound expressions."""

    msb: Expr
    lsb: Expr


@dataclass(frozen=True, slots=True)
class Port:
    """Port declaration.  ``direction`` is ``input``/``output``/``inout``."""

    name: str
    direction: str
    range: Optional[Range] = None
    is_reg: bool = False


@dataclass(frozen=True, slots=True)
class NetDecl:
    """``wire``/``reg``/``integer`` declaration for one or more names."""

    kind: str
    names: Tuple[str, ...]
    range: Optional[Range] = None


@dataclass(frozen=True, slots=True)
class ParamDecl:
    """``parameter`` or ``localparam`` declaration."""

    name: str
    value: Expr
    local: bool = False


@dataclass(frozen=True, slots=True)
class ContinuousAssign:
    """``assign lhs = rhs;``"""

    lhs: Expr
    rhs: Expr


@dataclass(frozen=True, slots=True)
class EdgeEvent:
    """One event of a sensitivity list, e.g. ``posedge clk``."""

    edge: str  # "posedge", "negedge" or "level"
    signal: str


@dataclass(frozen=True, slots=True)
class Always:
    """``always @(...) statement``.

    ``events`` is empty for combinational ``always @(*)`` blocks.
    """

    events: Tuple[EdgeEvent, ...]
    body: Statement
    is_combinational: bool


@dataclass(frozen=True, slots=True)
class PortConnection:
    """A connection in an instantiation; ``port`` is ``None`` for positional."""

    port: Optional[str]
    expr: Optional[Expr]


@dataclass(frozen=True, slots=True)
class Instance:
    """Module instantiation ``Type #(params) name (connections);``"""

    module: str
    name: str
    connections: Tuple[PortConnection, ...]
    parameters: Tuple[Tuple[Optional[str], Expr], ...] = ()


ModuleItem = Union[
    Port, NetDecl, ParamDecl, ContinuousAssign, Always, Instance
]


@dataclass
class Module:
    """A parsed (unelaborated) Verilog module."""

    name: str
    ports: List[Port] = field(default_factory=list)
    items: List[ModuleItem] = field(default_factory=list)
    port_order: List[str] = field(default_factory=list)

    def parameters(self) -> List[ParamDecl]:
        return [item for item in self.items if isinstance(item, ParamDecl)]

    def instances(self) -> List[Instance]:
        return [item for item in self.items if isinstance(item, Instance)]


@dataclass
class SourceFile:
    """A collection of modules parsed from one source text."""

    modules: List[Module] = field(default_factory=list)

    def module_map(self) -> dict:
        return {module.name: module for module in self.modules}


def walk_expr(expr: Expr):
    """Yield ``expr`` and all sub-expressions (pre-order)."""
    yield expr
    if isinstance(expr, Unary):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, Binary):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, Ternary):
        yield from walk_expr(expr.cond)
        yield from walk_expr(expr.then)
        yield from walk_expr(expr.otherwise)
    elif isinstance(expr, Concat):
        for part in expr.parts:
            yield from walk_expr(part)
    elif isinstance(expr, Repeat):
        yield from walk_expr(expr.count)
        yield from walk_expr(expr.value)
    elif isinstance(expr, (Index, RangeSelect)):
        yield from walk_expr(expr.target)
        if isinstance(expr, Index):
            yield from walk_expr(expr.index)
        else:
            yield from walk_expr(expr.msb)
            yield from walk_expr(expr.lsb)


def expr_identifiers(expr: Expr) -> set:
    """Names of all identifiers referenced by ``expr``."""
    return {node.name for node in walk_expr(expr) if isinstance(node, Ident)}
