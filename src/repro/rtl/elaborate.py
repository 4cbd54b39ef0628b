"""Elaboration: Verilog AST -> flat word-level RTL IR.

Responsibilities:

* resolve parameters and ranges to constants,
* flatten the module hierarchy (instance signals are prefixed ``inst.name``),
* convert ``always`` processes into per-register next-state expressions or
  combinational drivers (control flow becomes multiplexers),
* infer expression widths using simplified Verilog rules (operands are
  zero-extended to the widest operand; assignments truncate/extend to the
  target width),
* detect inferred latches, undriven signals, multiple drivers and
  combinational loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ElaborationError, UnsupportedFeatureError
from repro.rtl import exprs
from repro.rtl.ir import Module
from repro.verilog import ast
from repro.verilog.parser import parse_source


def elaborate_source(source_text: str, top: str, parameters: Optional[Dict[str, int]] = None) -> Module:
    """Parse ``source_text`` and elaborate module ``top`` into the flat IR."""
    return elaborate(parse_source(source_text), top, parameters)


def elaborate(source: ast.SourceFile, top: str, parameters: Optional[Dict[str, int]] = None) -> Module:
    """Elaborate module ``top`` of a parsed source file into the flat IR."""
    elaborator = _Elaborator(source.module_map())
    return elaborator.run(top, parameters or {})


# --------------------------------------------------------------------------- #
# Internal machinery
# --------------------------------------------------------------------------- #


@dataclass
class _SignalInfo:
    flat_name: str
    width: int
    is_reg: bool = False


@dataclass
class _Scope:
    """Per-module-instance name resolution context."""

    module: ast.Module
    prefix: str
    params: Dict[str, int] = field(default_factory=dict)
    signals: Dict[str, _SignalInfo] = field(default_factory=dict)

    def flat(self, local_name: str) -> str:
        return self.prefix + local_name


class _Elaborator:
    def __init__(self, module_map: Dict[str, ast.Module]) -> None:
        self._modules = module_map
        self._ir = Module(name="")
        # Partial continuous drivers: flat name -> list of (lsb, expr).
        self._partial_drivers: Dict[str, List[Tuple[int, exprs.Expr]]] = {}
        self._sequential_clocks: List[str] = []
        self._sequential_resets: List[str] = []
        # Inferred ROM tables, shared by every instance whose case statement
        # and parameter values agree (see _ProcessExecutor._rom_table).
        self._rom_tables: Dict[tuple, Optional[Tuple[str, Tuple[int, ...]]]] = {}

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #

    def run(self, top: str, parameters: Dict[str, int]) -> Module:
        if top not in self._modules:
            raise ElaborationError(f"top module {top!r} not found")
        self._ir = Module(name=top)
        top_scope = self._build_scope(self._modules[top], prefix="", overrides=parameters)
        self._declare_top_ports(top_scope)
        self._elaborate_body(top_scope)
        self._finalise_partial_drivers()
        self._resolve_clocks_and_resets()
        self._check_drivers()
        self._ir.validate()
        return self._ir

    # ------------------------------------------------------------------ #
    # Scope construction
    # ------------------------------------------------------------------ #

    def _build_scope(self, module: ast.Module, prefix: str, overrides: Dict[str, int]) -> _Scope:
        scope = _Scope(module=module, prefix=prefix)
        # Parameters are evaluated in declaration order so later ones may use
        # earlier ones; explicit overrides win for non-local parameters.
        for item in module.items:
            if isinstance(item, ast.ParamDecl):
                value = self._const_eval(item.value, scope)
                if not item.local and item.name in overrides:
                    value = overrides[item.name]
                scope.params[item.name] = value
        unknown = set(overrides) - set(scope.params)
        if unknown:
            raise ElaborationError(f"unknown parameter override(s) {sorted(unknown)} for module {module.name!r}")
        # Declare ports and nets.
        reg_names = set()
        for item in module.items:
            if isinstance(item, ast.NetDecl) and item.kind == "reg":
                reg_names.update(item.names)
        for port in module.ports:
            width = self._range_width(port.range, scope)
            is_reg = port.is_reg or port.name in reg_names
            self._declare_signal(scope, port.name, width, is_reg=is_reg)
        for item in module.items:
            if isinstance(item, ast.NetDecl):
                width = self._range_width(item.range, scope)
                if item.kind == "integer":
                    width = 32
                for name in item.names:
                    if name not in scope.signals:
                        self._declare_signal(scope, name, width, is_reg=(item.kind == "reg"))
                    elif item.kind == "reg":
                        scope.signals[name].is_reg = True
        return scope

    def _declare_signal(self, scope: _Scope, local_name: str, width: int, is_reg: bool) -> None:
        flat_name = scope.flat(local_name)
        scope.signals[local_name] = _SignalInfo(flat_name=flat_name, width=width, is_reg=is_reg)
        self._ir.add_wire(flat_name, width)

    def _declare_top_ports(self, scope: _Scope) -> None:
        declared = {port.name for port in scope.module.ports}
        for name in scope.module.port_order:
            if name not in declared:
                raise ElaborationError(f"port {name!r} listed in header but never declared")
        for port in scope.module.ports:
            width = scope.signals[port.name].width
            if port.direction == "input":
                self._ir.add_input(port.name, width)
            elif port.direction == "output":
                self._ir.add_output(port.name, width)
            else:
                raise UnsupportedFeatureError("inout ports are not supported")

    def _range_width(self, range_: Optional[ast.Range], scope: _Scope) -> int:
        if range_ is None:
            return 1
        msb = self._const_eval(range_.msb, scope)
        lsb = self._const_eval(range_.lsb, scope)
        if lsb != 0:
            raise UnsupportedFeatureError(f"ranges must be [msb:0], got [{msb}:{lsb}]")
        return msb - lsb + 1

    # ------------------------------------------------------------------ #
    # Module body
    # ------------------------------------------------------------------ #

    def _elaborate_body(self, scope: _Scope) -> None:
        for item in scope.module.items:
            if isinstance(item, ast.ContinuousAssign):
                self._elaborate_continuous_assign(item, scope)
            elif isinstance(item, ast.Always):
                self._elaborate_always(item, scope)
            elif isinstance(item, ast.Instance):
                self._elaborate_instance(item, scope)
            elif isinstance(item, (ast.NetDecl, ast.ParamDecl)):
                continue
            else:  # pragma: no cover - parser restricts item kinds
                raise UnsupportedFeatureError(f"unsupported module item {type(item).__name__}")

    # -- continuous assigns ------------------------------------------------ #

    def _elaborate_continuous_assign(self, item: ast.ContinuousAssign, scope: _Scope) -> None:
        targets = self._resolve_lvalue(item.lhs, scope)
        total_width = sum(width for _, _, width in targets)
        value = self._resize(self._convert_expr(item.rhs, scope), total_width)
        offset = total_width
        for flat_name, lsb, width in targets:
            offset -= width
            part = exprs.slice_expr(value, offset, width)
            self._partial_drivers.setdefault(flat_name, []).append((lsb, part))

    # -- instances ---------------------------------------------------------- #

    def _elaborate_instance(self, item: ast.Instance, scope: _Scope) -> None:
        if item.module not in self._modules:
            raise ElaborationError(f"instantiated module {item.module!r} is not defined")
        child_ast = self._modules[item.module]
        overrides = self._instance_parameter_overrides(item, child_ast, scope)
        child_prefix = scope.flat(item.name) + "."
        child_scope = self._build_scope(child_ast, prefix=child_prefix, overrides=overrides)
        connections = self._instance_connections(item, child_ast)
        child_ports = {port.name: port for port in child_ast.ports}
        for port_name, parent_expr in connections.items():
            if port_name not in child_ports:
                raise ElaborationError(f"module {item.module!r} has no port {port_name!r}")
            port = child_ports[port_name]
            info = child_scope.signals[port_name]
            if port.direction == "input":
                if parent_expr is None:
                    value: exprs.Expr = exprs.const(0, info.width)
                else:
                    value = self._resize(self._convert_expr(parent_expr, scope), info.width)
                self._partial_drivers.setdefault(info.flat_name, []).append((0, value))
            elif port.direction == "output":
                if parent_expr is None:
                    continue
                targets = self._resolve_lvalue(parent_expr, scope)
                source = exprs.ref(info.flat_name, info.width)
                total_width = sum(width for _, _, width in targets)
                source = self._resize(source, total_width)
                offset = total_width
                for flat_name, lsb, width in targets:
                    offset -= width
                    part = exprs.slice_expr(source, offset, width)
                    self._partial_drivers.setdefault(flat_name, []).append((lsb, part))
            else:
                raise UnsupportedFeatureError("inout ports are not supported")
        self._elaborate_body(child_scope)

    def _instance_parameter_overrides(
        self, item: ast.Instance, child: ast.Module, scope: _Scope
    ) -> Dict[str, int]:
        overridable = [param.name for param in child.parameters() if not param.local]
        overrides: Dict[str, int] = {}
        positional_index = 0
        for name, expr in item.parameters:
            value = self._const_eval(expr, scope)
            if name is None:
                if positional_index >= len(overridable):
                    raise ElaborationError(f"too many positional parameters for {child.name!r}")
                overrides[overridable[positional_index]] = value
                positional_index += 1
            else:
                overrides[name] = value
        return overrides

    def _instance_connections(
        self, item: ast.Instance, child: ast.Module
    ) -> Dict[str, Optional[ast.Expr]]:
        connections: Dict[str, Optional[ast.Expr]] = {}
        positional = [conn for conn in item.connections if conn.port is None]
        named = [conn for conn in item.connections if conn.port is not None]
        if positional and named:
            raise ElaborationError(f"instance {item.name!r} mixes positional and named connections")
        if positional:
            port_names = child.port_order or [port.name for port in child.ports]
            if len(positional) > len(port_names):
                raise ElaborationError(f"instance {item.name!r} has too many connections")
            for port_name, connection in zip(port_names, positional):
                connections[port_name] = connection.expr
        else:
            for connection in named:
                connections[connection.port] = connection.expr
        return connections

    # -- always blocks ------------------------------------------------------ #

    def _elaborate_always(self, item: ast.Always, scope: _Scope) -> None:
        if item.is_combinational:
            self._elaborate_combinational_always(item, scope)
        else:
            self._elaborate_sequential_always(item, scope)

    def _elaborate_combinational_always(self, item: ast.Always, scope: _Scope) -> None:
        executor = _ProcessExecutor(self, scope, sequential=False)
        executor.run(item.body)
        for local_name, value in executor.updates.items():
            info = scope.signals[local_name]
            final = self._resize(value, info.width)
            if info.flat_name in exprs.support(final):
                raise ElaborationError(
                    f"combinational always block infers a latch for {info.flat_name!r}: "
                    "the signal is not assigned on every path"
                )
            self._partial_drivers.setdefault(info.flat_name, []).append((0, final))

    def _elaborate_sequential_always(self, item: ast.Always, scope: _Scope) -> None:
        body_reads = _statement_identifiers(item.body)
        clock = None
        async_resets = []
        for event in item.events:
            if event.edge not in ("posedge", "negedge"):
                raise ElaborationError("sequential always blocks need edge-triggered events")
            if event.signal not in body_reads and clock is None:
                clock = event.signal
            else:
                async_resets.append(event.signal)
        if clock is None:
            # All event signals are referenced in the body; fall back to the first.
            clock = item.events[0].signal
            async_resets = [event.signal for event in item.events[1:]]
        clock_info = scope.signals.get(clock)
        if clock_info is None:
            raise ElaborationError(f"clock signal {clock!r} is not declared")
        self._sequential_clocks.append(clock_info.flat_name)
        for reset in async_resets:
            reset_info = scope.signals.get(reset)
            if reset_info is not None:
                self._sequential_resets.append(reset_info.flat_name)

        executor = _ProcessExecutor(self, scope, sequential=True)
        executor.run(item.body)
        reset_values = _extract_reset_values(item, scope, self)
        for local_name, value in executor.updates.items():
            info = scope.signals[local_name]
            if not info.is_reg:
                raise ElaborationError(
                    f"signal {info.flat_name!r} is assigned in a clocked block but not declared 'reg'"
                )
            next_expr = self._resize(value, info.width)
            if info.flat_name in self._ir.registers:
                raise ElaborationError(f"register {info.flat_name!r} assigned in multiple always blocks")
            self._ir.add_register(
                info.flat_name,
                info.width,
                next_expr,
                reset_value=reset_values.get(local_name),
            )

    # ------------------------------------------------------------------ #
    # Expression conversion
    # ------------------------------------------------------------------ #

    def _convert_expr(self, expr: ast.Expr, scope: _Scope, reads: Optional[Dict[str, exprs.Expr]] = None) -> exprs.Expr:
        reads = reads or {}
        if isinstance(expr, ast.Number):
            width = expr.width if expr.width is not None else 32
            return exprs.const(expr.value, width)
        if isinstance(expr, ast.Ident):
            return self._convert_ident(expr.name, scope, reads)
        if isinstance(expr, ast.Unary):
            return self._convert_unary(expr, scope, reads)
        if isinstance(expr, ast.Binary):
            return self._convert_binary(expr, scope, reads)
        if isinstance(expr, ast.Ternary):
            cond = exprs.reduce_or(self._convert_expr(expr.cond, scope, reads))
            then = self._convert_expr(expr.then, scope, reads)
            otherwise = self._convert_expr(expr.otherwise, scope, reads)
            width = max(then.width, otherwise.width)
            return exprs.mux(cond, self._resize(then, width), self._resize(otherwise, width))
        if isinstance(expr, ast.Concat):
            parts = tuple(self._convert_expr(part, scope, reads) for part in expr.parts)
            return exprs.concat(parts)
        if isinstance(expr, ast.Repeat):
            count = self._const_eval(expr.count, scope)
            value = self._convert_expr(expr.value, scope, reads)
            return exprs.concat(tuple(value for _ in range(count)))
        if isinstance(expr, ast.Index):
            return self._convert_index(expr, scope, reads)
        if isinstance(expr, ast.RangeSelect):
            target = self._convert_expr(expr.target, scope, reads)
            msb = self._const_eval(expr.msb, scope)
            lsb = self._const_eval(expr.lsb, scope)
            if msb < lsb:
                raise UnsupportedFeatureError("descending part selects are not supported")
            return exprs.slice_expr(target, lsb, msb - lsb + 1)
        raise UnsupportedFeatureError(f"unsupported expression node {type(expr).__name__}")

    def _convert_ident(self, name: str, scope: _Scope, reads: Dict[str, exprs.Expr]) -> exprs.Expr:
        if name in reads:
            return reads[name]
        if name in scope.params:
            return exprs.const(scope.params[name], 32)
        info = scope.signals.get(name)
        if info is None:
            raise ElaborationError(f"undeclared identifier {name!r} in module {scope.module.name!r}")
        return exprs.ref(info.flat_name, info.width)

    def _convert_unary(self, expr: ast.Unary, scope: _Scope, reads: Dict[str, exprs.Expr]) -> exprs.Expr:
        operand = self._convert_expr(expr.operand, scope, reads)
        op = expr.op
        if op == "+":
            return operand
        if op == "~":
            return exprs.Unop(width=operand.width, op=exprs.UnaryOp.NOT, operand=operand)
        if op == "-":
            return exprs.Unop(width=operand.width, op=exprs.UnaryOp.NEG, operand=operand)
        if op == "!":
            return exprs.logical_not(operand)
        if op == "&":
            return exprs.Unop(width=1, op=exprs.UnaryOp.RED_AND, operand=operand)
        if op == "|":
            return exprs.reduce_or(operand)
        if op == "^":
            return exprs.Unop(width=1, op=exprs.UnaryOp.RED_XOR, operand=operand)
        if op in ("~&", "~|", "~^"):
            inner_op = {"~&": exprs.UnaryOp.RED_AND, "~|": exprs.UnaryOp.RED_OR, "~^": exprs.UnaryOp.RED_XOR}[op]
            inner = exprs.Unop(width=1, op=inner_op, operand=operand)
            return exprs.Unop(width=1, op=exprs.UnaryOp.NOT, operand=inner)
        raise UnsupportedFeatureError(f"unsupported unary operator {op!r}")

    _BINOP_MAP = {
        "&": exprs.BinaryOp.AND,
        "|": exprs.BinaryOp.OR,
        "^": exprs.BinaryOp.XOR,
        "+": exprs.BinaryOp.ADD,
        "-": exprs.BinaryOp.SUB,
        "*": exprs.BinaryOp.MUL,
        "%": exprs.BinaryOp.MOD,
        "==": exprs.BinaryOp.EQ,
        "===": exprs.BinaryOp.EQ,
        "!=": exprs.BinaryOp.NE,
        "!==": exprs.BinaryOp.NE,
        "<": exprs.BinaryOp.ULT,
        "<=": exprs.BinaryOp.ULE,
        ">": exprs.BinaryOp.UGT,
        ">=": exprs.BinaryOp.UGE,
    }

    def _convert_binary(self, expr: ast.Binary, scope: _Scope, reads: Dict[str, exprs.Expr]) -> exprs.Expr:
        left = self._convert_expr(expr.left, scope, reads)
        right = self._convert_expr(expr.right, scope, reads)
        op = expr.op
        if op in ("&&", "||"):
            left_bool = exprs.reduce_or(left)
            right_bool = exprs.reduce_or(right)
            kind = exprs.BinaryOp.LOG_AND if op == "&&" else exprs.BinaryOp.LOG_OR
            return exprs.Binop(width=1, op=kind, left=left_bool, right=right_bool)
        if op in ("^~", "~^"):
            width = max(left.width, right.width)
            xor = exprs.Binop(width=width, op=exprs.BinaryOp.XOR,
                              left=self._resize(left, width), right=self._resize(right, width))
            return exprs.Unop(width=width, op=exprs.UnaryOp.NOT, operand=xor)
        if op in ("<<", "<<<"):
            return exprs.Binop(width=left.width, op=exprs.BinaryOp.SHL, left=left, right=right)
        if op in (">>", ">>>"):
            return exprs.Binop(width=left.width, op=exprs.BinaryOp.LSHR, left=left, right=right)
        if op == "/":
            raise UnsupportedFeatureError("division is not part of the synthesisable subset")
        kind = self._BINOP_MAP.get(op)
        if kind is None:
            raise UnsupportedFeatureError(f"unsupported binary operator {op!r}")
        if kind in (exprs.BinaryOp.EQ, exprs.BinaryOp.NE, exprs.BinaryOp.ULT,
                    exprs.BinaryOp.ULE, exprs.BinaryOp.UGT, exprs.BinaryOp.UGE):
            width = max(left.width, right.width)
            return exprs.Binop(width=1, op=kind, left=self._resize(left, width), right=self._resize(right, width))
        width = max(left.width, right.width)
        return exprs.Binop(width=width, op=kind, left=self._resize(left, width), right=self._resize(right, width))

    def _convert_index(self, expr: ast.Index, scope: _Scope, reads: Dict[str, exprs.Expr]) -> exprs.Expr:
        target = self._convert_expr(expr.target, scope, reads)
        try:
            index = self._const_eval(expr.index, scope)
        except ElaborationError:
            index = None
        if index is not None:
            if index >= target.width:
                raise ElaborationError(f"bit select [{index}] out of range for width {target.width}")
            return exprs.slice_expr(target, index, 1)
        shift_amount = self._convert_expr(expr.index, scope, reads)
        shifted = exprs.Binop(width=target.width, op=exprs.BinaryOp.LSHR, left=target, right=shift_amount)
        return exprs.slice_expr(shifted, 0, 1)

    def _resize(self, expr: exprs.Expr, width: int) -> exprs.Expr:
        if expr.width == width:
            return expr
        if isinstance(expr, exprs.Const):
            return exprs.const(expr.value, width)
        if expr.width > width:
            return exprs.slice_expr(expr, 0, width)
        return exprs.concat((exprs.const(0, width - expr.width), expr))

    # ------------------------------------------------------------------ #
    # L-values
    # ------------------------------------------------------------------ #

    def _resolve_lvalue(self, expr: ast.Expr, scope: _Scope) -> List[Tuple[str, int, int]]:
        """Resolve an l-value into ``[(flat_name, lsb, width)]``, MSB-part first."""
        if isinstance(expr, ast.Ident):
            info = scope.signals.get(expr.name)
            if info is None:
                raise ElaborationError(f"undeclared l-value {expr.name!r}")
            return [(info.flat_name, 0, info.width)]
        if isinstance(expr, ast.Index):
            base = self._resolve_lvalue(expr.target, scope)
            if len(base) != 1:
                raise UnsupportedFeatureError("bit select of concatenated l-value")
            flat_name, base_lsb, _ = base[0]
            index = self._const_eval(expr.index, scope)
            return [(flat_name, base_lsb + index, 1)]
        if isinstance(expr, ast.RangeSelect):
            base = self._resolve_lvalue(expr.target, scope)
            if len(base) != 1:
                raise UnsupportedFeatureError("part select of concatenated l-value")
            flat_name, base_lsb, _ = base[0]
            msb = self._const_eval(expr.msb, scope)
            lsb = self._const_eval(expr.lsb, scope)
            return [(flat_name, base_lsb + lsb, msb - lsb + 1)]
        if isinstance(expr, ast.Concat):
            targets: List[Tuple[str, int, int]] = []
            for part in expr.parts:
                targets.extend(self._resolve_lvalue(part, scope))
            return targets
        raise UnsupportedFeatureError(f"unsupported l-value {type(expr).__name__}")

    # ------------------------------------------------------------------ #
    # Constant evaluation
    # ------------------------------------------------------------------ #

    def _const_eval(self, expr: ast.Expr, scope: _Scope) -> int:
        if isinstance(expr, ast.Number):
            return expr.value
        if isinstance(expr, ast.Ident):
            if expr.name in scope.params:
                return scope.params[expr.name]
            raise ElaborationError(f"{expr.name!r} is not a constant")
        if isinstance(expr, ast.Unary):
            value = self._const_eval(expr.operand, scope)
            if expr.op == "-":
                return -value
            if expr.op == "+":
                return value
            if expr.op == "~":
                return ~value
            if expr.op == "!":
                return 0 if value else 1
            raise ElaborationError(f"operator {expr.op!r} not allowed in constant expressions")
        if isinstance(expr, ast.Binary):
            left = self._const_eval(expr.left, scope)
            right = self._const_eval(expr.right, scope)
            operations = {
                "+": lambda: left + right,
                "-": lambda: left - right,
                "*": lambda: left * right,
                "/": lambda: left // right,
                "%": lambda: left % right,
                "<<": lambda: left << right,
                ">>": lambda: left >> right,
                "&": lambda: left & right,
                "|": lambda: left | right,
                "^": lambda: left ^ right,
                "==": lambda: int(left == right),
                "!=": lambda: int(left != right),
                "<": lambda: int(left < right),
                "<=": lambda: int(left <= right),
                ">": lambda: int(left > right),
                ">=": lambda: int(left >= right),
            }
            if expr.op not in operations:
                raise ElaborationError(f"operator {expr.op!r} not allowed in constant expressions")
            return operations[expr.op]()
        if isinstance(expr, ast.Ternary):
            return (
                self._const_eval(expr.then, scope)
                if self._const_eval(expr.cond, scope)
                else self._const_eval(expr.otherwise, scope)
            )
        raise ElaborationError(f"expression {type(expr).__name__} is not constant")

    # ------------------------------------------------------------------ #
    # Finalisation
    # ------------------------------------------------------------------ #

    def _finalise_partial_drivers(self) -> None:
        for flat_name, pieces in self._partial_drivers.items():
            width = self._ir.width_of(flat_name)
            if len(pieces) == 1 and pieces[0][0] == 0 and pieces[0][1].width == width:
                self._ir.add_comb(flat_name, pieces[0][1])
                continue
            occupied = [None] * width
            for lsb, value in pieces:
                for bit in range(lsb, lsb + value.width):
                    if bit >= width:
                        raise ElaborationError(f"assignment to {flat_name!r} exceeds its width")
                    if occupied[bit] is not None:
                        raise ElaborationError(f"signal {flat_name!r} has multiple drivers for bit {bit}")
                    occupied[bit] = (lsb, value)
            parts: List[exprs.Expr] = []  # assembled MSB-first
            bit = width
            while bit > 0:
                entry = occupied[bit - 1]
                if entry is None:
                    run_end = bit
                    while bit > 0 and occupied[bit - 1] is None:
                        bit -= 1
                    parts.append(exprs.const(0, run_end - bit))
                else:
                    lsb, value = entry
                    parts.append(value)
                    bit = lsb
            self._ir.add_comb(flat_name, exprs.concat(tuple(parts)))

    def _resolve_clocks_and_resets(self) -> None:
        for flat_name in self._sequential_clocks:
            source = self._trace_to_input(flat_name)
            if source is not None:
                self._ir.clocks.add(source)
        for flat_name in self._sequential_resets:
            source = self._trace_to_input(flat_name)
            if source is not None and source not in self._ir.clocks:
                self._ir.resets.add(source)

    def _trace_to_input(self, flat_name: str) -> Optional[str]:
        seen = set()
        name = flat_name
        while name not in seen:
            seen.add(name)
            if name in self._ir.inputs:
                return name
            driver = self._partial_drivers.get(name)
            if driver and len(driver) == 1 and isinstance(driver[0][1], exprs.Ref):
                name = driver[0][1].name
                continue
            return None
        return None

    def _check_drivers(self) -> None:
        driven = set(self._ir.inputs) | set(self._ir.comb) | set(self._ir.registers)
        used: Dict[str, str] = {}
        for name, expr in self._ir.comb.items():
            for dependency in exprs.support(expr):
                used.setdefault(dependency, name)
        for name, register in self._ir.registers.items():
            for dependency in exprs.support(register.next):
                used.setdefault(dependency, name)
        undriven = [name for name in used if name not in driven]
        if undriven:
            raise ElaborationError(
                "signals used but never driven: " + ", ".join(sorted(undriven)[:10])
            )


# --------------------------------------------------------------------------- #
# Procedural statement execution
# --------------------------------------------------------------------------- #


class _ProcessExecutor:
    """Symbolically executes an always-block body into per-target expressions."""

    def __init__(self, elaborator: _Elaborator, scope: _Scope, sequential: bool) -> None:
        self._elaborator = elaborator
        self._scope = scope
        self._sequential = sequential
        # blocking: values visible to subsequent reads inside the block.
        self.blocking: Dict[str, exprs.Expr] = {}
        # updates: final values per local signal name.
        self.updates: Dict[str, exprs.Expr] = {}

    def run(self, statement: ast.Statement) -> None:
        self._exec(statement)

    # -- helpers ------------------------------------------------------------ #

    def _current_value(self, local_name: str) -> exprs.Expr:
        info = self._scope.signals[local_name]
        if local_name in self.updates:
            return self._elaborator._resize(self.updates[local_name], info.width)
        if local_name in self.blocking:
            return self._elaborator._resize(self.blocking[local_name], info.width)
        return exprs.ref(info.flat_name, info.width)

    def _reads_env(self) -> Dict[str, exprs.Expr]:
        env = {}
        for local_name, value in self.blocking.items():
            info = self._scope.signals.get(local_name)
            if info is not None:
                env[local_name] = self._elaborator._resize(value, info.width)
        return env

    # -- statement dispatch -------------------------------------------------- #

    def _exec(self, statement: ast.Statement) -> None:
        if isinstance(statement, ast.Block):
            for child in statement.statements:
                self._exec(child)
        elif isinstance(statement, ast.Assignment):
            self._exec_assignment(statement)
        elif isinstance(statement, ast.If):
            self._exec_if(statement)
        elif isinstance(statement, ast.Case):
            self._exec_case(statement)
        else:  # pragma: no cover - parser restricts statement kinds
            raise UnsupportedFeatureError(f"unsupported statement {type(statement).__name__}")

    def _exec_assignment(self, statement: ast.Assignment) -> None:
        value = self._elaborator._convert_expr(statement.rhs, self._scope, self._reads_env())
        targets = self._resolve_procedural_lvalue(statement.lhs)
        total_width = sum(width for _, _, width in targets)
        value = self._elaborator._resize(value, total_width)
        offset = total_width
        for local_name, lsb, width in targets:
            offset -= width
            part = exprs.slice_expr(value, offset, width)
            info = self._scope.signals[local_name]
            if lsb == 0 and width == info.width:
                new_value: exprs.Expr = part
            else:
                new_value = exprs.insert_bits(self._current_value(local_name), lsb, part)
            self.updates[local_name] = new_value
            if statement.blocking:
                self.blocking[local_name] = new_value

    def _resolve_procedural_lvalue(self, expr: ast.Expr) -> List[Tuple[str, int, int]]:
        if isinstance(expr, ast.Ident):
            info = self._scope.signals.get(expr.name)
            if info is None:
                raise ElaborationError(f"undeclared l-value {expr.name!r}")
            return [(expr.name, 0, info.width)]
        if isinstance(expr, ast.Index):
            base = self._resolve_procedural_lvalue(expr.target)
            if len(base) != 1:
                raise UnsupportedFeatureError("bit select of concatenated l-value")
            name, base_lsb, _ = base[0]
            index = self._elaborator._const_eval(expr.index, self._scope)
            return [(name, base_lsb + index, 1)]
        if isinstance(expr, ast.RangeSelect):
            base = self._resolve_procedural_lvalue(expr.target)
            if len(base) != 1:
                raise UnsupportedFeatureError("part select of concatenated l-value")
            name, base_lsb, _ = base[0]
            msb = self._elaborator._const_eval(expr.msb, self._scope)
            lsb = self._elaborator._const_eval(expr.lsb, self._scope)
            return [(name, base_lsb + lsb, msb - lsb + 1)]
        if isinstance(expr, ast.Concat):
            targets: List[Tuple[str, int, int]] = []
            for part in expr.parts:
                targets.extend(self._resolve_procedural_lvalue(part))
            return targets
        raise UnsupportedFeatureError(f"unsupported procedural l-value {type(expr).__name__}")

    def _exec_if(self, statement: ast.If) -> None:
        condition = exprs.reduce_or(
            self._elaborator._convert_expr(statement.cond, self._scope, self._reads_env())
        )
        then_branch = self._fork()
        then_branch._exec(statement.then)
        else_branch = self._fork()
        if statement.otherwise is not None:
            else_branch._exec(statement.otherwise)
        self._merge(condition, then_branch, else_branch)

    # Largest case subject width for which a fully constant case statement is
    # turned into an inferred ROM (a :class:`repro.rtl.exprs.Lut` node).
    _ROM_INFERENCE_MAX_INDEX_WIDTH = 12

    def _try_rom_inference(self, statement: ast.Case) -> bool:
        """Convert a fully constant case statement into a single LUT assignment.

        Recognised shape: every arm assigns one constant to the same simple
        target (the AES S-box tables of the benchmark designs).  Returns True
        when the statement was handled.
        """
        subject = self._elaborator._convert_expr(statement.subject, self._scope, self._reads_env())
        index_width = subject.width
        if index_width > self._ROM_INFERENCE_MAX_INDEX_WIDTH:
            return False
        # The table depends only on the statement, the index width and the
        # parameter values (constants evaluate against nothing else), so it
        # is built once per elaboration and shared by every such instance.
        key = (id(statement), index_width, tuple(sorted(self._scope.params.items())))
        tables = self._elaborator._rom_tables
        if key not in tables:
            tables[key] = self._rom_table(statement, index_width)
        rom = tables[key]
        if rom is None:
            return False
        target, table = rom
        info = self._scope.signals.get(target)
        if info is None:
            return False
        lut = exprs.Lut(width=info.width, index=subject, table=table)
        self.updates[target] = lut
        self.blocking[target] = lut
        return True

    def _rom_table(
        self, statement: ast.Case, index_width: int
    ) -> Optional[Tuple[str, Tuple[int, ...]]]:
        """``(target, table)`` of a fully constant case statement, or None."""
        target: Optional[str] = None
        entries: Dict[int, int] = {}
        default_value: Optional[int] = None
        for item in statement.items:
            body = item.body
            if isinstance(body, ast.Block) and len(body.statements) == 1:
                body = body.statements[0]
            if not isinstance(body, ast.Assignment) or not isinstance(body.lhs, ast.Ident):
                return None
            if target is None:
                target = body.lhs.name
            elif target != body.lhs.name:
                return None
            try:
                value = self._elaborator._const_eval(body.rhs, self._scope)
            except ElaborationError:
                return None
            if not item.labels:
                default_value = value
                continue
            for label in item.labels:
                try:
                    label_value = self._elaborator._const_eval(label, self._scope)
                except ElaborationError:
                    return None
                entries[label_value & ((1 << index_width) - 1)] = value
        if target is None:
            return None
        size = 1 << index_width
        if default_value is None and len(entries) < size:
            return None
        fill = default_value if default_value is not None else 0
        return target, tuple(entries.get(index, fill) for index in range(size))

    def _exec_case(self, statement: ast.Case) -> None:
        if self._try_rom_inference(statement):
            return
        subject = self._elaborator._convert_expr(statement.subject, self._scope, self._reads_env())
        arms: List[Tuple[Optional[exprs.Expr], ast.Statement]] = []
        default_body: Optional[ast.Statement] = None
        for item in statement.items:
            if not item.labels:
                default_body = item.body
                continue
            condition: Optional[exprs.Expr] = None
            for label in item.labels:
                label_expr = self._elaborator._convert_expr(label, self._scope, self._reads_env())
                width = max(subject.width, label_expr.width)
                comparison = exprs.equals(
                    self._elaborator._resize(subject, width), self._elaborator._resize(label_expr, width)
                )
                condition = comparison if condition is None else exprs.Binop(
                    width=1, op=exprs.BinaryOp.LOG_OR, left=condition, right=comparison
                )
            arms.append((condition, item.body))
        self._exec_case_chain(arms, default_body)

    def _exec_case_chain(
        self,
        arms: List[Tuple[Optional[exprs.Expr], ast.Statement]],
        default_body: Optional[ast.Statement],
    ) -> None:
        if not arms:
            if default_body is not None:
                self._exec(default_body)
            return
        condition, body = arms[0]
        then_branch = self._fork()
        then_branch._exec(body)
        else_branch = self._fork()
        else_branch._exec_case_chain(arms[1:], default_body)
        self._merge(condition, then_branch, else_branch)

    # -- branch management --------------------------------------------------- #

    def _fork(self) -> "_ProcessExecutor":
        clone = _ProcessExecutor(self._elaborator, self._scope, self._sequential)
        clone.blocking = dict(self.blocking)
        clone.updates = dict(self.updates)
        return clone

    def _merge(self, condition: exprs.Expr, then_branch: "_ProcessExecutor", else_branch: "_ProcessExecutor") -> None:
        touched = set(then_branch.updates) | set(else_branch.updates)
        for local_name in touched:
            info = self._scope.signals[local_name]
            base = self._current_value(local_name)
            then_value = self._elaborator._resize(then_branch.updates.get(local_name, base), info.width)
            else_value = self._elaborator._resize(else_branch.updates.get(local_name, base), info.width)
            if then_value == else_value:
                merged = then_value
            else:
                merged = exprs.mux(condition, then_value, else_value)
            self.updates[local_name] = merged
        touched_blocking = set(then_branch.blocking) | set(else_branch.blocking)
        for local_name in touched_blocking:
            if local_name in self.updates:
                self.blocking[local_name] = self.updates[local_name]


# --------------------------------------------------------------------------- #
# Reset value extraction (best effort, simulator only)
# --------------------------------------------------------------------------- #


def _statement_identifiers(statement: ast.Statement) -> set:
    names: set = set()
    if isinstance(statement, ast.Block):
        for child in statement.statements:
            names |= _statement_identifiers(child)
    elif isinstance(statement, ast.Assignment):
        names |= ast.expr_identifiers(statement.rhs)
        names |= ast.expr_identifiers(statement.lhs)
    elif isinstance(statement, ast.If):
        names |= ast.expr_identifiers(statement.cond)
        names |= _statement_identifiers(statement.then)
        if statement.otherwise is not None:
            names |= _statement_identifiers(statement.otherwise)
    elif isinstance(statement, ast.Case):
        names |= ast.expr_identifiers(statement.subject)
        for item in statement.items:
            for label in item.labels:
                names |= ast.expr_identifiers(label)
            names |= _statement_identifiers(item.body)
    return names


def _extract_reset_values(item: ast.Always, scope: _Scope, elaborator: _Elaborator) -> Dict[str, int]:
    """Best-effort extraction of per-register reset constants for the simulator.

    Recognises the common idiom ``if (rst) begin r <= CONST; ... end else ...``
    (or an active-low ``!rst_n`` condition).  Anything more exotic simply yields
    no reset value; the simulator then starts the register at zero.
    """
    body = item.body
    if isinstance(body, ast.Block) and len(body.statements) == 1:
        body = body.statements[0]
    if not isinstance(body, ast.If):
        return {}
    condition_names = ast.expr_identifiers(body.cond)
    if len(condition_names) != 1:
        return {}
    reset_branch = body.then
    values: Dict[str, int] = {}
    statements = reset_branch.statements if isinstance(reset_branch, ast.Block) else (reset_branch,)
    for statement in statements:
        if isinstance(statement, ast.Assignment) and isinstance(statement.lhs, ast.Ident):
            if isinstance(statement.rhs, ast.Number):
                values[statement.lhs.name] = statement.rhs.value
            else:
                try:
                    values[statement.lhs.name] = elaborator._const_eval(statement.rhs, scope)
                except Exception:
                    continue
    return values
