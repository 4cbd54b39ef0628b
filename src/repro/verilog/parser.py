"""Recursive-descent parser for the supported Verilog subset."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import List, Optional, Tuple, Union

from repro.errors import UnsupportedFeatureError, VerilogSyntaxError
from repro.verilog import ast
from repro.verilog.lexer import (
    Lexer,
    Token,
    TokenKind,
    endmodule_offsets,
    parse_based_literal,
)

#: Distinct module texts whose parse :func:`parse_source` keeps.
MODULE_MEMO_SIZE = 256


class _ModuleMemo:
    """Parsed modules by exact module text: LRU-bounded and thread-safe.

    ``repro serve`` audits on worker threads of one process, so every access
    holds the lock.  A miss is parsed outside it; two threads racing on the
    same text both parse it, and the second store wins.
    """

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._entries: "OrderedDict[str, Tuple[ast.Module, ...]]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, text: str) -> Optional[Tuple[ast.Module, ...]]:
        with self._lock:
            modules = self._entries.get(text)
            if modules is not None:
                self._entries.move_to_end(text)
            return modules

    def put(self, text: str, modules: Tuple[ast.Module, ...]) -> None:
        with self._lock:
            self._entries[text] = modules
            self._entries.move_to_end(text)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


_MODULE_MEMO = _ModuleMemo(MODULE_MEMO_SIZE)


def parse_source(source: str) -> ast.SourceFile:
    """Parse Verilog source text into a :class:`repro.verilog.ast.SourceFile`.

    The text is cut just after every ``endmodule`` keyword, and each piece
    is lexed and parsed only the first time its exact text is seen by this
    process (:data:`MODULE_MEMO_SIZE` pieces are kept).  The Table-I
    benchmarks repeat the same cores in almost every design, so most pieces
    are memo hits.  Syntax errors still carry file-relative lines and
    columns, and a lexical error anywhere in the file is reported before
    any parse error, as when the whole text is tokenized first.

    The returned :class:`ast.Module` objects are therefore shared between
    calls and must be treated as read-only; nothing in the package mutates
    a parsed module.
    """
    result = ast.SourceFile()
    start = 0
    for end in endmodule_offsets(source) + [len(source)]:
        if end == start:
            continue
        text = source[start:end]
        modules = _MODULE_MEMO.get(text)
        if modules is None:
            line = source.count("\n", 0, start) + 1
            column = start - source.rfind("\n", 0, start)
            tokens = Lexer(text, line, column).tokenize()
            modules = tuple(Parser(tokens).parse().modules)
            _MODULE_MEMO.put(text, modules)
        result.modules.extend(modules)
        start = end
    return result


# Binary operator precedence, higher binds tighter.  The conditional operator
# is handled separately (right-associative, lowest precedence).
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4, "^~": 4, "~^": 4,
    "&": 5,
    "==": 6, "!=": 6, "===": 6, "!==": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8, "<<<": 8, ">>>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_UNARY_OPS = {"~", "-", "+", "!", "&", "|", "^", "~&", "~|", "~^"}


class Parser:
    """Parses a token stream produced by :class:`repro.verilog.lexer.Lexer`."""

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._index = 0

    # ------------------------------------------------------------------ #
    # Token helpers
    # ------------------------------------------------------------------ #

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind != TokenKind.EOF:
            self._index += 1
        return token

    def _error(self, message: str, token: Optional[Token] = None) -> VerilogSyntaxError:
        token = token or self._peek()
        return VerilogSyntaxError(f"{message}, found {token.text!r}", token.line, token.column)

    def _expect_keyword(self, word: str) -> Token:
        token = self._advance()
        if not token.is_keyword(word):
            raise self._error(f"expected keyword {word!r}", token)
        return token

    def _expect_punct(self, text: str) -> Token:
        token = self._advance()
        if not token.is_punct(text):
            raise self._error(f"expected {text!r}", token)
        return token

    def _expect_operator(self, text: str) -> Token:
        token = self._advance()
        if not token.is_operator(text):
            raise self._error(f"expected {text!r}", token)
        return token

    def _expect_ident(self) -> str:
        token = self._advance()
        if token.kind != TokenKind.IDENT:
            raise self._error("expected identifier", token)
        return token.text

    def _accept_keyword(self, word: str) -> bool:
        if self._peek().is_keyword(word):
            self._advance()
            return True
        return False

    def _accept_punct(self, text: str) -> bool:
        if self._peek().is_punct(text):
            self._advance()
            return True
        return False

    def _accept_operator(self, text: str) -> bool:
        if self._peek().is_operator(text):
            self._advance()
            return True
        return False

    # ------------------------------------------------------------------ #
    # Top level
    # ------------------------------------------------------------------ #

    def parse(self) -> ast.SourceFile:
        source = ast.SourceFile()
        while not self._peek().kind == TokenKind.EOF:
            source.modules.append(self._parse_module())
        return source

    def _parse_module(self) -> ast.Module:
        self._expect_keyword("module")
        module = ast.Module(name=self._expect_ident())
        if self._accept_punct("#"):
            self._parse_parameter_port_list(module)
        if self._accept_punct("("):
            self._parse_port_list(module)
        self._expect_punct(";")
        while not self._peek().is_keyword("endmodule"):
            if self._peek().kind == TokenKind.EOF:
                raise self._error("unexpected end of file inside module")
            self._parse_module_item(module)
        self._expect_keyword("endmodule")
        return module

    def _parse_parameter_port_list(self, module: ast.Module) -> None:
        self._expect_punct("(")
        while True:
            self._accept_keyword("parameter")
            name = self._expect_ident()
            self._expect_operator("=")
            module.items.append(ast.ParamDecl(name=name, value=self._parse_expression()))
            if not self._accept_punct(","):
                break
        self._expect_punct(")")

    def _parse_port_list(self, module: ast.Module) -> None:
        if self._accept_punct(")"):
            return
        while True:
            token = self._peek()
            if token.is_keyword("input") or token.is_keyword("output") or token.is_keyword("inout"):
                direction = self._advance().text
                is_reg = self._accept_keyword("reg")
                self._accept_keyword("wire")
                self._accept_keyword("signed")
                range_ = self._parse_optional_range()
                name = self._expect_ident()
                module.ports.append(ast.Port(name=name, direction=direction, range=range_, is_reg=is_reg))
                module.port_order.append(name)
                # Additional names share direction/range until the next direction keyword.
                while self._peek().is_punct(",") and self._peek(1).kind == TokenKind.IDENT:
                    self._advance()
                    extra = self._expect_ident()
                    module.ports.append(ast.Port(name=extra, direction=direction, range=range_, is_reg=is_reg))
                    module.port_order.append(extra)
            elif token.kind == TokenKind.IDENT:
                module.port_order.append(self._expect_ident())
            else:
                raise self._error("expected port declaration")
            if not self._accept_punct(","):
                break
        self._expect_punct(")")

    # ------------------------------------------------------------------ #
    # Module items
    # ------------------------------------------------------------------ #

    def _parse_module_item(self, module: ast.Module) -> None:
        token = self._peek()
        if token.is_keyword("input") or token.is_keyword("output") or token.is_keyword("inout"):
            self._parse_port_declaration(module)
        elif token.is_keyword("wire") or token.is_keyword("reg") or token.is_keyword("integer"):
            module.items.extend(self._parse_net_declaration())
        elif token.is_keyword("parameter") or token.is_keyword("localparam"):
            module.items.extend(self._parse_parameter_declaration())
        elif token.is_keyword("assign"):
            module.items.extend(self._parse_continuous_assign())
        elif token.is_keyword("always"):
            module.items.append(self._parse_always())
        elif token.is_keyword("initial"):
            raise UnsupportedFeatureError("'initial' blocks are not part of the synthesisable subset")
        elif token.is_keyword("function") or token.is_keyword("generate") or token.is_keyword("for"):
            raise UnsupportedFeatureError(f"'{token.text}' constructs are not supported; flatten them in the source generator")
        elif token.kind == TokenKind.IDENT:
            module.items.append(self._parse_instance())
        else:
            raise self._error("unexpected token in module body")

    def _parse_port_declaration(self, module: ast.Module) -> None:
        direction = self._advance().text
        is_reg = self._accept_keyword("reg")
        self._accept_keyword("wire")
        self._accept_keyword("signed")
        range_ = self._parse_optional_range()
        names = [self._expect_ident()]
        while self._accept_punct(","):
            names.append(self._expect_ident())
        self._expect_punct(";")
        existing = {port.name: index for index, port in enumerate(module.ports)}
        for name in names:
            port = ast.Port(name=name, direction=direction, range=range_, is_reg=is_reg)
            if name in existing:
                module.ports[existing[name]] = port
            else:
                module.ports.append(port)
        if is_reg:
            module.items.append(ast.NetDecl(kind="reg", names=tuple(names), range=range_))

    def _parse_net_declaration(self) -> List[Union[ast.NetDecl, ast.ContinuousAssign]]:
        kind = self._advance().text
        self._accept_keyword("signed")
        range_ = self._parse_optional_range()
        names = []
        initialisers: List[ast.ContinuousAssign] = []
        while True:
            name = self._expect_ident()
            names.append(name)
            # Memories (e.g. ``reg [7:0] mem [0:255]``) are outside the subset.
            if self._peek().is_punct("["):
                raise UnsupportedFeatureError("memory arrays are not supported by the subset")
            if self._accept_operator("="):
                # Net declaration with initialiser: ``wire [7:0] x = expr;``
                if kind == "reg":
                    raise UnsupportedFeatureError("register initialisers are not supported")
                initialisers.append(
                    ast.ContinuousAssign(lhs=ast.Ident(name=name), rhs=self._parse_expression())
                )
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        items: List[Union[ast.NetDecl, ast.ContinuousAssign]] = [
            ast.NetDecl(kind=kind, names=tuple(names), range=range_)
        ]
        items.extend(initialisers)
        return items

    def _parse_parameter_declaration(self) -> List[ast.ParamDecl]:
        local = self._advance().text == "localparam"
        self._parse_optional_range()
        declarations = []
        while True:
            name = self._expect_ident()
            self._expect_operator("=")
            declarations.append(ast.ParamDecl(name=name, value=self._parse_expression(), local=local))
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        return declarations

    def _parse_continuous_assign(self) -> List[ast.ContinuousAssign]:
        self._expect_keyword("assign")
        assigns = []
        while True:
            lhs = self._parse_expression()
            self._expect_operator("=")
            rhs = self._parse_expression()
            assigns.append(ast.ContinuousAssign(lhs=lhs, rhs=rhs))
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        return assigns

    def _parse_always(self) -> ast.Always:
        self._expect_keyword("always")
        self._expect_punct("@")
        events: List[ast.EdgeEvent] = []
        is_combinational = False
        self._expect_punct("(")
        if self._accept_operator("*"):
            is_combinational = True
        else:
            while True:
                token = self._peek()
                if token.is_keyword("posedge") or token.is_keyword("negedge"):
                    edge = self._advance().text
                    events.append(ast.EdgeEvent(edge=edge, signal=self._expect_ident()))
                else:
                    # Level-sensitive list => combinational block.
                    is_combinational = True
                    events.append(ast.EdgeEvent(edge="level", signal=self._expect_ident()))
                if self._accept_keyword("or") or self._accept_punct(","):
                    continue
                break
        self._expect_punct(")")
        body = self._parse_statement()
        if events and all(event.edge == "level" for event in events):
            is_combinational = True
        return ast.Always(events=tuple(events), body=body, is_combinational=is_combinational)

    def _parse_instance(self) -> ast.Instance:
        module_name = self._expect_ident()
        parameters: List[Tuple[Optional[str], ast.Expr]] = []
        if self._accept_punct("#"):
            self._expect_punct("(")
            while True:
                if self._accept_punct("."):
                    param_name = self._expect_ident()
                    self._expect_punct("(")
                    parameters.append((param_name, self._parse_expression()))
                    self._expect_punct(")")
                else:
                    parameters.append((None, self._parse_expression()))
                if not self._accept_punct(","):
                    break
            self._expect_punct(")")
        instance_name = self._expect_ident()
        self._expect_punct("(")
        connections: List[ast.PortConnection] = []
        if not self._peek().is_punct(")"):
            while True:
                if self._accept_punct("."):
                    port_name = self._expect_ident()
                    self._expect_punct("(")
                    expr = None if self._peek().is_punct(")") else self._parse_expression()
                    self._expect_punct(")")
                    connections.append(ast.PortConnection(port=port_name, expr=expr))
                else:
                    connections.append(ast.PortConnection(port=None, expr=self._parse_expression()))
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")
        self._expect_punct(";")
        return ast.Instance(
            module=module_name,
            name=instance_name,
            connections=tuple(connections),
            parameters=tuple(parameters),
        )

    # ------------------------------------------------------------------ #
    # Statements
    # ------------------------------------------------------------------ #

    def _parse_statement(self) -> ast.Statement:
        token = self._peek()
        if token.is_keyword("begin"):
            self._advance()
            if self._accept_punct(":"):
                self._expect_ident()
            statements = []
            while not self._peek().is_keyword("end"):
                statements.append(self._parse_statement())
            self._expect_keyword("end")
            return ast.Block(statements=tuple(statements))
        if token.is_keyword("if"):
            self._advance()
            self._expect_punct("(")
            cond = self._parse_expression()
            self._expect_punct(")")
            then = self._parse_statement()
            otherwise = None
            if self._accept_keyword("else"):
                otherwise = self._parse_statement()
            return ast.If(cond=cond, then=then, otherwise=otherwise)
        if token.is_keyword("case") or token.is_keyword("casez") or token.is_keyword("casex"):
            return self._parse_case()
        if token.is_punct(";"):
            self._advance()
            return ast.Block(statements=())
        return self._parse_procedural_assignment()

    def _parse_case(self) -> ast.Case:
        kind = self._advance().text
        self._expect_punct("(")
        subject = self._parse_expression()
        self._expect_punct(")")
        items: List[ast.CaseItem] = []
        while not self._peek().is_keyword("endcase"):
            if self._accept_keyword("default"):
                self._accept_punct(":")
                items.append(ast.CaseItem(labels=(), body=self._parse_statement()))
                continue
            labels = [self._parse_expression()]
            while self._accept_punct(","):
                labels.append(self._parse_expression())
            self._expect_punct(":")
            items.append(ast.CaseItem(labels=tuple(labels), body=self._parse_statement()))
        self._expect_keyword("endcase")
        return ast.Case(subject=subject, items=tuple(items), kind=kind)

    def _parse_procedural_assignment(self) -> ast.Assignment:
        lhs = self._parse_primary()
        token = self._advance()
        if token.is_operator("<="):
            blocking = False
        elif token.is_operator("="):
            blocking = True
        else:
            raise self._error("expected '=' or '<=' in procedural assignment", token)
        rhs = self._parse_expression()
        self._expect_punct(";")
        return ast.Assignment(lhs=lhs, rhs=rhs, blocking=blocking)

    # ------------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------------ #

    def _parse_expression(self) -> ast.Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expr:
        condition = self._parse_binary(1)
        if self._accept_operator("?"):
            then = self._parse_ternary()
            self._expect_punct(":")
            otherwise = self._parse_ternary()
            return ast.Ternary(cond=condition, then=then, otherwise=otherwise)
        return condition

    def _parse_binary(self, min_precedence: int) -> ast.Expr:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.kind != TokenKind.OPERATOR:
                return left
            precedence = _BINARY_PRECEDENCE.get(token.text)
            if precedence is None or precedence < min_precedence:
                return left
            self._advance()
            right = self._parse_binary(precedence + 1)
            left = ast.Binary(op=token.text, left=left, right=right)

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        if token.kind == TokenKind.OPERATOR and token.text in _UNARY_OPS:
            self._advance()
            return ast.Unary(op=token.text, operand=self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self._advance()
        if token.kind == TokenKind.NUMBER:
            # A decimal size prefix of a based literal is merged by the lexer,
            # so a bare NUMBER here is always an unsized decimal literal.
            return ast.Number(value=int(token.text.replace("_", "")), width=None)
        if token.kind == TokenKind.BASED_NUMBER:
            width, value = parse_based_literal(token.text)
            return ast.Number(value=value, width=width)
        if token.is_punct("{"):
            return self._parse_concat_or_repeat()
        if token.is_punct("("):
            expr = self._parse_expression()
            self._expect_punct(")")
            return self._parse_selects(expr)
        if token.kind == TokenKind.IDENT:
            return self._parse_selects(ast.Ident(name=token.text))
        raise self._error("expected expression", token)

    def _parse_concat_or_repeat(self) -> ast.Expr:
        first = self._parse_expression()
        if self._peek().is_punct("{"):
            self._advance()
            value = self._parse_expression()
            parts = [value]
            while self._accept_punct(","):
                parts.append(self._parse_expression())
            self._expect_punct("}")
            self._expect_punct("}")
            if len(parts) == 1:
                return ast.Repeat(count=first, value=parts[0])
            return ast.Repeat(count=first, value=ast.Concat(parts=tuple(parts)))
        parts = [first]
        while self._accept_punct(","):
            parts.append(self._parse_expression())
        self._expect_punct("}")
        return ast.Concat(parts=tuple(parts))

    def _parse_selects(self, target: ast.Expr) -> ast.Expr:
        while self._peek().is_punct("["):
            self._advance()
            first = self._parse_expression()
            if self._accept_punct(":"):
                second = self._parse_expression()
                self._expect_punct("]")
                target = ast.RangeSelect(target=target, msb=first, lsb=second)
            else:
                self._expect_punct("]")
                target = ast.Index(target=target, index=first)
        return target

    def _parse_optional_range(self) -> Optional[ast.Range]:
        if not self._peek().is_punct("["):
            return None
        self._advance()
        msb = self._parse_expression()
        self._expect_punct(":")
        lsb = self._parse_expression()
        self._expect_punct("]")
        return ast.Range(msb=msb, lsb=lsb)
