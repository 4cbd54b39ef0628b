"""Tokeniser for the supported Verilog subset."""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, auto
from typing import List, Optional

from repro.errors import VerilogSyntaxError


class TokenKind(Enum):
    """Lexical category of a token."""

    KEYWORD = auto()
    IDENT = auto()
    NUMBER = auto()
    BASED_NUMBER = auto()
    STRING = auto()
    OPERATOR = auto()
    PUNCT = auto()
    EOF = auto()


KEYWORDS = frozenset(
    {
        "module", "endmodule", "input", "output", "inout", "wire", "reg",
        "assign", "always", "posedge", "negedge", "or", "if", "else", "begin",
        "end", "case", "casez", "casex", "endcase", "default", "parameter",
        "localparam", "integer", "function", "endfunction", "for", "generate",
        "endgenerate", "genvar", "initial", "signed",
    }
)

# Longest-match-first operator table.
_OPERATORS = [
    "<<<", ">>>", "===", "!==",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "~&", "~|", "~^", "^~",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=", "?",
]

_PUNCT = ["(", ")", "[", "]", "{", "}", ",", ";", ":", ".", "@", "#"]

# The token table, tried in order at every position (the state-table idiom of
# pygments' ``VerilogLexer``).  Trivia comes first: whitespace, ``//`` and
# ``/* */`` comments, and compiler directives (a backtick up to the end of
# the line; the benchmark sources do not rely on macros).  ``OPEN_COMMENT``,
# ``OPEN_STRING`` and ``MISMATCH`` only match text that is a syntax error.
_TOKEN_TABLE = (
    ("TRIVIA", r"[ \t\r\n]+|//[^\n]*|/\*.*?\*/|`[^\n]*"),
    ("OPEN_COMMENT", r"/\*"),
    ("BASED_NUMBER", r"(?:[0-9][0-9_]*)?\s*'\s*[sS]?[bBoOdDhH][0-9a-fA-FxXzZ_?]+"),
    ("NUMBER", r"[0-9][0-9_]*"),
    ("ESCAPED_IDENT", r"\\[^\s]+"),
    ("IDENT", r"[a-zA-Z_][a-zA-Z_0-9$]*"),
    ("STRING", r'"[^"]*"'),
    ("OPEN_STRING", r'"'),
    ("OPERATOR", "|".join(re.escape(operator) for operator in _OPERATORS)),
    ("PUNCT", "[" + re.escape("".join(_PUNCT)) + "]"),
    ("MISMATCH", r"."),
)
_TOKEN_RE = re.compile(
    "|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_TABLE), re.DOTALL
)
_ERRORS = {
    "OPEN_COMMENT": "unterminated block comment",
    "OPEN_STRING": "unterminated string literal",
}
# Token kind of every group that yields a token (IDENT may be a keyword).
_GROUP_KINDS = {
    "BASED_NUMBER": TokenKind.BASED_NUMBER,
    "NUMBER": TokenKind.NUMBER,
    "ESCAPED_IDENT": TokenKind.IDENT,
    "IDENT": TokenKind.IDENT,
    "STRING": TokenKind.STRING,
    "OPERATOR": TokenKind.OPERATOR,
    "PUNCT": TokenKind.PUNCT,
}
# Groups whose text may span lines.
_MULTILINE = frozenset({"TRIVIA", "BASED_NUMBER", "STRING"})


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source position (1-based line/column)."""

    kind: TokenKind
    text: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.kind == TokenKind.KEYWORD and self.text == word

    def is_punct(self, text: str) -> bool:
        return self.kind == TokenKind.PUNCT and self.text == text

    def is_operator(self, text: str) -> bool:
        return self.kind == TokenKind.OPERATOR and self.text == text


def _syntax_error(match: "re.Match[str]", line: int, line_start: int) -> VerilogSyntaxError:
    message = _ERRORS.get(match.lastgroup, f"unexpected character {match.group()!r}")
    return VerilogSyntaxError(message, line, match.start() - line_start + 1)


class Lexer:
    """Converts Verilog source text into a list of :class:`Token`.

    Comments (``//`` and ``/* */``), compiler directives starting with a
    backtick and whitespace are discarded.  ``line`` and ``column`` give the
    position of the text's first character, so a slice of a larger file
    reports positions relative to that file.
    """

    def __init__(self, source: str, line: int = 1, column: int = 1) -> None:
        self._source = source
        self._line = line
        self._column = column

    def tokenize(self) -> List[Token]:
        tokens: List[Token] = []
        line = self._line
        # Offset of the current line's first character; the first line may
        # start before the text does.
        line_start = 1 - self._column
        for match in _TOKEN_RE.finditer(self._source):
            group = match.lastgroup
            text = match.group()
            if group != "TRIVIA":
                kind = _GROUP_KINDS.get(group)
                if kind is None:
                    raise _syntax_error(match, line, line_start)
                value = text
                if group == "IDENT" and text in KEYWORDS:
                    kind = TokenKind.KEYWORD
                elif group == "STRING":
                    value = text[1:-1]
                elif group == "ESCAPED_IDENT":
                    value = text[1:]
                tokens.append(Token(kind, value, line, match.start() - line_start + 1))
            if group in _MULTILINE and "\n" in text:
                line += text.count("\n")
                line_start = match.start() + text.rindex("\n") + 1
        tokens.append(Token(TokenKind.EOF, "", line, len(self._source) - line_start + 1))
        return tokens


def endmodule_offsets(source: str) -> List[int]:
    """Offsets just past every ``endmodule`` keyword token of ``source``.

    Scans with the lexer's own token table, so an ``endmodule`` inside a
    comment, a string, a compiler directive or a longer identifier never
    counts.  Raises the same :class:`VerilogSyntaxError` (message and
    position) that :meth:`Lexer.tokenize` raises for the whole text.
    """
    offsets: List[int] = []
    for match in _TOKEN_RE.finditer(source):
        group = match.lastgroup
        if group == "IDENT":
            if match.group() == "endmodule":
                offsets.append(match.end())
        elif group not in _GROUP_KINDS and group != "TRIVIA":
            start = match.start()
            line_start = source.rfind("\n", 0, start) + 1
            raise _syntax_error(match, source.count("\n", 0, start) + 1, line_start)
    return offsets


def parse_based_literal(text: str) -> tuple[Optional[int], int]:
    """Decode a based literal like ``8'hFF`` into ``(width, value)``.

    The width is ``None`` when the literal does not carry an explicit size
    (e.g. ``'d15``).  ``x``/``z``/``?`` digits are treated as zero; the
    synthesisable benchmark subset never relies on their tri-state semantics.
    """
    compact = text.replace("_", "").replace(" ", "")
    size_text, _, rest = compact.partition("'")
    width = int(size_text) if size_text else None
    rest = rest.lstrip("sS")
    base_char = rest[0].lower()
    digits = rest[1:].replace("?", "0").replace("x", "0").replace("X", "0")
    digits = digits.replace("z", "0").replace("Z", "0")
    base = {"b": 2, "o": 8, "d": 10, "h": 16}[base_char]
    value = int(digits, base) if digits else 0
    if width is not None:
        value &= (1 << width) - 1
    return width, value
