"""Tokenizer for the supported Verilog subset."""

from __future__ import annotations

import enum
import re
from typing import List, Optional


class TokenKind(enum.Enum):
    """Token categories."""

    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    BASED_NUMBER = "based_number"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


#: Reserved words of the supported subset.
KEYWORDS = {
    "module", "endmodule", "input", "output", "inout", "wire", "reg",
    "assign", "always", "posedge", "negedge", "begin", "end", "if", "else",
    "case", "endcase", "default", "parameter", "localparam",
}

#: Multi-character operators, longest first so the lexer is greedy.
OPERATORS = [
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "~^", "^~",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=", "?",
]

PUNCTUATION = ["(", ")", "[", "]", "{", "}", ";", ",", ":", "@", ".", "#"]


class Token:
    """One lexical token with its source position."""

    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: TokenKind, text: str, line: int, column: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word

    def is_op(self, op: str) -> bool:
        return self.kind is TokenKind.OPERATOR and self.text == op

    def is_punct(self, punct: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == punct

    def __repr__(self) -> str:
        return "Token(%s, %r, %d:%d)" % (self.kind.value, self.text, self.line, self.column)


_BASED_NUMBER_RE = re.compile(r"(\d+)?'([bBdDhHoO])([0-9a-fA-FxXzZ_]+)")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")
_NUMBER_RE = re.compile(r"\d[\d_]*")


class Lexer:
    """Converts Verilog source text into a token stream."""

    def __init__(self, source: str):
        self.source = source
        self.position = 0
        self.line = 1
        self.column = 1

    # ------------------------------------------------------------------
    def tokenize(self) -> List[Token]:
        """Return the full token list (terminated by an EOF token)."""
        tokens: List[Token] = []
        while True:
            token = self._next_token()
            tokens.append(token)
            if token.kind is TokenKind.EOF:
                return tokens

    # ------------------------------------------------------------------
    def _advance(self, count: int) -> None:
        for _ in range(count):
            if self.position < len(self.source) and self.source[self.position] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.position += 1

    def _skip_whitespace_and_comments(self) -> None:
        while self.position < len(self.source):
            ch = self.source[self.position]
            if ch in " \t\r\n":
                self._advance(1)
            elif self.source.startswith("//", self.position):
                end = self.source.find("\n", self.position)
                self._advance((end - self.position) if end != -1 else len(self.source) - self.position)
            elif self.source.startswith("/*", self.position):
                end = self.source.find("*/", self.position)
                if end == -1:
                    raise SyntaxError("unterminated block comment at line %d" % (self.line,))
                self._advance(end + 2 - self.position)
            else:
                return

    def _next_token(self) -> Token:
        self._skip_whitespace_and_comments()
        if self.position >= len(self.source):
            return Token(TokenKind.EOF, "", self.line, self.column)

        line, column = self.line, self.column
        rest = self.source[self.position :]

        match = _BASED_NUMBER_RE.match(rest)
        if match:
            self._advance(match.end())
            return Token(TokenKind.BASED_NUMBER, match.group(0), line, column)

        match = _IDENT_RE.match(rest)
        if match:
            text = match.group(0)
            self._advance(len(text))
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            return Token(kind, text, line, column)

        match = _NUMBER_RE.match(rest)
        if match:
            text = match.group(0)
            self._advance(len(text))
            return Token(TokenKind.NUMBER, text, line, column)

        for op in OPERATORS:
            if rest.startswith(op):
                self._advance(len(op))
                return Token(TokenKind.OPERATOR, op, line, column)

        for punct in PUNCTUATION:
            if rest.startswith(punct):
                self._advance(len(punct))
                return Token(TokenKind.PUNCT, punct, line, column)

        raise SyntaxError(
            "unexpected character %r at line %d column %d" % (rest[0], line, column)
        )


def parse_number_literal(text: str) -> (Optional[int], int):
    """Parse a Verilog number literal; returns ``(width or None, value)``."""
    match = _BASED_NUMBER_RE.fullmatch(text)
    if match is None:
        return None, int(text.replace("_", ""))
    width = int(match.group(1)) if match.group(1) else None
    base_char = match.group(2).lower()
    digits = match.group(3).replace("_", "")
    base = {"b": 2, "d": 10, "h": 16, "o": 8}[base_char]
    if any(ch in "xXzZ" for ch in digits):
        raise ValueError("x/z digits are not supported in literal %r" % (text,))
    return width, int(digits, base)
