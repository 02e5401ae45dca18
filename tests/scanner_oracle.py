"""The character-by-character Java scanner, kept as a differential oracle.

This is the lexer ``testmend.javasrc.lexer.lex`` replaced, unchanged
apart from this docstring, its imports and one rule that follows the
master pattern: a ``.`` joins a number before nothing but whitespace to
the end of the text (it joined only at the very end).  It walks the text
one character at a time, tracks line and column on every step, and can
emit comments as ``COMMENT`` tokens (``keep_comments=True``).  The tests
compare the master-pattern lexer against it token for token.
"""

from __future__ import annotations

from testmend.errors import ParseError
from testmend.javasrc.lexer import CHAR, IDENT, KEYWORD, KEYWORDS, NUMBER, OP, STRING, Token

# Multi-character operators, longest first so maximal munch falls out of a
# simple ordered scan.
_OPERATORS = [
    ">>>=",
    ">>>",
    "<<=",
    ">>=",
    "...",
    "->",
    "::",
    "<<",
    ">>",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
]
_SINGLE_OPERATORS = set("(){}[];,.=<>!~?:+-*/%&|^@")

COMMENT = "comment"


def _is_ident_start(c: str) -> bool:
    return bool(c) and (c.isalpha() or c in "_$")


def _is_ident_part(c: str) -> bool:
    return bool(c) and (c.isalnum() or c in "_$")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.n = len(text)
        self.i = 0
        self.line = 0
        self.col = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.col)

    def peek(self, ahead: int = 0) -> str:
        j = self.i + ahead
        return self.text[j] if j < self.n else ""

    def advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.i >= self.n:
                return
            if self.text[self.i] == "\n":
                self.line += 1
                self.col = 0
            else:
                self.col += 1
            self.i += 1

    def take_until(self, terminator: str, what: str) -> None:
        end = self.text.find(terminator, self.i)
        if end < 0:
            raise self.error(f"unterminated {what}")
        while self.i < end + len(terminator):
            self.advance()


def lex(text: str, keep_comments: bool = False) -> list[Token]:
    """Tokenize ``text``; raises :class:`ParseError` on malformed lexemes."""
    s = _Scanner(text)
    tokens: list[Token] = []

    def emit(kind: str, start: int, line: int, col: int) -> None:
        tokens.append(Token(kind, text[start : s.i], line, col, start))

    while s.i < s.n:
        c = s.peek()
        if c in " \t\r\n\f":
            s.advance()
            continue
        start, line, col = s.i, s.line, s.col
        if c == "/" and s.peek(1) == "/":
            end = text.find("\n", s.i)
            while s.i < (end if end >= 0 else s.n):
                s.advance()
            if keep_comments:
                emit(COMMENT, start, line, col)
            continue
        if c == "/" and s.peek(1) == "*":
            s.advance(2)
            s.take_until("*/", "block comment")
            if keep_comments:
                emit(COMMENT, start, line, col)
            continue
        if c == '"':
            if s.peek(1) == '"' and s.peek(2) == '"':
                s.advance(3)
                s.take_until('"""', "text block")
            else:
                s.advance()
                while True:
                    ch = s.peek()
                    if ch == "" or ch == "\n":
                        raise ParseError("unterminated string literal", line, col)
                    if ch == "\\":
                        s.advance(2)
                        continue
                    s.advance()
                    if ch == '"':
                        break
            emit(STRING, start, line, col)
            continue
        if c == "'":
            s.advance()
            while True:
                ch = s.peek()
                if ch == "" or ch == "\n":
                    raise ParseError("unterminated character literal", line, col)
                if ch == "\\":
                    s.advance(2)
                    continue
                s.advance()
                if ch == "'":
                    break
            emit(CHAR, start, line, col)
            continue
        if c.isdigit() or (c == "." and s.peek(1).isdigit()):
            s.advance()
            while True:
                ch = s.peek()
                if ch and (ch.isalnum() or ch == "_"):
                    s.advance()
                elif ch == "." and (
                    s.peek(1).isdigit()
                    or _is_exponentish(s.peek(1))
                    or not text[s.i + 1 :].strip(" \t\r\n\f")
                ):
                    s.advance()
                elif ch and ch in "+-" and s.peek(-1) in "eEpP" and text[start].isdigit():
                    s.advance()
                else:
                    break
            emit(NUMBER, start, line, col)
            continue
        if _is_ident_start(c):
            s.advance()
            while _is_ident_part(s.peek()):
                s.advance()
            word = text[start : s.i]
            tokens.append(Token(KEYWORD if word in KEYWORDS else IDENT, word, line, col, start))
            continue
        matched = False
        for op in _OPERATORS:
            if text.startswith(op, s.i):
                s.advance(len(op))
                emit(OP, start, line, col)
                matched = True
                break
        if matched:
            continue
        if c in _SINGLE_OPERATORS:
            s.advance()
            emit(OP, start, line, col)
            continue
        raise s.error(f"unexpected character {c!r}")
    return tokens


def _is_exponentish(c: str) -> bool:
    # After a '.', continue the number only for digit-like continuations
    # (e.g. "1.5", "1.e3" is rare but legal); never swallow ".foo".
    return c != "" and c in "fFdD"
