"""Canonical reformatting of Java source text.

The canonical form is the common coordinate system of the toolkit: every
piece of source that gets diffed, chunked, scored or compared is first
rewritten here.  Guarantees:

* comments are stripped;
* exactly one statement per line (``;`` at statement level breaks the
  line; block braces break around themselves; array/annotation
  initializer braces do not);
* indentation is four spaces per block depth;
* the token stream is preserved — re-lexing the output yields the same
  token texts as lexing the input (minus comments);
* the transform is idempotent: canonicalize(canonicalize(x)) ==
  canonicalize(x).

``canonicalize_with_cursor`` additionally maps a position sitting on an
identifier in the raw text to that identifier's position in the
canonical text (same occurrence index of the same identifier text);
``canonical_positions`` maps every token of a lexed text at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from testmend.errors import CursorNotOnIdentifier, ParseError
from testmend.javasrc import lexer
from testmend.javasrc.lexer import IDENT, KEYWORD, OP, Token

INDENT = "    "

# Tokens that may appear inside a generic type argument region.  Used by a
# bounded lookahead to distinguish ``List<String>`` from ``a < b``.
_GENERIC_BODY = frozenset(
    {".", ",", "?", "&", "[", "]", "@", "extends", "super", "<", ">", ">>", ">>>"}
)
_GENERIC_SCAN_LIMIT = 120

_ANGLE = frozenset({"<", ">", ">>", ">>>"})

# After a closing block brace these continue the same line.
_BRACE_GLUE = frozenset({";", ")", ",", ".", "::", "else", "catch", "finally", "while"})

_NO_SPACE_AFTER = frozenset({"(", "[", ".", "@", "::"})
_NO_SPACE_BEFORE = frozenset({")", "]", ";", ",", ".", "::", "..."})


@functools.lru_cache(maxsize=4096)
def _would_merge(a: str, b: str) -> bool:
    """True if writing ``a`` and ``b`` adjacently would not re-lex as a, b."""
    try:
        tokens = lexer.lex(a + b)
    except ParseError:
        return True
    return [t.text for t in tokens] != [a, b]


@dataclass(frozen=True)
class CursorPos:
    """A 0-based (line, column) position within some text."""

    line: int
    col: int


def _classify_braces(tokens: list[Token]) -> dict[int, str]:
    """Map indices of '{'/'}' tokens to 'block' or 'init'."""
    kinds: dict[int, str] = {}
    stack: list[tuple[int, str]] = []
    prev: Token | None = None
    prev_kind: str | None = None
    for i, t in enumerate(tokens):
        if t.text == "{":
            if prev is None:
                kind = "block"
            elif prev.text in ("=", ",", "(", "["):
                kind = "init"
            elif prev.text == "]":
                kind = "init"  # new int[] { ... }
            elif prev.text == "{" and prev_kind == "init":
                kind = "init"  # nested initializer rows
            else:
                kind = "block"
            kinds[i] = kind
            stack.append((i, kind))
        elif t.text == "}":
            kind = stack.pop()[1] if stack else "block"
            kinds[i] = kind
        if t.text in ("{", "}"):
            prev_kind = kinds[i]
        elif t.kind != lexer.COMMENT:
            prev_kind = None
        prev = t
    return kinds


def _mark_generic_angles(tokens: list[Token]) -> set[int]:
    """Indices of angle tokens that participate in a type-argument region."""
    marked: set[int] = set()
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.text != "<" or i in marked:
            continue
        depth = 1
        region = [i]
        j = i + 1
        ok = False
        while j < n and j - i <= _GENERIC_SCAN_LIMIT:
            text = tokens[j].text
            kind = tokens[j].kind
            if text in _ANGLE:
                region.append(j)
                if text == "<":
                    depth += 1
                else:
                    depth -= {">": 1, ">>": 2, ">>>": 3}[text]
                if depth <= 0:
                    ok = depth == 0
                    break
            elif kind == IDENT or (kind == KEYWORD and text in _GENERIC_BODY) or (
                kind == KEYWORD and _is_primitive(text)
            ):
                pass
            elif kind == OP and text in _GENERIC_BODY:
                pass
            else:
                break
            j += 1
        if ok:
            marked.update(region)
    return marked


def _is_primitive(text: str) -> bool:
    return text in ("boolean", "byte", "char", "short", "int", "long", "float", "double", "void")


class _Emitter:
    def __init__(self, tokens: list[Token], brace_kinds: dict[int, str], angles: set[int]):
        self.tokens = tokens
        self.brace_kinds = brace_kinds
        self.angles = angles
        self.lines: list[str] = []
        self.parts: list[str] = []
        self.width = 0
        self.indent = 0
        self.paren_depth = 0
        self.block_paren_stack = [0]
        self.prev: Token | None = None
        self.prev_unary = False
        self.prev_angle_close = False
        self.positions: list[CursorPos] = []

    def run(self) -> str:
        for i, tok in enumerate(self.tokens):
            self.emit(i, tok)
        self.flush_line()
        return "\n".join(self.lines) + ("\n" if self.lines else "")

    def flush_line(self) -> None:
        if self.parts:
            self.lines.append("".join(self.parts).rstrip())
            self.parts = []
            self.width = 0

    def append(self, text: str) -> None:
        if not self.parts:
            prefix = INDENT * max(self.indent, 0)
            self.parts.append(prefix)
            self.width = len(prefix)
        self.parts.append(text)
        self.width += len(text)

    def emit(self, i: int, tok: Token) -> None:
        text = tok.text
        is_block_open = text == "{" and self.brace_kinds.get(i) == "block"
        is_block_close = text == "}" and self.brace_kinds.get(i) == "block"

        if is_block_close:
            self.flush_line()
            self.indent -= 1
            if self.block_paren_stack:
                self.block_paren_stack.pop()
            if not self.block_paren_stack:
                self.block_paren_stack = [0]

        if self.parts and self.needs_space(tok, i):
            self.append(" ")

        self.positions.append(
            CursorPos(len(self.lines), self.width if self.parts else len(INDENT * max(self.indent, 0)))
        )
        self.append(text)

        if text == "(":
            self.paren_depth += 1
        elif text == ")":
            self.paren_depth = max(0, self.paren_depth - 1)

        next_tok = self.tokens[i + 1] if i + 1 < len(self.tokens) else None
        if is_block_open:
            self.flush_line()
            self.indent += 1
            self.block_paren_stack.append(self.paren_depth)
        elif is_block_close:
            if next_tok is None or next_tok.text not in _BRACE_GLUE:
                self.flush_line()
        elif text == ";" and self.paren_depth == self.block_paren_stack[-1]:
            self.flush_line()

        self.prev_unary = self.is_unary(tok)
        self.prev_angle_close = tok.kind == OP and text in (">", ">>", ">>>") and i in self.angles
        self.prev = tok

    def is_unary(self, tok: Token) -> bool:
        if tok.kind != OP or tok.text not in ("+", "-", "!", "~", "++", "--"):
            return False
        prev = self.prev
        if prev is None:
            return True
        if prev.kind == OP and prev.text not in (")", "]", "++", "--"):
            return True
        if prev.kind == KEYWORD and prev.text in ("return", "case", "assert", "throw", "else"):
            return True
        return False

    def needs_space(self, tok: Token, i: int) -> bool:
        decision = self._space_decision(tok, i)
        if not decision and self.prev is not None and _would_merge(self.prev.text, tok.text):
            # Safety veto: never let glued tokens re-lex differently
            # (e.g. '>' '>' must not become the shift operator '>>').
            return True
        return decision

    def _space_decision(self, tok: Token, i: int) -> bool:
        prev = self.prev
        if prev is None:
            return False
        text = tok.text
        if self.prev_unary:
            return False
        if prev.text in _NO_SPACE_AFTER:
            return False
        if i in self.angles and text in _ANGLE:
            return False
        if self.prev_angle_close and text in ("(", "["):
            return False
        if prev.text == "<" and (i - 1) in self.angles:
            return False
        if text in _NO_SPACE_BEFORE:
            return False
        if text == "(":
            if prev.kind == IDENT or prev.text in (")", "]"):
                return False
            if prev.kind == KEYWORD and prev.text in ("this", "super"):
                return False
            return True
        if text == "[":
            return not (prev.is_word() or prev.text in (")", "]"))
        if text in ("++", "--") and (prev.is_word() or prev.text in (")", "]")):
            return False
        if text == "{" and self.brace_kinds.get(i) == "init" and prev.text == "]":
            return False
        if prev.text == "{" and self.brace_kinds.get(i - 1) == "init":
            return False
        if text == "}" and self.brace_kinds.get(i) == "init":
            return False
        return True


def _prepare(tokens: list[Token]) -> _Emitter:
    return _Emitter(tokens, _classify_braces(tokens), _mark_generic_angles(tokens))


def canonicalize(source: str) -> str:
    """Reformat ``source`` into canonical form (see module docstring)."""
    tokens = lexer.lex(source)
    if not tokens:
        return ""
    return _prepare(tokens).run()


def canonical_positions(tokens: list[Token]) -> list[CursorPos]:
    """Where each of ``tokens`` (a ``lex`` result) starts in the canonical text."""
    emitter = _prepare(tokens)
    emitter.run()
    return emitter.positions


def canonicalize_with_cursor(source: str, cursor: CursorPos) -> tuple[str, CursorPos]:
    """Canonicalize and translate an identifier position into the output.

    ``cursor`` must sit on an identifier token of ``source`` (raises
    :class:`CursorNotOnIdentifier` otherwise).  The returned position is
    the start of the same occurrence of that identifier in the canonical
    text.
    """
    tokens = lexer.lex(source)
    target_index: int | None = None
    for idx, t in enumerate(tokens):
        if t.kind != IDENT or t.line != cursor.line:
            continue
        if t.col <= cursor.col < t.col + len(t.text):
            target_index = idx
            break
    if target_index is None:
        raise CursorNotOnIdentifier(
            f"no identifier at line {cursor.line}, col {cursor.col}"
        )
    emitter = _prepare(tokens)
    text = emitter.run()
    return text, emitter.positions[target_index]
