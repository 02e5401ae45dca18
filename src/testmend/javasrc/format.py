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

:func:`canonical_arrays` makes one pass over the raw text: the lexer's
:func:`~testmend.javasrc.lexer.scan`, one ``findall`` of its master
pattern and a table lookup per lexeme, gives each lexeme's kind and text
without building a match object, and the emitter writes the canonical
text while it records each token's line, column and offset in the
output.  It returns them as
:class:`~testmend.javasrc.lexer.TokenArrays` and builds no
:class:`~testmend.javasrc.lexer.Token`; that is what the source cache,
the parser and the statement splitter of :mod:`testmend.dataflow` read.
Token *i* of ``lex(source)`` is token *i* of the canonical arrays, and a
parse of the canonical text (:func:`~testmend.javasrc.ast.parse_java`)
takes those arrays instead of lexing the text again.  That they equal
the tokens of ``lex(canonicalize(source))``, field by field, is what
``tests/test_canonical_tokens.py`` checks against the old emit-then-relex
path, on generated text and on every fixture file and its mutants.

``canonicalize_with_cursor`` maps a position sitting on an identifier in
the raw text to that identifier's position in the canonical text.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

from testmend.errors import CursorNotOnIdentifier, ParseError
from testmend.javasrc import lexer
from testmend.javasrc.ast import PRIMITIVE_WORDS
from testmend.javasrc.lexer import IDENT, KEYWORD, OP, TokenArrays

INDENT = "    "

# Tokens that may appear inside a generic type argument region.  Used by a
# bounded lookahead to distinguish ``List<String>`` from ``a < b``.
_GENERIC_BODY = frozenset(
    {".", ",", "?", "&", "[", "]", "@", "extends", "super", "<", ">", ">>", ">>>"}
)
_GENERIC_SCAN_LIMIT = 120

_ANGLE = frozenset({"<", ">", ">>", ">>>"})
_ANGLE_CLOSE = frozenset({">", ">>", ">>>"})

# After a closing block brace these continue the same line.
_BRACE_GLUE = frozenset({";", ")", ",", ".", "::", "else", "catch", "finally", "while"})

_NO_SPACE_AFTER = frozenset({"(", "[", ".", "@", "::"})
_NO_SPACE_BEFORE = frozenset({")", "]", ";", ",", ".", "::", "..."})

_CLOSERS = frozenset({")", "]"})
_UNARY = frozenset({"+", "-", "!", "~", "++", "--"})
_POSTFIX = frozenset({")", "]", "++", "--"})
_UNARY_AFTER = frozenset({"return", "case", "assert", "throw", "else"})

@functools.lru_cache(maxsize=4096)
def _would_merge(a: str, b: str) -> bool:
    """True if writing ``a`` and ``b`` adjacently would not re-lex as a, b.

    Two dots count as merging: they re-lex as two, but a third dot glued
    after them would make all three one ``...``.
    """
    if a == b == ".":
        return True
    try:
        return lexer.scan(a + b)[1] != [a, b]
    except ParseError:
        return True


class CursorPos(NamedTuple):
    """A 0-based (line, column) position within some text."""

    line: int
    col: int


def _classify_braces(texts: Sequence[str]) -> list[str | None]:
    """Each token's brace kind: 'block' or 'init' for '{'/'}', else None."""
    kinds: list[str | None] = [None] * len(texts)
    stack: list[str] = []
    prev: str | None = None
    prev_kind: str | None = None
    for i, text in enumerate(texts):
        if text == "{":
            if prev is None:
                kind = "block"
            elif prev in ("=", ",", "(", "["):
                kind = "init"
            elif prev == "]":
                kind = "init"  # new int[] { ... }
            elif prev == "{" and prev_kind == "init":
                kind = "init"  # nested initializer rows
            else:
                kind = "block"
            kinds[i] = kind
            stack.append(kind)
        elif text == "}":
            kinds[i] = stack.pop() if stack else "block"
        prev_kind = kinds[i]
        prev = text
    return kinds


def _mark_generic_angles(kinds: Sequence[str], texts: Sequence[str]) -> set[int]:
    """Indices of angle tokens that participate in a type-argument region."""
    marked: set[int] = set()
    n = len(texts)
    for i, text in enumerate(texts):
        if text != "<" or i in marked:
            continue
        depth = 1
        region = [i]
        j = i + 1
        ok = False
        while j < n and j - i <= _GENERIC_SCAN_LIMIT:
            text = texts[j]
            kind = kinds[j]
            if text in _ANGLE:
                region.append(j)
                if text == "<":
                    depth += 1
                else:
                    depth -= {">": 1, ">>": 2, ">>>": 3}[text]
                if depth <= 0:
                    ok = depth == 0
                    break
            elif kind == IDENT or (
                kind == KEYWORD and (text in _GENERIC_BODY or text in PRIMITIVE_WORDS)
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


def _emit(kinds: Sequence[str], texts: Sequence[str]) -> tuple[str, TokenArrays]:
    """The canonical text of a token stream, and its tokens positioned in it.

    One loop writes each token and decides the space, line break and
    indent before it; ``offset``, ``line`` and ``line_start`` follow what
    is written, newlines inside string, text-block and char tokens too.
    Each token's line, column and offset go to three lists, so no
    :class:`~testmend.javasrc.lexer.Token` is built.
    """
    n = len(texts)
    braces = _classify_braces(texts)
    angles = _mark_generic_angles(kinds, texts)
    parts: list[str] = []
    write = parts.append
    lines: list[int] = []
    cols: list[int] = []
    offsets: list[int] = []
    add_line, add_col, add_offset = lines.append, cols.append, offsets.append
    offset = line = line_start = 0
    line_open = False  # a token is already on the current line
    indent = paren_depth = 0
    block_parens = [0]  # paren depth at each open block
    prev_kind = prev_text = ""
    prev_brace: str | None = None
    prev_unary = prev_angle_close = False
    for i in range(n):
        kind = kinds[i]
        text = texts[i]
        brace = braces[i]
        block_open = block_close = False
        if brace == "block":
            if text == "{":
                block_open = True
            else:
                block_close = True
                if line_open:
                    write("\n")
                    offset += 1
                    line += 1
                    line_start = offset
                    line_open = False
                indent -= 1
                block_parens.pop()
                if not block_parens:
                    block_parens = [0]

        if not line_open:
            if indent > 0:
                pad = INDENT * indent
                write(pad)
                offset += len(pad)
            line_open = True
        else:
            if prev_unary or prev_text in _NO_SPACE_AFTER:
                space = False
            elif text in _ANGLE and i in angles:
                space = False
            elif prev_angle_close and (text == "(" or text == "["):
                space = False
            elif prev_text == "<" and i - 1 in angles:
                space = False
            elif text in _NO_SPACE_BEFORE:
                space = False
            elif text == "(":
                space = not (
                    prev_kind == IDENT
                    or prev_text in _CLOSERS
                    or (prev_kind == KEYWORD and (prev_text == "this" or prev_text == "super"))
                )
            elif text == "[":
                space = prev_kind == OP and prev_text not in _CLOSERS
            elif (text == "++" or text == "--") and (prev_kind != OP or prev_text in _CLOSERS):
                space = False
            elif brace == "init" and (text == "}" or prev_text == "]"):
                space = False
            elif prev_brace == "init" and prev_text == "{":
                space = False
            else:
                space = True
            # Safety veto: never let glued tokens re-lex differently
            # (e.g. '>' '>' must not become the shift operator '>>').
            if space or _would_merge(prev_text, text):
                write(" ")
                offset += 1

        add_line(line)
        add_col(offset - line_start)
        add_offset(offset)
        write(text)
        if "\n" in text:
            line += text.count("\n")
            line_start = offset + text.rindex("\n") + 1
        offset += len(text)

        if text == "(":
            paren_depth += 1
        elif text == ")" and paren_depth:
            paren_depth -= 1
        if (
            block_open
            or (block_close and (i + 1 == n or texts[i + 1] not in _BRACE_GLUE))
            or (text == ";" and paren_depth == block_parens[-1])
        ):
            write("\n")
            offset += 1
            line += 1
            line_start = offset
            line_open = False
        if block_open:
            indent += 1
            block_parens.append(paren_depth)

        prev_unary = (
            kind == OP
            and text in _UNARY
            and (
                i == 0
                or (prev_kind == OP and prev_text not in _POSTFIX)
                or (prev_kind == KEYWORD and prev_text in _UNARY_AFTER)
            )
        )
        prev_angle_close = text in _ANGLE_CLOSE and i in angles
        prev_kind, prev_text, prev_brace = kind, text, brace
    if line_open:
        write("\n")
    arrays = TokenArrays(tuple(kinds), tuple(texts), tuple(lines), tuple(cols), tuple(offsets))
    return "".join(parts), arrays


def canonical_arrays(source: str) -> tuple[str, TokenArrays]:
    """The canonical text of ``source`` and its tokens, positioned in that text.

    Raises :class:`ParseError` where :func:`~testmend.javasrc.lexer.lex`
    would, with the same message, line and column.
    """
    return _emit(*lexer.scan(source))


def canonicalize(source: str) -> str:
    """Reformat ``source`` into canonical form (see module docstring)."""
    return canonical_arrays(source)[0]


def canonicalize_with_cursor(source: str, cursor: CursorPos) -> tuple[str, CursorPos]:
    """Canonicalize and translate an identifier position into the output.

    ``cursor`` must sit on an identifier token of ``source`` (raises
    :class:`CursorNotOnIdentifier` otherwise).  The returned position is
    the start of the same token in the canonical text.
    """
    kinds, texts, lines, cols, _ = lexer.lex(source)
    for index, kind in enumerate(kinds):
        col = cols[index]
        if kind == IDENT and lines[index] == cursor.line and col <= cursor.col < col + len(texts[index]):
            break
    else:
        raise CursorNotOnIdentifier(f"no identifier at line {cursor.line}, col {cursor.col}")
    text, canonical = _emit(kinds, texts)
    return text, CursorPos(canonical.lines[index], canonical.cols[index])
