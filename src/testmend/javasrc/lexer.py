"""A small maximal-munch lexer for Java source text.

Produces a flat token stream with positions; no semantic interpretation.
:func:`lex` is one loop over a single compiled ``re`` master pattern with
a named group per lexeme, tried in order (see "Writing a Tokenizer" in
the ``re`` documentation).  Whitespace and comments are matched and
skipped, so the stream never contains them.  A token's line and column
come from its offset and the offset of the last newline before it.

The module owns the master pattern: :func:`scan` makes the same pass
and yields only each token's kind and text, for the canonicalizer
(:func:`testmend.javasrc.format.canonical_arrays`), which places the
tokens in the text it writes.  Each match of the pattern is one lexeme
together with the whitespace and comments before it, so the loop runs
once per token.

Tokens are named tuples (see :class:`Token`): immutable, and built
without code generated at import.  :class:`TokenArrays` holds a token
stream as parallel tuples instead, for the canonicalizer and the parser,
which then build no ``Token`` per token.

Character classes are ``re``'s: a number starts with ``\\d`` (a Unicode
decimal digit), an identifier with ``[^\\W\\d]`` or ``$`` and continues
with ``\\w`` or ``$``.  So ``'²'`` and ``'Ⅷ'`` lex as identifiers.

The lexer is deliberately lenient about token *sequences* (it never looks
at grammar) but strict about malformed lexemes: unterminated strings,
text blocks, comments or characters, and characters no lexeme starts
with, raise :class:`~testmend.errors.ParseError`.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from testmend.errors import ParseError

KEYWORDS = frozenset(
    """
    abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package
    private protected public return short static strictfp super switch
    synchronized this throw throws transient try void volatile while
    true false null
    """.split()
)

IDENT = "ident"
KEYWORD = "keyword"
NUMBER = "number"
STRING = "string"
CHAR = "char"
OP = "op"


class Token(NamedTuple):
    """One lexeme: its kind, verbatim text and 0-based start position.

    A named tuple: it compares and hashes by its fields, and assigning to
    a field raises :class:`AttributeError`, so the tokens of a parse that
    :class:`testmend.resolver.SourceCache` shares across samples cannot
    be changed by any of them.  Its class is built without the generated
    methods a dataclass compiles at import.
    """

    kind: str
    text: str
    line: int  # 0-based
    col: int  # 0-based
    offset: int  # absolute character offset

    @property
    def end_offset(self) -> int:
        return self.offset + len(self.text)

    def is_word(self) -> bool:
        return self.kind in WORD_KINDS


WORD_KINDS = frozenset({IDENT, KEYWORD, NUMBER, STRING, CHAR})


class TokenArrays(NamedTuple):
    """A token stream as five parallel tuples, one entry per token.

    Token *i* is ``Token(kinds[i], texts[i], lines[i], cols[i],
    offsets[i])``, but no :class:`Token` exists until :meth:`token` or
    :meth:`as_list` builds it: the canonicalizer writes these arrays, the
    parser reads them by index, and a ``Token`` is built only where one
    leaves :mod:`testmend.javasrc` (a declaration's name, a reference).
    Offsets grow strictly, and so do lines and, within a line, columns.
    Tuples inside a named tuple, so the streams that
    :class:`testmend.resolver.SourceCache` shares cannot be changed.
    """

    kinds: tuple[str, ...]
    texts: tuple[str, ...]
    lines: tuple[int, ...]
    cols: tuple[int, ...]
    offsets: tuple[int, ...]

    @classmethod
    def of(cls, tokens: list[Token]) -> TokenArrays:
        """The arrays of a token list, such as :func:`lex` returns."""
        return cls(*zip(*tokens)) if tokens else cls((), (), (), (), ())

    def token(self, i: int) -> Token:
        """Token ``i``, built."""
        fields = (self.kinds[i], self.texts[i], self.lines[i], self.cols[i], self.offsets[i])
        return tuple.__new__(Token, fields)

    def as_list(self) -> list[Token]:
        """Every token, built."""
        new = tuple.__new__
        return [new(Token, fields) for fields in zip(*self)]


# A '.' continues a number only before a digit, an f/F/d/D suffix or
# nothing but whitespace to the end of the text, so "1.5" and "1.f" are
# one token but "x1.toString" is not, and a final "1." is one token
# whether or not a newline follows it (the canonical text adds one).
# An exponent sign follows e/E/p/P only in numbers that start with a
# digit.  Operators are listed longest first.  The ``open_*`` groups
# match the start of a lexeme whose end is missing.
#
# Every match is one lexeme after the whitespace and comments before it:
# a non-capturing prefix skips them, and the ``end`` group takes the end
# of the text, so trailing ones make one last empty lexeme.  Each pass of
# the prefix's loop starts with a '/' that the whitespace run cannot
# match, and what follows the prefix matches at any position (``unexpected``
# takes any character, ``end`` the end), so the prefix is never
# backtracked into.
_MASTER = re.compile(
    r'''
    (?: [ \t\r\n\f]* (?: (?: //[^\n]* | /\*.*?\*/ ) [ \t\r\n\f]* )* )
    (?: (?P<string> """.*?""" | "(?!"")(?:[^"\\\n]|\\.)*" )
      | (?P<char> '(?:[^'\\\n]|\\.)*' )
      | (?P<number> \d(?:[eEpP][+-]|\w|\.(?=[\dfFdD]|[ \t\r\n\f]*\Z))*
                  | \.\d(?:\w|\.(?=[\dfFdD]|[ \t\r\n\f]*\Z))* )
      | (?P<ident> (?:[^\W\d]|\$)[\w$]* )
      | (?P<open_comment> /\* )
      | (?P<open_text_block> """ )
      | (?P<open_string> " )
      | (?P<open_char> ' )
      | (?P<op> >>>=? | <<= | >>= | \.\.\. | -> | :: | << | >> | [=!<>&|+\-*/%^]=
              | && | \|\| | \+\+ | -- | [(){}\[\];,.=<>!~?:+\-*/%&|^@] )
      | (?P<unexpected> . )
      | (?P<end> \Z ) )
    ''',
    re.DOTALL | re.VERBOSE,
)

# Error group -> (message, columns from the lexeme start to the report);
# an unexpected character's message names it.
_ERRORS = {
    "open_comment": ("unterminated block comment", 2),
    "open_text_block": ("unterminated text block", 3),
    "open_string": ("unterminated string literal", 0),
    "open_char": ("unterminated character literal", 0),
    "unexpected": ("", 0),
}


def _lexeme_error(m: re.Match[str]) -> ParseError:
    """The error for the malformed lexeme ``m``, at its line and column."""
    kind = m.lastgroup
    text, start = m.string, m.start(kind)
    message, shift = _ERRORS[kind]
    line = text.count("\n", 0, start)
    col = start - text.rfind("\n", 0, start) - 1 + shift
    return ParseError(message or f"unexpected character {m[kind]!r}", line, col)


def lex(text: str) -> list[Token]:
    """Tokenize ``text``; raises :class:`ParseError` on malformed lexemes."""
    tokens: list[Token] = []
    new = tuple.__new__  # a Token from its fields, without Token()'s Python-level __new__
    line = line_start = 0
    for m in _MASTER.finditer(text):
        kind = m.lastgroup
        start = m.start(kind)
        if start != m.start() and "\n" in (skipped := text[m.start() : start]):
            line += skipped.count("\n")
            line_start = text.rindex("\n", 0, start) + 1
        if kind in _ERRORS:
            raise _lexeme_error(m)
        if kind == "end":
            break
        value = m[kind]
        if kind == IDENT and value in KEYWORDS:
            kind = KEYWORD
        tokens.append(new(Token, (kind, value, line, start - line_start, start)))
        if "\n" in value:
            line += value.count("\n")
            line_start = start + value.rindex("\n") + 1
    return tokens


def scan(text: str) -> tuple[list[str], list[str]]:
    """The kinds and texts of ``text``'s tokens, without positions.

    One pass, as :func:`lex` makes, for a caller that places the tokens
    itself (:func:`testmend.javasrc.format.canonical_arrays`); raises the
    :class:`ParseError` that :func:`lex` raises.
    """
    kinds: list[str] = []
    texts: list[str] = []
    for m in _MASTER.finditer(text):
        kind = m.lastgroup
        if kind in _ERRORS:
            raise _lexeme_error(m)
        if kind == "end":
            break
        value = m[kind]
        if kind == IDENT and value in KEYWORDS:
            kind = KEYWORD
        kinds.append(kind)
        texts.append(value)
    return kinds, texts


def split_lines(text: str) -> list[str]:
    """``text`` split at ``\\n`` only, the one break a token's ``line`` counts.

    Equals ``text.splitlines()`` for text whose only break is ``\\n``;
    unlike it, a U+0085, U+2028, ``\\x0b`` or ``\\x0c`` inside a literal
    breaks no line.
    """
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def token_texts(text: str) -> list[str]:
    """Comment-free token texts of ``text`` — the canonical token stream."""
    return [t.text for t in lex(text)]
