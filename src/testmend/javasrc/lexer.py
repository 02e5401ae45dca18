"""A small maximal-munch lexer for Java source text.

Produces a flat token stream with positions; no semantic interpretation.
:func:`lex` is one loop over a single compiled ``re`` master pattern with
a named group per lexeme, tried in order (see "Writing a Tokenizer" in
the ``re`` documentation).  Whitespace and comments are matched and
skipped, so the stream never contains them.  A token's line and column
come from its offset and the offset of the last newline before it.

Tokens are slot records, not frozen dataclasses, for a cheap constructor
(see :class:`Token`); nothing mutates a token once it is built.

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
from dataclasses import dataclass

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


@dataclass(slots=True, unsafe_hash=True)
class Token:
    """One lexeme: its kind, verbatim text and 0-based start position.

    A slot record, not a frozen dataclass: a frozen ``__init__`` sets each
    field through ``object.__setattr__``, which made building tokens most
    of :func:`lex`'s cost.  Tokens compare and hash by their fields all the
    same, and are treated as immutable: nothing mutates a token once
    :func:`lex` (or :func:`testmend.javasrc.format.canonical_tokens`)
    returns it, since parses holding them are shared across samples
    (:class:`testmend.resolver.SourceCache`).
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
        return self.kind in (IDENT, KEYWORD, NUMBER, STRING, CHAR)


# A '.' continues a number only before a digit, an f/F/d/D suffix or the
# end of the text, so "1.5" and "1.f" are one token but "x1.toString" is
# not.  An exponent sign follows e/E/p/P only in numbers that start with
# a digit.  Operators are listed longest first.  The ``open_*`` groups
# match the start of a lexeme whose end is missing.
_MASTER = re.compile(
    r'''
      (?P<skip> [ \t\r\n\f]+ | //[^\n]* | /\*.*?\*/ )
    | (?P<string> """.*?""" | "(?!"")(?:[^"\\\n]|\\.)*" )
    | (?P<char> '(?:[^'\\\n]|\\.)*' )
    | (?P<number> \d(?:[eEpP][+-]|\w|\.(?=[\dfFdD]|\Z))*
                | \.\d(?:\w|\.(?=[\dfFdD]|\Z))* )
    | (?P<ident> (?:[^\W\d]|\$)[\w$]* )
    | (?P<open_comment> /\* )
    | (?P<open_text_block> """ )
    | (?P<open_string> " )
    | (?P<open_char> ' )
    | (?P<op> >>>=? | <<= | >>= | \.\.\. | -> | :: | << | >> | [=!<>&|+\-*/%^]=
            | && | \|\| | \+\+ | -- | [(){}\[\];,.=<>!~?:+\-*/%&|^@] )
    | (?P<unexpected> . )
    ''',
    re.DOTALL | re.VERBOSE,
)

# Error group -> (message, columns from the lexeme start to the report).
_ERRORS = {
    "open_comment": ("unterminated block comment", 2),
    "open_text_block": ("unterminated text block", 3),
    "open_string": ("unterminated string literal", 0),
    "open_char": ("unterminated character literal", 0),
}


def lex(text: str) -> list[Token]:
    """Tokenize ``text``; raises :class:`ParseError` on malformed lexemes."""
    tokens: list[Token] = []
    line = line_start = 0
    for m in _MASTER.finditer(text):
        kind, value, start = m.lastgroup, m.group(), m.start()
        if kind in _ERRORS:
            message, shift = _ERRORS[kind]
            raise ParseError(message, line, start - line_start + shift)
        if kind == "unexpected":
            raise ParseError(f"unexpected character {value!r}", line, start - line_start)
        if kind != "skip":
            if kind == IDENT and value in KEYWORDS:
                kind = KEYWORD
            tokens.append(Token(kind, value, line, start - line_start, start))
        if "\n" in value:
            line += value.count("\n")
            line_start = start + value.rindex("\n") + 1
    return tokens


def token_texts(text: str) -> list[str]:
    """Comment-free token texts of ``text`` — the canonical token stream."""
    return [t.text for t in lex(text)]
