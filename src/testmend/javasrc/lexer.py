"""A small maximal-munch lexer for Java source text.

Produces a flat token stream with positions; no semantic interpretation.
The lexer is one compiled ``re`` master pattern whose one capturing group
is the lexeme.  A non-capturing prefix before the group skips whitespace
and comments, so the stream never contains them and each match is one
lexeme together with the whitespace and comments before it.

:func:`scan` gives only each token's kind and text, for the canonicalizer
(:func:`testmend.javasrc.format.canonical_arrays`), which places the
tokens in the text it writes, and for its check that two tokens written
adjacently re-lex as two.  It is one ``findall`` of the pattern, so no
match object is built, and each kind is one lookup in a table that holds
the keywords and operators and classifies any other lexeme by its first
character: a quote starts a string or a character, a digit or a '.' a
number, and anything else a lexeme may start with an identifier.
:func:`lex` makes the same matches with ``finditer`` for their offsets; a
token's line and column come from its offset and the offset of the last
newline before it.

A token stream has one shape, :class:`TokenArrays`, five parallel tuples
that every reader indexes; a :class:`Token` is built only by
:meth:`TokenArrays.token`.  ``len(lex(t))`` is always 5 and ``lex(t)``
always true: count or test ``lex(t).texts``.

Character classes are ``re``'s: a number starts with ``\\d`` (a Unicode
decimal digit), an identifier with ``[^\\W\\d]`` or ``$`` and continues
with ``\\w`` or ``$``.  So ``'²'`` and ``'Ⅷ'`` lex as identifiers.  A SUB
(``\\x1a``) that is the last character of the text is ignored (JLS 3.5).

The lexer is deliberately lenient about token *sequences* (it never looks
at grammar) but strict about malformed lexemes: unterminated strings,
text blocks, comments or characters, and characters no lexeme starts
with, raise :class:`~testmend.errors.ParseError`.  The pattern matches
each of them as a lexeme that has no kind.  ``findall`` does not stop at
the first, so each malformed lexeme takes all the text that the pattern
searched for its end: an unterminated block comment takes the rest of
the text, since a later ``/*`` would otherwise search to the end of the
text again, and an unterminated string or character ends where its body
does, since a later quote inside that body would otherwise search it
again.  So no text is searched twice, and a malformed text costs time
linear in its length.  When
:func:`scan` meets one, it calls :func:`lex`, which stops at the first
and raises its error.
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


WORD_KINDS = frozenset({IDENT, KEYWORD, NUMBER, STRING, CHAR})


class TokenArrays(NamedTuple):
    """A token stream as five parallel tuples, one entry per token.

    Token *i* is ``Token(kinds[i], texts[i], lines[i], cols[i],
    offsets[i])``, but no :class:`Token` exists until :meth:`token` builds
    it: :func:`lex` and the canonicalizer write these arrays, and every
    reader indexes them.
    Offsets grow strictly, and so do lines and, within a line, columns.
    Tuples inside a named tuple, so the streams that
    :class:`testmend.resolver.SourceCache` shares cannot be changed.
    """

    kinds: tuple[str, ...]
    texts: tuple[str, ...]
    lines: tuple[int, ...]
    cols: tuple[int, ...]
    offsets: tuple[int, ...]

    def token(self, i: int) -> Token:
        """Token ``i``, built."""
        fields = (self.kinds[i], self.texts[i], self.lines[i], self.cols[i], self.offsets[i])
        return tuple.__new__(Token, fields)


_OPERATORS = frozenset(
    """
    >>>= >>> <<= >>= ... -> :: << >> == != <= >= &= |= += -= *= /= %= ^= && || ++ --
    ( ) { } [ ] ; , . = < > ! ~ ? : + - * / % & | ^ @
    """.split()
)

# The prefix skips whitespace and comments.  Its loop is entered only
# before a comment, since entering a loop of groups costs ``re`` more than
# the lookahead does.  Each pass of the loop starts with a '/' that the
# whitespace run cannot match, and what follows the prefix matches at any
# position, so the prefix is never backtracked into.  The last
# alternative, outside the group, takes the end of the text, so the group
# is None there.
#
# Lexemes start with disjoint characters, except that an identifier
# (``[\w$]+``) starts with no digit because a number comes first, and a
# number must come before the operators ('.5'), and so must an open
# comment ('/*').  A '.' continues a number only before a digit, an
# f/F/d/D suffix or nothing but whitespace to the end of the text, so
# "1.5" and "1.f" are one token but "x1.toString" is not, and a final "1."
# is one token whether or not a newline follows it (the canonical text
# adds one).  An exponent sign follows e/E/p/P only in numbers that start
# with a digit.  Operators are listed longest first.
#
# ``findall`` does not stop at a malformed lexeme, so each one is matched
# as a lexeme that takes all the text its failed attempt searched, and no
# text is searched twice: an open comment takes the rest of the text; a
# string or character that has no closing quote takes its whole body, to
# the newline or the end of the text (an escaped quote or newline is part
# of the body), so :func:`_closed` tells it from a closed one; a '"""'
# that closes no text block is taken alone, and then no '"""' follows it;
# any other character is taken alone.
_MASTER = re.compile(
    r'''
    [ \t\r\n\f]* (?: (?=/[/*]) (?: (?: //[^\n]* | /\*.*?\*/ ) [ \t\r\n\f]* )* | )
    (?: ( \d(?:[eEpP][+-]|\w|\.(?=[\dfFdD]|[ \t\r\n\f]*\Z))*
        | [\w$]+
        | \.\d(?:\w|\.(?=[\dfFdD]|[ \t\r\n\f]*\Z))*
        | /\*.*
        | >>>=? | <<= | >>= | \.\.\. | -> | :: | << | >> | [=!<>&|+\-*/%^]=
        | && | \|\| | \+\+ | -- | [(){}\[\];,.=<>!~?:+\-*/%&|^@]
        | """.*?""" | "(?!"")(?:[^"\\\n]|\\.)*"? | """
        | '(?:[^'\\\n]|\\.)*'?
        | . )
      | \Z )
    ''',
    re.DOTALL | re.VERBOSE,
)

_KIND_TABLE_LIMIT = 1 << 13
_MEMO_MAX_LEN = 64


def _closed(lexeme: str) -> bool:
    """Whether a string, text block or character lexeme has its closing quote.

    The closing quote is the last character, after the opening one, with
    an even run of backslashes before it: an odd run escapes it.
    """
    body = lexeme[1:-1]
    escapes = len(body) - len(body.rstrip("\\"))
    return len(lexeme) > 1 and lexeme[-1] == lexeme[0] and escapes % 2 == 0


class _KindTable(dict):
    """Lexeme -> kind, for every lexeme the master pattern matches.

    Filled with the keywords and operators; any other lexeme's kind comes
    from its first character.  It is remembered if it is at most
    :data:`_MEMO_MAX_LEN` characters long and the table holds fewer than
    :data:`_KIND_TABLE_LIMIT` lexemes, so the table's size in bytes is
    bounded and does not grow with a repository's vocabulary or its
    literals; threads that miss at once may each add one lexeme past the
    limit.  A miss on a full table makes :data:`_KINDS` a fresh table, so
    later lookups remember the current vocabulary, not the first one.  The
    full table is replaced, never cleared: a thread still reading it keeps
    every keyword.  A malformed lexeme has no kind: looking it up raises
    :class:`KeyError`.
    """

    def __missing__(self, lexeme: str) -> str:
        global _KINDS
        first = lexeme[0]
        if first == '"' and lexeme != '"""' and _closed(lexeme):
            kind = STRING
        elif first == "'" and _closed(lexeme):
            kind = CHAR
        elif first.isdecimal() or (first == "." and lexeme[1:2].isdecimal()):
            kind = NUMBER  # \d is str.isdecimal
        elif first == "$" or first == "_" or first.isalnum():
            kind = IDENT  # \w is str.isalnum and '_'
        else:
            raise KeyError(lexeme)
        if len(lexeme) <= _MEMO_MAX_LEN:
            if len(self) < _KIND_TABLE_LIMIT:
                self[lexeme] = kind
            elif _KINDS is self:
                _KINDS = _KindTable(_FIXED_KINDS)
        return kind


_FIXED_KINDS = {**dict.fromkeys(KEYWORDS, KEYWORD), **dict.fromkeys(_OPERATORS, OP)}
_KINDS = _KindTable(_FIXED_KINDS)


def _malformed(lexeme: str, line: int, col: int) -> ParseError:
    """The error for a lexeme that has no kind, found at ``line``, ``col``.

    A block comment is reported 2 columns and a text block 3 columns after
    its start; strings and characters at the opening quote.
    """
    if lexeme.startswith("/*"):
        return ParseError("unterminated block comment", line, col + 2)
    if lexeme == '"""':
        return ParseError("unterminated text block", line, col + 3)
    if lexeme.startswith('"'):
        return ParseError("unterminated string literal", line, col)
    if lexeme.startswith("'"):
        return ParseError("unterminated character literal", line, col)
    return ParseError(f"unexpected character {lexeme!r}", line, col)


def _end(text: str) -> int:
    """Where ``text``'s tokens end: before a SUB that is its last character.

    JLS 3.5 ignores that SUB (``\\x1a``, control-Z); anywhere else it is
    an unexpected character.
    """
    return len(text) - (text[-1:] == "\x1a")


def lex(text: str) -> TokenArrays:
    """Tokenize ``text``; raises :class:`ParseError` on malformed lexemes."""
    kinds: list[str] = []
    texts: list[str] = []
    lines: list[int] = []
    cols: list[int] = []
    offsets: list[int] = []
    add_kind, add_text, add_line = kinds.append, texts.append, lines.append
    add_col, add_offset = cols.append, offsets.append
    kind_of = _KINDS.__getitem__
    line = line_start = 0
    for m in _MASTER.finditer(text, 0, _end(text)):
        value = m[1]
        if value is None:
            break
        start = m.start(1)
        if start != m.start() and "\n" in (skipped := text[m.start() : start]):
            line += skipped.count("\n")
            line_start = text.rindex("\n", 0, start) + 1
        try:
            kind = kind_of(value)
        except KeyError:
            raise _malformed(value, line, start - line_start) from None
        add_kind(kind)
        add_text(value)
        add_line(line)
        add_col(start - line_start)
        add_offset(start)
        if "\n" in value:
            line += value.count("\n")
            line_start = start + value.rindex("\n") + 1
    return TokenArrays(tuple(kinds), tuple(texts), tuple(lines), tuple(cols), tuple(offsets))


def scan(text: str) -> tuple[list[str], list[str]]:
    """The kinds and texts of ``text``'s tokens, without positions.

    For a caller that places the tokens itself
    (:func:`testmend.javasrc.format.canonical_arrays`) or needs no
    positions: one ``findall`` and one lookup per lexeme in the kind
    table.  On a malformed lexeme it raises what :func:`lex` raises.
    """
    texts = _MASTER.findall(text, 0, _end(text))
    while texts and not texts[-1]:  # the end of the text matches once or twice
        texts.pop()
    try:
        return list(map(_KINDS.__getitem__, texts)), texts
    except KeyError:
        lex(text)  # raises the first malformed lexeme's error
        raise


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
