"""The master-pattern lexer against the character scanner it replaced.

On any text the two must give the same tokens ``(kind, text, line, col,
offset)`` or the same ParseError ``(message, line, col)``, and ``scan``
the same kinds and texts or the same ParseError.  The domain is every
text free of the code points where ``str.isdigit``/``str.isalpha`` and
``re``'s ``\\d``/``[^\\W\\d]`` disagree: there the new lexer follows ``re``
on purpose (pinned in ``test_lexer.py``).  Texts come from
``hypothesis``, from seeded mutations of the fixture sources and from the
whole fixture sources, raw and canonical.
"""

import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from testmend.errors import ParseError
from testmend.javasrc import lexer
from testmend.javasrc.format import canonicalize

import scanner_oracle

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_FILES = sorted(FIXTURES.rglob("*.java"))

_DIGIT = re.compile(r"\d")
_LETTER = re.compile(r"[^\W\d_]")


def _diverges(c: str) -> bool:
    """Whether ``str`` and ``re`` disagree on ``c`` being a digit or a letter."""
    return c.isdigit() != bool(_DIGIT.match(c)) or c.isalpha() != bool(_LETTER.match(c))


DIVERGENT = frozenset(filter(_diverges, map(chr, range(sys.maxunicode + 1))))

# Java punctuation, quotes, backslashes, the whitespace the lexer does and
# does not skip, letters and digits, and pieces of multi-character lexemes.
ALPHABET = "(){}[];,.=<>!~?:+-*/%&|^@\"'\\ \t\n\r\f\vaeEpPxXfFdDlL_$019#é"
PIECES = ['"""', "/*", "*/", "//", ">>>=", "...", "->", "::", "1.", ".5", "1e+", "0x1F", "\\n"]


def outcome(lex, text):
    try:
        tokens = lex(text)
    except ParseError as exc:
        return ("error", exc.args[0], exc.line, exc.col)
    if isinstance(tokens, lexer.TokenArrays):
        return list(zip(*tokens))
    return [(t.kind, t.text, t.line, t.col, t.offset) for t in tokens]


def test_divergent_code_points_are_the_documented_ones():
    assert {"²", "½", "Ⅷ"} <= DIVERGENT
    assert not DIVERGENT & set(ALPHABET + "".join(PIECES))


texts = st.lists(
    st.one_of(
        st.sampled_from(ALPHABET),
        st.sampled_from(PIECES),
        st.characters().filter(lambda c: c not in DIVERGENT),
    ),
    max_size=40,
).map("".join)


@settings(max_examples=500, deadline=None, database=None)
@given(texts)
def test_lexers_agree_on_generated_text(text):
    assert outcome(lexer.lex, text) == outcome(scanner_oracle.lex, text)


def mutations(count: int, seed: int):
    """``count`` fragments of the fixture sources, each edited 1-3 times."""
    rng = random.Random(seed)
    sources = [p.read_text(encoding="utf-8") for p in FIXTURE_FILES]
    inserts = list(ALPHABET) + PIECES
    for _ in range(count):
        source = rng.choice(sources)
        start = rng.randrange(len(source))
        text = source[start : start + rng.randrange(1, 400)]
        for _ in range(rng.randrange(1, 4)):
            at = rng.randrange(len(text) + 1)
            edit = rng.randrange(3)
            if edit == 0:
                text = text[:at] + rng.choice(inserts) + text[at:]
            elif edit == 1:
                text = text[:at] + text[at + rng.randrange(1, 4) :]
            else:
                text = text[:at] + text[at : at + rng.randrange(1, 20)] + text[at:]
        yield text


def test_lexers_agree_on_mutated_fixture_sources():
    mismatches, errors = [], 0
    for text in mutations(4000, seed=4):
        assert not DIVERGENT & set(text)
        new = outcome(lexer.lex, text)
        if new != outcome(scanner_oracle.lex, text):
            mismatches.append(text)
        errors += isinstance(new, tuple)
    assert mismatches[:5] == []
    # Both the token path and the error path were exercised.
    assert 200 < errors < 3800


def agree_on_whole_text(text):
    assert not DIVERGENT & set(text)
    new = outcome(lexer.lex, text)
    assert isinstance(new, list) and len(new) > 1
    assert new == outcome(scanner_oracle.lex, text)


@pytest.mark.parametrize("path", FIXTURE_FILES, ids=lambda p: p.relative_to(FIXTURES).as_posix())
def test_lexers_agree_on_whole_fixture_files(path):
    # Whole files, raw and canonical: the generated texts stop at 40 pieces
    # and the mutated fragments at 400 characters.
    raw = path.read_text(encoding="utf-8")
    agree_on_whole_text(raw)
    agree_on_whole_text(canonicalize(raw))


def test_lexers_agree_on_all_fixture_files_in_one_text():
    # One run of over a thousand tokens with their comments and whitespace.
    agree_on_whole_text("\n".join(p.read_text(encoding="utf-8") for p in FIXTURE_FILES))


def scan_outcome(text):
    """``scan``'s (kind, text) pairs, or its error as ``outcome`` gives it."""
    try:
        kinds, values = lexer.scan(text)
    except ParseError as exc:
        return ("error", exc.args[0], exc.line, exc.col)
    return list(zip(kinds, values))


def oracle_scan_outcome(text):
    """The scanner's tokens cut to (kind, text), or its error."""
    expected = outcome(scanner_oracle.lex, text)
    return expected if isinstance(expected, tuple) else [token[:2] for token in expected]


@settings(max_examples=500, deadline=None, database=None)
@given(texts)
def test_scan_agrees_with_the_scanner_on_generated_text(text):
    assert scan_outcome(text) == oracle_scan_outcome(text)


def test_scan_agrees_with_the_scanner_on_mutated_fixture_sources():
    mismatches, errors = [], 0
    for text in mutations(4000, seed=4):
        new = scan_outcome(text)
        if new != oracle_scan_outcome(text):
            mismatches.append(text)
        errors += isinstance(new, tuple)
    assert mismatches[:5] == []
    assert 200 < errors < 3800


@pytest.mark.parametrize("path", FIXTURE_FILES, ids=lambda p: p.relative_to(FIXTURES).as_posix())
def test_scan_agrees_with_the_scanner_on_whole_fixture_files(path):
    raw = path.read_text(encoding="utf-8")
    for text in (raw, canonicalize(raw)):
        new = scan_outcome(text)
        assert isinstance(new, list) and len(new) > 1
        assert new == oracle_scan_outcome(text)
