"""The master-pattern lexer against the character scanner it replaced.

On any text the two must give the same tokens ``(kind, text, line, col,
offset)`` or the same ParseError ``(message, line, col)``.  The domain is
every text free of the code points where ``str.isdigit``/``str.isalpha``
and ``re``'s ``\\d``/``[^\\W\\d]`` disagree: there the new lexer follows
``re`` on purpose (pinned in ``test_lexer.py``).  Texts come from
``hypothesis`` and from seeded mutations of the fixture sources.
"""

import random
import re
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from testmend.errors import ParseError
from testmend.javasrc import lexer

import scanner_oracle

FIXTURES = Path(__file__).parent / "fixtures"

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
        return [(t.kind, t.text, t.line, t.col, t.offset) for t in lex(text)]
    except ParseError as exc:
        return ("error", exc.args[0], exc.line, exc.col)


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
    sources = [p.read_text(encoding="utf-8") for p in sorted(FIXTURES.rglob("*.java"))]
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
