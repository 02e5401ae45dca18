"""One-pass canonical tokens against the emit-then-relex path they replaced.

``canonical_arrays(src)`` must give the text of the old path
(``format_oracle``) and, field by field, the tokens ``lex`` finds in that
text; its kinds and texts must be those of ``lex(src)``; and on malformed
input it must raise the ParseError ``lex(src)`` raises.  Texts come from
``hypothesis``, from every fixture file and from seeded one-token
deletions and insertions in each.  Every text relexes alike, a number
ending in ``.`` at the end of the text included: the lexer joins that
``.`` before whitespace to the end, such as the canonical text's final
newline.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from testmend.errors import ParseError
from testmend.javasrc.ast import parse_java
from testmend.javasrc.format import canonical_arrays, canonicalize
from testmend.javasrc.lexer import TokenArrays, lex

import format_oracle

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_FILES = sorted(FIXTURES.rglob("*.java"))

# Java lexemes the emitter treats specially, separators, comments, and
# literals that hold newlines (a text block, an escaped newline in a string
# and in a char), together with single characters that make malformed text.
PIECES = [
    "class", "A", "List", "int", "x", "this", "super", "return", "else", "case",
    "extends", "new", "{", "}", "(", ")", "[", "]", "<", ">", ">>", ">>>", "=",
    ";", ",", ".", "...", "::", "@", "?", "&", "-", "+", "++", "--", "!", "~",
    "->", "/", "*", "1", "1.", ".5", "0x1F", "1e+", "'a'", "'\\\n'", '"s"',
    '"a\\\nb"', '"""\n  t\n  """', "// c\n", "/* c\n */", " ", "\n", "\t", "\r\n",
]
MALFORMED = ['"', "'", "/*", '"""', "#", "\\", "\x0b", "'ab"]

# Mostly well-formed text, and text where any character may turn up.
java_texts = st.lists(st.sampled_from(PIECES), max_size=80).map("".join)
wild_texts = st.lists(
    st.one_of(st.sampled_from(PIECES), st.sampled_from(MALFORMED), st.characters()),
    max_size=40,
).map("".join)


def outcome(tokenize, text):
    try:
        result = tokenize(text)
    except ParseError as exc:
        return ("error", exc.args[0], exc.line, exc.col)
    if isinstance(result, TokenArrays):
        return list(zip(*result))
    text, tokens = result
    return text, list(zip(*tokens))


def check(src):
    """The three claims of the module docstring on one text."""
    got = outcome(canonical_arrays, src)
    raw = outcome(lex, src)
    if isinstance(raw, tuple):  # malformed: the same error, positioned alike
        assert got == raw == outcome(format_oracle.canonical_tokens, src)
        return got
    assert [t[:2] for t in got[1]] == [t[:2] for t in raw]
    assert got == outcome(format_oracle.canonical_tokens, src)
    return got


@settings(max_examples=400, deadline=None, database=None)
@given(java_texts)
def test_canonical_tokens_match_on_generated_java_text(src):
    check(src)


@settings(max_examples=300, deadline=None, database=None)
@given(wild_texts)
def test_canonical_tokens_match_on_generated_wild_text(src):
    check(src)


def mutants(source: str, count: int, rng: random.Random):
    """``count`` copies of ``source``, each with one token deleted or inserted."""
    _, texts, _, _, offsets = lex(source)
    for _ in range(count):
        at = rng.choice(range(len(texts)))
        if rng.random() < 0.5:
            yield source[: offsets[at]] + source[offsets[at] + len(texts[at]) :]
        else:
            yield source[: offsets[at]] + rng.choice(texts) + " " + source[offsets[at] :]


@pytest.mark.parametrize("path", FIXTURE_FILES, ids=lambda p: p.relative_to(FIXTURES).as_posix())
def test_canonical_tokens_match_on_fixture_files_and_their_mutants(path):
    source = path.read_text(encoding="utf-8")
    text, tokens = check(source)
    assert len(tokens) > 1
    assert parse_java(text, canonical_arrays(source)[1]) == parse_java(text)
    rng = random.Random(path.name)
    for mutant in mutants(source, 30, rng):
        check(mutant)


def test_fixture_mutants_canonicalize_and_parse_or_raise_only_parse_error():
    # The parser robustness probe: 300 one-token deletions or insertions of
    # each fixture file (seed 7).  Any exception but ParseError fails the
    # test; both outcomes must occur (2,678 of the 7,800 raised when this
    # was written, 2,641 once a comma between type arguments no longer
    # ended a field initializer and a '}' where a member name should be
    # closed the class body).
    rng = random.Random(7)
    outcomes = {"parsed": 0, "ParseError": 0}
    for path in FIXTURE_FILES:
        for mutant in mutants(path.read_text(encoding="utf-8"), 300, rng):
            try:
                parse_java(*canonical_arrays(mutant))
            except ParseError:
                outcomes["ParseError"] += 1
            else:
                outcomes["parsed"] += 1
    assert sum(outcomes.values()) == 300 * len(FIXTURE_FILES)
    assert all(outcomes.values()), outcomes


@pytest.mark.parametrize(
    "src",
    ['int a = "open;\n', "class A { /* never closed\n", "x = '\n", 's = """\nx\n', "a #b", "c = '\\"],
)
def test_malformed_text_raises_what_lex_raises(src):
    with pytest.raises(ParseError):
        lex(src)
    assert check(src)[0] == "error"


def test_newlines_inside_literals_move_the_tokens_after_them():
    src = "class A { String s = \"a\\\nb\"; char c = '\\\n'; String t = \"\"\"\n  x\n  \"\"\"; int d; }"
    check(src)
    text, tokens = canonical_arrays(src)
    d = tokens.token(len(tokens.texts) - 3)
    assert (d.text, text[d.offset : d.offset + len(d.text)]) == ("d", "d")
    assert text.splitlines()[d.line][d.col :].startswith("d;")
    assert (d.line, d.col) == (8, 8)


def test_a_number_ending_in_a_dot_at_the_end_of_the_text_keeps_its_token():
    text, tokens = canonical_arrays("x = 1.")
    assert text == canonicalize("x = 1.") == "x = 1.\n"
    assert list(tokens.texts) == ["x", "=", "1."]
    assert list(lex(text).texts) == ["x", "=", "1."]
    for src in ("x = 1.", "x = 1.\n", "x = 1. // c", "x = 1.;"):
        assert canonicalize(canonicalize(src)) == canonicalize(src)
        check(src)
