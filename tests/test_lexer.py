"""Lexer unit tests: token kinds, positions, maximal munch, error cases."""

import signal

import pytest

from testmend.dataflow import split_statements
from testmend.errors import ParseError
from testmend.javasrc import lexer
from testmend.javasrc.ast import parse_java
from testmend.javasrc.format import canonical_arrays
from testmend.javasrc.lexer import TokenArrays, lex

import scanner_oracle


def kinds(text):
    return list(zip(*lex(text)[:2]))


def tokens(text):
    """Every token of ``lex(text)``, built."""
    arrays = lex(text)
    return [arrays.token(i) for i in range(len(arrays.texts))]


def test_lex_returns_token_arrays():
    assert lex("a\n bb") == TokenArrays(
        (lexer.IDENT, lexer.IDENT), ("a", "bb"), (0, 1), (0, 1), (0, 3)
    )
    # A named tuple of five tuples: its length is 5 and it is true even
    # when it holds no token, so a caller counts or tests its texts.
    empty = lex(" // only a comment\n")
    assert len(empty) == 5 and empty and not empty.texts


def test_simple_declaration_tokens():
    assert kinds("int a = 1;") == [
        (lexer.KEYWORD, "int"),
        (lexer.IDENT, "a"),
        (lexer.OP, "="),
        (lexer.NUMBER, "1"),
        (lexer.OP, ";"),
    ]


def test_positions_are_zero_based():
    toks = tokens("a\n  bb;")
    assert (toks[0].line, toks[0].col, toks[0].offset) == (0, 0, 0)
    assert (toks[1].line, toks[1].col, toks[1].offset) == (1, 2, 4)
    assert toks[1].offset + len(toks[1].text) == 6


def test_maximal_munch_operators():
    assert list(lex("a >>>= b >>> c >> d >= e").texts) == [
        "a", ">>>=", "b", ">>>", "c", ">>", "d", ">=", "e",
    ]
    assert list(lex("x->y::z").texts) == ["x", "->", "y", "::", "z"]
    assert list(lex("i++ + ++j").texts) == ["i", "++", "+", "++", "j"]


def test_varargs_ellipsis_is_one_token():
    assert list(lex("String... args").texts) == ["String", "...", "args"]


def test_comments_dropped_by_default_kept_on_request():
    src = "a // line\n/* block */ b"
    assert list(lex(src).texts) == ["a", "b"]
    kept = [
        t for t in scanner_oracle.lex(src, keep_comments=True)
        if t.kind == scanner_oracle.COMMENT
    ]
    assert [t.text for t in kept] == ["// line", "/* block */"]


def test_string_and_char_literals():
    toks = tokens(r'say("a \"quoted\" b", '
                  r"'x', '\n')")
    strings = [t.text for t in toks if t.kind == lexer.STRING]
    chars = [t.text for t in toks if t.kind == lexer.CHAR]
    assert strings == [r'"a \"quoted\" b"']
    assert chars == ["'x'", r"'\n'"]


def test_text_block():
    src = 'String s = """\nhello "world"\n""";'
    toks = tokens(src)
    assert toks[3].kind == lexer.STRING
    assert toks[3].text.startswith('"""') and toks[3].text.endswith('"""')


def test_numbers():
    assert list(lex("1 2.5 0x1F 1_000 3e8 1.5f 2L").texts) == [
        "1", "2.5", "0x1F", "1_000", "3e8", "1.5f", "2L",
    ]
    # A '.' that starts a member access never glues onto a number.
    assert list(lex("x1.toString()").texts) == ["x1", ".", "toString", "(", ")"]


def test_keywords_vs_identifiers():
    assert list(lex("class clazz Class").kinds) == [lexer.KEYWORD, lexer.IDENT, lexer.IDENT]


def test_unterminated_string_raises():
    with pytest.raises(ParseError):
        lex('"abc')
    with pytest.raises(ParseError):
        lex("/* never closed")
    with pytest.raises(ParseError):
        lex("'x")


def test_unexpected_character_raises():
    with pytest.raises(ParseError):
        lex("int a = 1 # 2;")


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        # A block comment is reported 2 columns and a text block 3 columns
        # after its start; strings and characters at the opening quote.
        ("a\n  /* never closed", "unterminated block comment", 1, 4),
        ('x = """\nabc', "unterminated text block", 0, 7),
        ('f(\n "abc', "unterminated string literal", 1, 1),
        ('"ab\ncd"', "unterminated string literal", 0, 0),
        ("c = 'x", "unterminated character literal", 0, 4),
        ("int a\n = 1 # 2;", "unexpected character '#'", 1, 5),
    ],
)
def test_error_positions(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        lex(text)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert str(exc.value) == f"{message} (line {line}, col {col})"


def test_positions_after_multiline_lexemes():
    # A text block, a block comment, a string and a character literal that
    # each hold a newline (the last two escaped, ``\`` + LF).
    toks = tokens('s = """\nab\n""" + /* x\n */ t + "a\\\nb" u + \'\\\n\' v')
    assert [(t.text, t.line, t.col) for t in toks[3:]] == [
        ("+", 2, 4), ("t", 3, 4), ("+", 3, 6), ('"a\\\nb"', 3, 8), ("u", 4, 3),
        ("+", 4, 5), ("'\\\n'", 4, 7), ("v", 5, 2),
    ]
    assert toks[-2].kind == lexer.CHAR


def test_dot_after_number_at_end_of_text():
    # A '.' joins a number before a digit, an f/F/d/D suffix or only
    # whitespace to the end of the text; the last case keeps "1." one token
    # when the canonical text adds its final newline.
    assert list(lex("1.").texts) == ["1."]
    assert list(lex("1.;").texts) == ["1", ".", ";"]
    assert list(lex("1.f").texts) == ["1.f"]
    assert list(lex("1. \n\t").texts) == ["1."]
    assert list(lex("1. // c").texts) == ["1", "."]


def test_character_classes_follow_re():
    # \d is a decimal digit and [^\W\d] a letter, as in ``re``, so these
    # lex as identifiers (the character scanner made '²' a number and
    # rejected '½' and 'Ⅷ').
    assert kinds("²") == [(lexer.IDENT, "²")]
    assert kinds("½") == [(lexer.IDENT, "½")]
    assert kinds("Ⅷ") == [(lexer.IDENT, "Ⅷ")]
    assert kinds("1.²") == [(lexer.NUMBER, "1"), (lexer.OP, "."), (lexer.IDENT, "²")]


def test_tokens_compare_and_hash_by_their_fields():
    src = "int a = b.size(); // x\nreturn 'c';"
    first, second = tokens(src), tokens(src)
    assert first == second
    assert [hash(t) for t in first] == [hash(t) for t in second]
    assert all(a is not b for a, b in zip(first, second))
    assert len(set(first + second)) == len(first)
    assert first[0] != lexer.Token(lexer.IDENT, "int", 0, 0, 0)


def test_split_lines_breaks_only_at_newline():
    for text in ("", "\n", "a", "a\n", "a\n\nb", "a\n\n", "\n\na"):
        assert lexer.split_lines(text) == text.splitlines()
    assert lexer.split_lines("a\x85b\u2028c\x0bd\x0ce\r\n") == ["a\x85b\u2028c\x0bd\x0ce\r"]


def test_tokens_are_slot_records():
    tok = lex("a").token(0)
    assert not hasattr(tok, "__dict__")
    assert repr(tok) == "Token(kind='ident', text='a', line=0, col=0, offset=0)"


def test_statements_holding_tokens_stay_hashable():
    statements = split_statements("{ int a = b.size(); a++; }")
    assert [s.text for s in statements] == ["int a = b.size();", "a++;"]
    assert len({*statements, *split_statements("{ int a = b.size(); a++; }")}) == 2


def within(call, text, seconds=5):
    """``call(text)``, raising TimeoutError after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"{call.__name__} did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return call(text)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("call", [lexer.scan, lex, canonical_arrays], ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "text, error",
    [
        ("/* " * 200_000, "unterminated block comment (line 0, col 2)"),
        ('"open\n' * 50_000, "unterminated string literal (line 0, col 0)"),
        ('"' + "continued \\\n" * 50_000, "unterminated string literal (line 0, col 0)"),
        ('"' + '\\"' * 50_000, "unterminated string literal (line 0, col 0)"),
        ("'" + "\\'" * 50_000, "unterminated character literal (line 0, col 0)"),
        ('"' + '\\"\\\n' * 50_000, "unterminated string literal (line 0, col 0)"),
        ('s = """' + "\n a" * 100_000, "unterminated text block (line 0, col 7)"),
        ("#" * 200_000, "unexpected character '#' (line 0, col 0)"),
        ("\\" * 200_000, "unexpected character '\\\\' (line 0, col 0)"),
    ],
    ids=[
        "open-comments", "open-strings", "continued-string", "escaped-quotes", "escaped-char-quotes",
        "continued-escaped-quotes", "text-block", "hashes", "backslashes",
    ],
)
def test_malformed_lexemes_are_scanned_past_in_linear_time(call, text, error):
    # scan's findall does not stop at the first malformed lexeme, so each
    # one must be scanned past once: an open comment that matched only its
    # '/*' would search to the end of the text again at every later '/*',
    # and an open string that matched only its '"' would search its body
    # again from every escaped quote in it.
    with pytest.raises(ParseError) as exc:
        within(call, text)
    assert str(exc.value) == error


@pytest.mark.parametrize(
    "text, kind",
    [
        ("²", lexer.IDENT),
        ("Ⅷ", lexer.IDENT),
        ("$x", lexer.IDENT),
        ("_", lexer.IDENT),
        (".5", lexer.NUMBER),
        ("1.", lexer.NUMBER),
        ('""', lexer.STRING),
        ('"\\\\"', lexer.STRING),
        ('""""""', lexer.STRING),
        ("'\\n'", lexer.CHAR),
    ],
)
def test_a_lexeme_outside_the_table_takes_its_kind_from_its_first_character(text, kind):
    assert lexer._KindTable()[text] == kind
    assert lexer.scan(text) == ([kind], [text])
    assert lex(text)[:2] == ((kind,), (text,))


def test_a_lexeme_no_token_starts_with_has_no_kind():
    with pytest.raises(KeyError):
        lexer._KindTable()["\v"]
    for call in (lexer.scan, lex):
        with pytest.raises(ParseError, match=r"^unexpected character '\\x0b' \(line 0, col 1\)$"):
            call("a\v")


def test_the_kind_memo_stays_bounded(monkeypatch):
    table = lexer._KindTable(lexer._KINDS)
    monkeypatch.setattr(lexer, "_KINDS", table)
    bound = lexer._KIND_TABLE_LIMIT
    words = [f"w{i}" for i in range(bound + 10)]
    text = " ".join(words)
    assert lexer.scan(text) == ([lexer.IDENT] * len(words), words)
    assert len(table) == bound
    # Past the bound a lexeme is classified again, not dropped.
    assert lex(text).texts == tuple(words)
    assert lexer.scan("w_new 1.5 'c'")[0] == [lexer.IDENT, lexer.NUMBER, lexer.CHAR]
    assert len(table) == bound


def test_a_full_kind_memo_gives_way_to_a_fresh_one(monkeypatch):
    table = lexer._KindTable(lexer._KINDS)
    monkeypatch.setattr(lexer, "_KINDS", table)
    words = [f"w{i}" for i in range(lexer._KIND_TABLE_LIMIT)]
    lexer.scan(" ".join(words))
    assert len(table) == lexer._KIND_TABLE_LIMIT
    # The full table is swapped, not cleared: a reader keeps its keywords.
    assert lexer.scan("w_fresh1")[0] == [lexer.IDENT]
    assert lexer._KINDS is not table and table["class"] == lexer.KEYWORD
    assert "w_fresh1" not in table
    assert lexer.scan("w_fresh2 class")[0] == [lexer.IDENT, lexer.KEYWORD]
    assert "w_fresh2" in lexer._KINDS and "w0" not in lexer._KINDS


@pytest.mark.parametrize(
    "text, kind",
    [
        ('"' + "x" * 100_000 + '"', lexer.STRING),
        ("'" + "x" * 100_000 + "'", lexer.CHAR),
        ("x" * 100_000, lexer.IDENT),
        ("1" * 100_000, lexer.NUMBER),
    ],
    ids=["string", "char", "ident", "number"],
)
def test_the_kind_memo_keeps_no_long_lexeme(monkeypatch, text, kind):
    table = lexer._KindTable(lexer._KINDS)
    monkeypatch.setattr(lexer, "_KINDS", table)
    assert lexer.scan(text) == ([kind], [text])
    assert text not in table
    short = text[:1] + text[-1:]
    assert lexer.scan(short) == ([kind], [short])
    assert short in table


def test_a_final_sub_is_ignored():
    # JLS 3.5: a SUB (control-Z) that is the last character of the text is
    # ignored, after a token or a comment alike.
    for text in ("class A { }\x1a", "class A { } // end\x1a", "class A { }\n\x1a"):
        assert lex(text).texts == ("class", "A", "{", "}")
        kinds = [lexer.KEYWORD, lexer.IDENT, lexer.OP, lexer.OP]
        assert lexer.scan(text) == (kinds, ["class", "A", "{", "}"])
        assert canonical_arrays(text) == canonical_arrays("class A { }")
        assert [c.name for c in parse_java(text).classes] == ["A"]
    assert lex("\x1a").texts == ()
    assert lex("1.\x1a").texts == ("1.",)
    # Anywhere else it is an unexpected character.
    for text in ("class A { }\x1a\n", "\x1a\x1a", "a\x1ab"):
        for call in (lexer.scan, lex, canonical_arrays, parse_java):
            with pytest.raises(ParseError, match=r"^unexpected character '\\x1a'"):
                call(text)
