"""Lexer unit tests: token kinds, positions, maximal munch, error cases."""

import pytest

from testmend.dataflow import split_statements
from testmend.errors import ParseError
from testmend.javasrc import lexer
from testmend.javasrc.lexer import lex, token_texts

import scanner_oracle


def kinds(text):
    return [(t.kind, t.text) for t in lex(text)]


def test_simple_declaration_tokens():
    assert kinds("int a = 1;") == [
        (lexer.KEYWORD, "int"),
        (lexer.IDENT, "a"),
        (lexer.OP, "="),
        (lexer.NUMBER, "1"),
        (lexer.OP, ";"),
    ]


def test_positions_are_zero_based():
    tokens = lex("a\n  bb;")
    assert (tokens[0].line, tokens[0].col, tokens[0].offset) == (0, 0, 0)
    assert (tokens[1].line, tokens[1].col, tokens[1].offset) == (1, 2, 4)
    assert tokens[1].end_offset == 6


def test_maximal_munch_operators():
    assert token_texts("a >>>= b >>> c >> d >= e") == [
        "a", ">>>=", "b", ">>>", "c", ">>", "d", ">=", "e",
    ]
    assert token_texts("x->y::z") == ["x", "->", "y", "::", "z"]
    assert token_texts("i++ + ++j") == ["i", "++", "+", "++", "j"]


def test_varargs_ellipsis_is_one_token():
    assert token_texts("String... args") == ["String", "...", "args"]


def test_comments_dropped_by_default_kept_on_request():
    src = "a // line\n/* block */ b"
    assert token_texts(src) == ["a", "b"]
    kept = [
        t for t in scanner_oracle.lex(src, keep_comments=True)
        if t.kind == scanner_oracle.COMMENT
    ]
    assert [t.text for t in kept] == ["// line", "/* block */"]


def test_string_and_char_literals():
    toks = lex(r'say("a \"quoted\" b", '
               r"'x', '\n')")
    strings = [t.text for t in toks if t.kind == lexer.STRING]
    chars = [t.text for t in toks if t.kind == lexer.CHAR]
    assert strings == [r'"a \"quoted\" b"']
    assert chars == ["'x'", r"'\n'"]


def test_text_block():
    src = 'String s = """\nhello "world"\n""";'
    toks = lex(src)
    assert toks[3].kind == lexer.STRING
    assert toks[3].text.startswith('"""') and toks[3].text.endswith('"""')


def test_numbers():
    assert token_texts("1 2.5 0x1F 1_000 3e8 1.5f 2L") == [
        "1", "2.5", "0x1F", "1_000", "3e8", "1.5f", "2L",
    ]
    # A '.' that starts a member access never glues onto a number.
    assert token_texts("x1.toString()") == ["x1", ".", "toString", "(", ")"]


def test_keywords_vs_identifiers():
    toks = lex("class clazz Class")
    assert [t.kind for t in toks] == [lexer.KEYWORD, lexer.IDENT, lexer.IDENT]


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
    toks = lex('s = """\nab\n""" + /* x\n */ t + "a\\\nb" u + \'\\\n\' v')
    assert [(t.text, t.line, t.col) for t in toks[3:]] == [
        ("+", 2, 4), ("t", 3, 4), ("+", 3, 6), ('"a\\\nb"', 3, 8), ("u", 4, 3),
        ("+", 4, 5), ("'\\\n'", 4, 7), ("v", 5, 2),
    ]
    assert toks[-2].kind == lexer.CHAR


def test_dot_after_number_at_end_of_text():
    # A '.' joins a number before a digit, an f/F/d/D suffix or only
    # whitespace to the end of the text; the last case keeps "1." one token
    # when the canonical text adds its final newline.
    assert token_texts("1.") == ["1."]
    assert token_texts("1.;") == ["1", ".", ";"]
    assert token_texts("1.f") == ["1.f"]
    assert token_texts("1. \n\t") == ["1."]
    assert token_texts("1. // c") == ["1", "."]


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
    first, second = lex(src), lex(src)
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
    tok = lex("a")[0]
    assert not hasattr(tok, "__dict__")
    assert repr(tok) == "Token(kind='ident', text='a', line=0, col=0, offset=0)"


def test_statements_holding_tokens_stay_hashable():
    statements = split_statements("{ int a = b.size(); a++; }")
    assert [s.text for s in statements] == ["int a = b.size();", "a++;"]
    assert len({*statements, *split_statements("{ int a = b.size(); a++; }")}) == 2
