"""Canonical formatter tests.

The two load-bearing properties — token-stream preservation and
idempotence — are checked both on curated sources and on a seeded batch
of generated ones, with an independent statement-count oracle.
"""

import random

import pytest

from testmend.errors import CursorNotOnIdentifier
from testmend.javasrc.format import CursorPos, canonicalize, canonicalize_with_cursor
from testmend.javasrc.lexer import IDENT, lex, token_texts

import scanner_oracle

MESSY = """\
package x;   // trailing
/* header
   comment */
public class A {
    private int a=1;int b = 2 ;
    void m(int x){if(x>0){a=x;b=a+x;}else{a=0;}}
    int[] arr = {1, 2, 3};
    String s = "a // not a comment";
}
"""


def count_statement_semicolons(source):
    """Independent oracle: ';' tokens at paren depth 0, outside
    initializer braces (tracked with a separate brace-kind stack)."""
    depth = 0
    stack = []
    prev = None
    count = 0
    for tok in lex(source):
        t = tok.text
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
        elif t == "{":
            stack.append("init" if prev in ("=", ",", "(", "[", "]") or
                         (prev == "{" and stack and stack[-1] == "init") else "block")
        elif t == "}":
            if stack:
                stack.pop()
        elif t == ";" and depth == 0 and "init" not in stack:
            count += 1
        prev = t
    return count


def test_comments_are_stripped():
    out = canonicalize(MESSY)
    assert "trailing" not in out
    assert "header" not in out
    comment_tokens = [
        t for t in scanner_oracle.lex(out, keep_comments=True)
        if t.kind == scanner_oracle.COMMENT
    ]
    assert comment_tokens == []
    assert '"a // not a comment"' in out  # string content untouched


def test_token_stream_preserved():
    assert token_texts(canonicalize(MESSY)) == token_texts(MESSY)


def test_idempotent():
    once = canonicalize(MESSY)
    assert canonicalize(once) == once


def test_one_statement_per_line():
    src = "class A { void m() { int a=1; int b=2; } }"
    out = canonicalize(src)
    lines = [l.strip() for l in out.splitlines()]
    assert "int a = 1;" in lines
    assert "int b = 2;" in lines
    semi_lines = [l for l in lines if l.endswith(";")]
    assert len(semi_lines) == count_statement_semicolons(src) == 2


def test_statement_count_matches_oracle_on_messy_source():
    out = canonicalize(MESSY)
    expected = count_statement_semicolons(MESSY)
    got = sum(1 for l in out.splitlines() if l.rstrip().endswith(";"))
    assert got == expected


def test_indentation_is_four_spaces_per_level():
    out = canonicalize("class A { void m() { if (true) { go(); } } }")
    lines = out.splitlines()
    assert lines[0] == "class A {"
    assert lines[1] == "    void m() {"
    assert lines[2] == "        if (true) {"
    assert lines[3] == "            go();"
    assert lines[4] == "        }"
    assert lines[5] == "    }"
    assert lines[6] == "}"


def test_array_initializers_stay_inline():
    out = canonicalize("class A { int[] a = {1, 2, 3}; }")
    assert "int[] a = {1, 2, 3};" in out


def test_generics_render_tightly():
    out = canonicalize("class A { Map<String, List<Integer>> m(List<? extends Number> x) { return null; } }")
    assert "Map<String, List<Integer>> m(List<? extends Number> x) {" in out


def test_comparison_operators_keep_spaces():
    out = canonicalize("class A { boolean m(int a, int b) { return a < b && b > a; } }")
    assert "return a < b && b > a;" in out


def test_spaced_generic_close_does_not_merge_into_shift():
    src = "class A { List<List<String> > x; }"
    out = canonicalize(src)
    assert token_texts(out) == token_texts(src)
    assert canonicalize(out) == out


def test_unary_and_keyword_spacing():
    out = canonicalize("class A { int m() { if (!done) { return -1; } for (int i=0;i<3;i++) { go(i); } return +2; } }")
    assert "if (!done) {" in out
    assert "return -1;" in out
    assert "for (int i = 0; i < 3; i++) {" in out
    assert "return +2;" in out


def test_for_semicolons_do_not_break_lines():
    out = canonicalize("class A { void m() { for (int i = 0; i < 3; i++) { go(); } } }")
    assert "for (int i = 0; i < 3; i++) {" in [l.strip() for l in out.splitlines()]


def test_lambda_block_statements_break_inside_call():
    out = canonicalize("class A { void m() { list.forEach(x -> { a(x); b(x); }); } }")
    stripped = [l.strip() for l in out.splitlines()]
    assert "a(x);" in stripped
    assert "b(x);" in stripped
    assert "});" in stripped


def test_do_while_and_else_glue():
    out = canonicalize("class A { void m() { do { a(); } while (x); if (y) { b(); } else { c(); } } }")
    stripped = [l.strip() for l in out.splitlines()]
    assert "} while (x);" in stripped
    assert "} else {" in stripped


def test_annotations_and_strings():
    out = canonicalize('class A { @Override public String toString() { return "a" + "b"; } }')
    assert '@Override public String toString() {' in out
    assert 'return "a" + "b";' in out


def test_dots_never_glue_into_an_ellipsis():
    # Two '.' tokens re-lex as two, but a third glued on would make '...'.
    src = "a. . .b(c..d, e... f)"
    out = canonicalize(src)
    assert out == "a. . .b(c. .d, e... f)\n"
    assert token_texts(out) == token_texts(src)
    assert canonicalize(out) == out


def test_cursor_maps_identifier_occurrence():
    src = "class A { void mount() { helper.mount(a, b); } }\n"
    # Cursor on the *second* occurrence of "mount" (the call).
    col = src.index("helper.mount") + len("helper.")
    out, pos = canonicalize_with_cursor(src, CursorPos(0, col))
    line = out.splitlines()[pos.line]
    assert line[pos.col : pos.col + len("mount")] == "mount"
    # Occurrence index preserved: it is still the second "mount".
    upto = "\n".join(out.splitlines()[: pos.line]) + "\n" + line[: pos.col]
    assert upto.count("mount") == 1


def test_cursor_not_on_identifier_raises():
    with pytest.raises(CursorNotOnIdentifier):
        canonicalize_with_cursor("class A { }", CursorPos(0, 8))  # on '{'
    with pytest.raises(CursorNotOnIdentifier):
        # inside a comment
        canonicalize_with_cursor("// mount\nclass A { }", CursorPos(0, 4))


def test_cursor_on_keyword_raises():
    with pytest.raises(CursorNotOnIdentifier):
        canonicalize_with_cursor("class A { }", CursorPos(0, 1))


def _random_source(rng):
    """Generate a small but varied compilation unit."""
    names = ["alpha", "beta", "gammaRay", "deltaValue", "x", "y"]
    types = ["int", "String", "List<String>", "Map<String, Integer>", "boolean"]
    body = []
    for _ in range(rng.randint(1, 5)):
        n = rng.choice(names)
        t = rng.choice(types)
        kind = rng.random()
        if kind < 0.3:
            body.append(f"{t} {n} = helper.make({rng.randint(0, 9)});")
        elif kind < 0.55:
            body.append(f"if ({n} != null) {{ sink.accept({n}); }}")
        elif kind < 0.8:
            body.append(f"for (int i = 0; i < {rng.randint(2, 9)}; i++) {{ {n} = work(i); }}")
        else:
            lines = "".join(f"  {n} line {k}\n" for k in range(rng.randint(1, 3)))
            body.append(f'String {n} = """\n{lines}  """; sink.accept({n});')
    methods = "\n".join(
        f"public void m{i}() {{ {' '.join(body)} }}" for i in range(rng.randint(1, 3))
    )
    spacing = rng.choice(["", "  ", "\n\t"])
    return f"package p{rng.randint(0, 9)};{spacing}public class C {{ {methods} }}\n"


def test_properties_on_generated_sources():
    rng = random.Random(20231115)
    for _ in range(60):
        src = _random_source(rng)
        out = canonicalize(src)
        assert token_texts(out) == token_texts(src), src
        assert canonicalize(out) == out, src


def test_cursor_lands_on_the_same_token_of_the_lexed_canonical_text():
    rng = random.Random(20231116)
    with_text_block = 0
    for _ in range(30):
        src = _random_source(rng)
        with_text_block += '"""' in src
        tokens = lex(src)
        for i, tok in enumerate(tokens):
            if tok.kind != IDENT:
                continue
            last_char = CursorPos(tok.line, tok.col + len(tok.text) - 1)
            out, pos = canonicalize_with_cursor(src, last_char)
            canonical_tok = lex(out)[i]
            assert (pos.line, pos.col) == (canonical_tok.line, canonical_tok.col), (src, tok)
            assert out.splitlines()[pos.line][pos.col :].startswith(tok.text)
    assert with_text_block > 0
