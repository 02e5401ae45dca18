"""BLEU family, syntax/dataflow matches, and the composite metrics.

The record-based metrics are also checked against the text-level ones
of ``metrics_oracle.py`` on generated texts, for equal floats.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from testmend.errors import EmptyReference
from testmend.metrics import (
    ast_match,
    bleu,
    code_bleu,
    code_tokens,
    dataflow_match,
    diff_bleu,
    exact_match,
    exact_match_raw,
    has_code_tokens,
    metric_record,
    normalize_method_text,
)

import metrics_oracle


def records(*texts):
    return [metric_record(text) for text in texts]

REFERENCE = ["the", "quick", "brown", "fox", "jumps"]
CANDIDATE = ["the", "quick", "fox", "jumps"]


def test_bleu_identity():
    assert bleu(REFERENCE, REFERENCE) == pytest.approx(1.0, abs=1e-9)


def test_bleu_hand_computed_value():
    # Worked by hand: p1 = 4/4 unsmoothed; add-one p2 = (2+1)/(3+1),
    # p3 = (0+1)/(2+1), p4 = (0+1)/(1+1); brevity = exp(1 - 5/4).
    expected = math.exp(1 - 5 / 4) * (1.0 * (3 / 4) * (1 / 3) * (1 / 2)) ** 0.25
    assert bleu(CANDIDATE, REFERENCE) == pytest.approx(expected, abs=1e-6)
    assert expected == pytest.approx(0.463078, abs=1e-6)


def test_bleu_zero_unigram_overlap_is_zero():
    assert bleu(["x", "y"], ["a", "b"]) == 0.0


def test_bleu_empty_candidate_and_reference():
    assert bleu([], REFERENCE) == 0.0
    with pytest.raises(EmptyReference):
        bleu(CANDIDATE, [])


def test_bleu_brevity_penalty_only_for_short_candidates():
    # One matching token out of two: all smoothed orders are 1, so the
    # score is exactly the brevity factor.
    assert bleu(["a"], ["a", "b"]) == pytest.approx(math.exp(-1.0), abs=1e-9)
    longer = bleu(["a", "b", "x"], ["a", "b"])
    assert 0.0 < longer < 1.0  # imperfect precision, but no brevity penalty


def test_weighted_bleu_emphasizes_keywords():
    ref = ["return", "x", ";"]
    assert metrics_oracle.weighted_bleu(ref, ref) == pytest.approx(1.0)
    # Matched keyword dominates the unigram mass: weighted > plain.
    wrong_ident = ["return", "y", ";"]
    assert metrics_oracle.weighted_bleu(wrong_ident, ref) > bleu(wrong_ident, ref)
    # A spurious keyword in the candidate is punished five-fold.
    spurious_kw = ["return", "x", ";"]
    ref2 = ["x", "y", ";"]
    assert metrics_oracle.weighted_bleu(spurious_kw, ref2) < bleu(spurious_kw, ref2)


def test_ast_match_identity_and_no_structure():
    text = "void run() { helper(1); }"
    assert ast_match(*records(text, text)) == 1.0
    # A reference with no bracket scopes has nothing to miss.
    assert ast_match(*records("anything at all", "int x = 1;")) == 1.0


def test_ast_match_partial_overlap_fraction():
    ref = "f(a); g(b);"
    cand = "f(a); h(c);"
    # Depth 1 both scopes match structurally; depths 2-3 only (a) does.
    assert ast_match(*records(cand, ref)) == pytest.approx((1.0 + 0.5 + 0.5) / 3)


def test_ast_match_unbalanced_candidate_scores_zero():
    assert ast_match(*records("f(a;", "f(a);")) == 0.0


def test_dataflow_match_rename_breaks_edges():
    ref = "int a = 1; use(a);"
    assert dataflow_match(*records(ref, ref)) == 1.0
    assert dataflow_match(*records("int b = 1; use(b);", ref)) == 0.0
    # No def-use edges in the reference: vacuous pass.
    assert dataflow_match(*records("whatever", "call(CONSTANT);")) == 1.0


TEN_LINE_METHOD = """\
public void testMount() throws Exception {
    AlluxioURI alluxioPath = new AlluxioURI("/mnt");
    AlluxioURI ufsPath = new AlluxioURI("s3://bucket/");
    MountPOptions options = MountPOptions.getDefaultInstance();
    options.setReadOnly(true);
    mFileSystem.mount(alluxioPath, ufsPath, options);
    boolean mounted = mFileSystem.exists(alluxioPath);
    assertTrue(mounted);
    assertTrue(options.hasReadOnly());
}
"""


def test_code_bleu_identity_is_one():
    assert code_bleu(*records(TEN_LINE_METHOD, TEN_LINE_METHOD)) == pytest.approx(1.0, abs=1e-9)


def test_code_bleu_renamed_local_lands_between_half_and_one():
    renamed = TEN_LINE_METHOD.replace("options", "opts")
    score = code_bleu(*records(renamed, TEN_LINE_METHOD))
    assert 0.5 < score < 1.0


def test_code_bleu_empty_reference_raises():
    with pytest.raises(EmptyReference):
        code_bleu(*records("int x;", "   \n  "))


def test_code_bleu_degenerate_candidate_scores_low():
    score = code_bleu(*records("{ { {", TEN_LINE_METHOD))
    assert 0.0 <= score < 0.5


ORIGINAL_TEST = """\
public void mount() {
    AlluxioURI alluxioPath = new AlluxioURI("/mnt");
    MountOptions mountOptions = MountOptions.defaults();
    mFileSystem.mount(alluxioPath, mountOptions);
}
"""
REPAIRED_REFERENCE = ORIGINAL_TEST.replace(
    "MountOptions mountOptions = MountOptions.defaults();",
    "MountPOptions mountOptions = MountPOptions.getDefaultInstance();",
)
ORIGINAL_LINES = normalize_method_text(ORIGINAL_TEST)


def test_diff_bleu_noop_candidate_scores_zero():
    assert diff_bleu(ORIGINAL_LINES, *records(ORIGINAL_TEST, REPAIRED_REFERENCE)) == 0.0


def test_diff_bleu_perfect_repair_scores_one():
    assert diff_bleu(ORIGINAL_LINES, *records(REPAIRED_REFERENCE, REPAIRED_REFERENCE)) == 1.0
    # Nothing changed on either side is also a full score.
    assert diff_bleu(ORIGINAL_LINES, *records(ORIGINAL_TEST, ORIGINAL_TEST)) == 1.0


def test_diff_bleu_scores_exactly_the_changed_lines():
    candidate = ORIGINAL_TEST.replace(
        "MountOptions mountOptions = MountOptions.defaults();",
        "MountPOptions mountOptions = MountPOptions.newBuilder();",
    )
    got = diff_bleu(ORIGINAL_LINES, *records(candidate, REPAIRED_REFERENCE))
    want = bleu(
        code_tokens("MountPOptions mountOptions = MountPOptions.newBuilder();"),
        code_tokens("MountPOptions mountOptions = MountPOptions.getDefaultInstance();"),
    )
    assert got == pytest.approx(want, abs=1e-9)
    assert 0.0 < got < 1.0


def test_diff_bleu_ignores_unchanged_line_order_and_whitespace():
    lines = REPAIRED_REFERENCE.strip().splitlines()
    # Swap the two unchanged body statements and mangle indentation.
    swapped = "\n".join([lines[0], lines[3], lines[2], "    " + lines[1].strip(), lines[4]])
    assert diff_bleu(ORIGINAL_LINES, *records(swapped, REPAIRED_REFERENCE)) == 1.0


def test_exact_match_is_canonical_raw_is_literal():
    spaced = TEN_LINE_METHOD.replace("    ", "\t").replace(
        "assertTrue(mounted);", "assertTrue(mounted); // mounted?"
    )
    assert exact_match(*records(spaced, TEN_LINE_METHOD))
    assert not exact_match_raw(spaced, TEN_LINE_METHOD)
    assert exact_match_raw(TEN_LINE_METHOD, TEN_LINE_METHOD)


def test_normalize_method_text_breaks_no_line_inside_a_literal():
    text = 'void f() {\n    String s = "a\u2028b";\n    use(s);\n}'
    record = metric_record(text)
    assert record.text.split("\n")[1] == 'String s = "a\u2028b";'
    assert '"a\u2028b"' in record.tokens
    assert record.edges == {("s", 0, 0)}


def test_normalize_method_text_strips_and_is_idempotent():
    messy = "void f() {\n   int x = 1; // note\n\n}\n"
    normal = normalize_method_text(messy)
    assert "//" not in normal
    assert all(line == line.strip() and line for line in normal.splitlines())
    assert normalize_method_text(normal) == normal


# ----------------------------------------------------------------------
# records against the text-level oracle
# ----------------------------------------------------------------------

# Lines of method texts: statements that define and use variables,
# keyword-heavy lines, lone and mismatched brackets, comments, and
# lines that do not lex (stray characters, open literals and comments,
# whitespace the lexer does not skip but str.strip does).
LINES = [
    "@Test",
    "public void testMount() throws Exception {",
    "void m() {",
    "}",
    "int a = 1;",
    "a += b;",
    "use(a);",
    "final int n = a + b;",
    'String s = "x";',
    "if (a != null) {",
    "} else {",
    "for (String s : list) {",
    "return a;",
    "return new Widget(a, b);",
    "assertTrue(options.hasReadOnly());",
    "x.y(z).w[0] = n;",
    "int[] arr = {1, 2};",
    "this.field = a;",
    "synchronized (this) { return; }",
    "while (true) { break; }",
    "public static final synchronized native void f();",
    "static final boolean FLAG = false;",
    "float f = 1.5f; char c = 'c';",
    "(",
    ")",
    "{",
    "[",
    "] )",
    "// only a comment",
    "/* c */",
    "int b = #;",
    '"unterminated',
    "/* open",
    " use(a);",
    "\v",
]


names = st.sampled_from(["a", "b", "opts", "x"])
# Statements over a few shared names give partial dataflow and subtree
# matches, where the order of the float additions shows.
STATEMENTS = st.one_of(
    st.builds("int {} = {} + 1;".format, names, names),
    st.builds("{} += {};".format, names, names),
    st.builds("use({}, {});".format, names, names),
    st.builds("if ({} > 0) {{ {}.run(); }}".format, names, names),
    st.builds("for (int {} : {}) {{ sink({}); }}".format, names, names, names),
)


@st.composite
def method_texts(draw):
    """An original test, a candidate and a reference over shared lines."""
    pool = draw(
        st.lists(st.one_of(st.sampled_from(LINES), STATEMENTS), min_size=1, max_size=8)
    )

    def side():
        lines = draw(st.lists(st.sampled_from(pool), max_size=10))
        indent = draw(st.sampled_from(["", "    ", "\t"]))
        body = "\n".join(indent + line for line in lines)
        return draw(st.sampled_from([body, f"void m() {{\n{body}\n}}"]))

    return side(), side(), side()


def _same(got, want):
    """True if both calls give the same value, False if both raise
    EmptyReference; fails otherwise."""
    try:
        expected = want()
    except EmptyReference:
        with pytest.raises(EmptyReference):
            got()
        return False
    assert got() == expected
    return True


@settings(max_examples=400, deadline=None, database=None)
@given(method_texts())
def test_record_metrics_equal_the_text_oracle(texts):
    original, candidate, reference = texts
    c, r = records(candidate, reference)
    scored = _same(
        lambda: code_bleu(c, r), lambda: metrics_oracle.code_bleu(candidate, reference)
    )
    assert has_code_tokens(reference) == scored
    _same(
        lambda: diff_bleu(normalize_method_text(original), c, r),
        lambda: metrics_oracle.diff_bleu(original, candidate, reference),
    )
    assert exact_match(c, r) == metrics_oracle.exact_match(candidate, reference)
