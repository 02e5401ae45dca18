"""Declaration-span oracle for the javasrc parser.

Every context family is cut from the spans ``parse_java`` reports, so
this checks them against the token stream alone, never the parser's
internals:

* each class, method and field span lies inside its enclosing class body
  (or the file), its siblings come in source order, and none overlap;
* a span starts at its first annotation, modifier or keyword/type token
  (no modifier or annotation that follows a ``{``, ``}`` or ``;`` runs up
  to it from outside) and ends at a ``}`` or ``;`` with its braces
  balanced; a class ends at the brace that closes its body, and a method
  with a body at the brace that closes that body;
* ``signatures.parse_method`` on a method's slice, parsed again inside a
  class of the same name, gives the same name and parameter types;
* the classes are exactly those a brace-depth scan finds: a
  ``class``/``interface``/``enum`` keyword or ``record`` followed by a
  name, outside bodies, initializers and annotation defaults.

Texts are the fixture files, their seed-7 mutants that parse, and class
bodies built by ``hypothesis`` from ``test_canonical_tokens.PIECES``; each
is checked raw and canonical.  Where a mutant's brackets do not nest,
only bounds, order and overlap are checked (see :class:`Oracle`).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from testmend.errors import ParseError
from testmend.javasrc.ast import ClassDecl, MethodDecl, parse_java
from testmend.javasrc.format import canonicalize
from testmend.javasrc.lexer import IDENT, KEYWORD, lex
from testmend.signatures import MethodLocator, parse_method

from test_canonical_tokens import FIXTURE_FILES, FIXTURES, PIECES, mutants

MODIFIERS = frozenset(
    "public private protected static final abstract native synchronized "
    "transient volatile strictfp default sealed".split()
)
PRIMITIVES = frozenset("boolean byte char short int long float double void".split())
TYPE_KEYWORDS = frozenset({"class", "interface", "enum"})


def _match(toks, i):
    """Index of the token that closes the bracket at ``toks[i]``."""
    opener = toks[i].text
    closer = {"{": "}", "(": ")"}[opener]
    depth = 0
    for j in range(i, len(toks)):
        if toks[j].text == opener:
            depth += 1
        elif toks[j].text == closer:
            depth -= 1
            if depth == 0:
                return j
    raise AssertionError(f"unbalanced {opener!r} at offset {toks[i].offset}")


def _ends_annotation(toks, j):
    """The index of the ``@`` of an annotation that ends at ``toks[j]``, or None."""
    if toks[j].text == ")":
        depth = 0
        while j >= 0:
            depth += {")": 1, "(": -1}.get(toks[j].text, 0)
            j -= 1
            if depth == 0:
                break
    while j >= 2 and toks[j].kind == IDENT and toks[j - 1].text == ".":
        j -= 2
    return j - 1 if j >= 1 and toks[j].kind == IDENT and toks[j - 1].text == "@" else None


def _after_type(toks, i):
    """Whether ``toks[i]`` stands where a declarator name follows a type."""
    prev = toks[i - 1]
    if prev.text in (">", ">>", ">>>", "]") or (prev.kind == KEYWORD and prev.text in PRIMITIVES):
        return True
    return prev.kind == IDENT and prev.text not in MODIFIERS and _ends_annotation(toks, i - 1) is None


def _nests(toks):
    """Whether the brackets of ``toks`` nest."""
    stack = []
    for t in toks:
        if t.text in ("(", "[", "{"):
            stack.append({"(": ")", "[": "]", "{": "}"}[t.text])
        elif t.text in (")", "]", "}") and (not stack or stack.pop() != t.text):
            return False
    return not stack


class Oracle:
    def __init__(self, text):
        self.text = text
        self.toks = lex(text)
        self.at_start = {t.offset: i for i, t in enumerate(self.toks)}
        self.at_end = {t.end_offset: i for i, t in enumerate(self.toks)}
        # Where brackets do not nest, the parser's recovery may skip a
        # brace inside a span; only bounds, order and overlap are checked.
        self.nests = _nests(self.toks)

    def check_file(self, java_file):
        self.check_siblings(java_file.classes, 0, len(self.text))
        if self.nests:
            found = [(c.qualified_name, c.keyword, c.name_token.offset) for c in java_file.all_classes()]
            assert sorted(found) == sorted(scan_classes(self.toks))

    def check_siblings(self, decls, lo, hi):
        assert [d.start for d in decls] == sorted(d.start for d in decls)
        for before, after in zip(decls, decls[1:]):
            assert before.end <= after.start, (before, after)
        for decl in decls:
            assert lo <= decl.start < decl.end <= hi, (decl, lo, hi)
            self.check_span(decl)

    def check_span(self, decl):
        toks = self.toks
        first, last = self.at_start[decl.start], self.at_end[decl.end]
        head = toks[first]
        assert (
            head.text in ("@", "<")
            or head.kind == IDENT
            or (head.kind == KEYWORD and head.text in MODIFIERS | PRIMITIVES | TYPE_KEYWORDS)
        ), head
        self.check_prefix(first)
        assert toks[last].text in ("}", ";"), toks[last]
        assert decl.start <= decl.name_token.offset < decl.end
        assert toks[self.at_start[decl.name_token.offset]] == decl.name_token
        if self.nests:
            depth = 0
            for t in toks[first : last + 1]:
                depth += {"{": 1, "}": -1}.get(t.text, 0)
                assert depth >= 0, t
            assert depth == 0, decl
        if isinstance(decl, ClassDecl):
            body = self.body_open(decl) if self.nests else self.at_end[decl.name_token.end_offset]
            assert not self.nests or _match(toks, body) == last
            self.check_siblings(decl.members, toks[body].end_offset, toks[last].offset)
            for method in decl.methods():
                self.check_reparse(decl, method)
        elif isinstance(decl, MethodDecl) and decl.body_start is not None:
            body = self.at_start[decl.body_start]
            assert toks[body].text == "{" and decl.body_end == decl.end
            assert not self.nests or _match(toks, body) == last

    def check_prefix(self, first):
        """No modifier or annotation that follows a ``{``, ``}``, ``;`` or
        the start of the text runs up to ``toks[first]`` without being in
        the span.  One that follows any other token is the tail of a broken
        declaration the parser skipped."""
        toks = self.toks
        j = first - 1
        while j >= 0:
            if toks[j].text in MODIFIERS:
                j -= 1
                continue
            at = _ends_annotation(toks, j)
            if at is None:
                break
            j = at - 1
        if j < first - 1:
            assert j >= 0 and toks[j].text not in ("{", "}", ";"), toks[j + 1]

    def body_open(self, cls):
        """The first ``{`` after the name, outside parentheses."""
        toks = self.toks
        i = self.at_start[cls.name_token.offset]
        while toks[i].text != "{":
            i = _match(toks, i) + 1 if toks[i].text == "(" else i + 1
        return i

    def check_reparse(self, cls, method):
        # A compact constructor (``R { ... }``) is one only inside a record.
        head = f"record {cls.name}()" if cls.keyword == "record" else f"class {cls.name}"
        wrapped = f"{head} {{\n{self.text[method.start : method.end]}\n}}\n"
        signature = parse_method(parse_java(wrapped), MethodLocator("oracle", (cls.name,), method.name))
        assert (signature.name, list(signature.param_types)) == (method.name, method.param_types())


def scan_classes(toks):
    """(qualified name, keyword, name offset) of each type a brace-depth scan finds.

    ``stack`` holds, per open ``{``, the qualified name of the class whose
    body it opens, or None for any other brace.  A declaration counts only
    where every open brace is a class body, and inside a class body only
    where no initializer or annotation default (``= ...`` or
    ``) default ...``, up to a ``;`` outside its brackets, or a ``,``
    outside them that a declarator follows) is open.  At the top level a
    ``package`` or ``import`` runs as far as its dotted name (see
    :func:`_header_end`), and any other token that starts no declaration
    is skipped.
    """
    found = []
    stack = []
    pending = None  # a declared class whose body brace comes next
    parens = 0  # open parentheses and brackets in a class body
    value_depth = None  # bracket depth inside an open initializer
    header_end = 0  # the index after the last package or import declaration
    for i, t in enumerate(toks):
        text = t.text
        if i < header_end:
            continue
        if not stack and text in ("package", "import"):
            header_end = _header_end(toks, i)
        elif text == "{":
            if parens or value_depth is not None:
                stack.append(None)
            elif pending is not None or stack:
                stack.append(pending)
                pending = None
        elif text == "}":
            if stack:
                stack.pop()
        elif None in stack or (not stack and text in ("(", ")", "[", "]")):
            continue
        elif value_depth is not None:
            if text in ("(", "["):
                value_depth += 1
            elif text in (")", "]"):
                value_depth -= 1
            elif value_depth == 0 and (text == ";" or (text == "," and _declarator_follows(toks, i))):
                value_depth = None
        elif text in ("(", "["):
            parens += 1
        elif text in (")", "]"):
            parens -= 1
        elif parens:
            continue
        elif text == "=" or (text == "default" and toks[i - 1].text == ")"):
            value_depth = 0 if stack else None
        elif text == ";":
            pending = None
        elif (
            i + 1 < len(toks)
            and toks[i + 1].kind == IDENT
            and ((t.kind == KEYWORD and text in TYPE_KEYWORDS) or (t.kind == IDENT and text == "record"))
            and not (stack and _after_type(toks, i))
        ):
            name = toks[i + 1].text
            keyword = "@interface" if text == "interface" and i and toks[i - 1].text == "@" else text
            pending = ".".join([stack[-1], name]) if stack else name
            found.append((pending, keyword, toks[i + 1].offset))
    return found


def _header_end(toks, i):
    """The index after the ``package`` or ``import`` at ``toks[i]``: an
    import's ``static``, the names of the dotted name (an import's may
    end in ``.*``), then a ``;`` only if one is next.  A name that ends
    in a '.' that neither a name nor ``*`` follows is broken, and runs
    through the next ``;`` (or to the end)."""
    static = toks[i].text == "import" and i + 1 < len(toks) and toks[i + 1].text == "static"
    j = i + 1 + static
    while j < len(toks) and toks[j].kind == IDENT:
        j += 1
        if j + 1 < len(toks) and toks[j].text == "." and toks[j + 1].kind == IDENT:
            j += 1
        elif j + 1 < len(toks) and toks[j].text == "." and toks[j + 1].text == "*":
            j += 2
            break
        elif j < len(toks) and toks[j].text == ".":
            semicolons = [k for k in range(j, len(toks)) if toks[k].text == ";"]
            return semicolons[0] + 1 if semicolons else len(toks)
        else:
            break
    return j + 1 if j < len(toks) and toks[j].text == ";" else j


def _declarator_follows(toks, i):
    """Whether a name, then ``=``, ``,``, ``;`` or ``[``, follows ``toks[i]``."""
    return i + 2 < len(toks) and toks[i + 1].kind == IDENT and toks[i + 2].text in ("=", ",", ";", "[")


def check(text):
    """Parse ``text`` raw and canonical and check both; None if it raises."""
    try:
        java_file = parse_java(text)
    except ParseError:
        return None
    Oracle(text).check_file(java_file)
    canonical = canonicalize(text)
    Oracle(canonical).check_file(parse_java(canonical))
    return java_file


@pytest.mark.parametrize("path", FIXTURE_FILES, ids=lambda p: p.relative_to(FIXTURES).as_posix())
def test_fixture_spans_hold(path):
    assert check(path.read_text(encoding="utf-8")) is not None


def test_seed_7_mutant_spans_hold():
    rng = random.Random(7)
    parsed = 0
    for path in FIXTURE_FILES:
        for mutant in mutants(path.read_text(encoding="utf-8"), 300, rng):
            parsed += check(mutant) is not None
    assert parsed == 300 * len(FIXTURE_FILES) - 2641


# Class bodies built from PIECES and generic invocations, whose type
# arguments hold a ',': method bodies may hold any piece but a brace, and
# initializers any piece that does not nest or end them.  A ',' then a
# name (a piece in VALUE_NAMES) and '=' starts the next declarator; no
# initializer holds ', name ,', after which the tokens are no declarator.
GENERIC_CALLS = ["new T<A, B>(x)", "X.<A, B>m()"]
BODY_PIECES = [p for p in PIECES if p not in ("{", "}")] + GENERIC_CALLS
VALUE_PIECES = [p for p in PIECES if p not in ("{", "}", "(", ")", "[", "]", ";")] + GENERIC_CALLS
VALUE_NAMES = ("A", "List", "x")
ANNOTATIONS = ["@Override", "@a.B", "@C()", "@D(x = {1, 2})", "@E(\"}\")"]
TYPES = ["int", "A", "List<A>", "Map<A, List<? extends A>>", "int[]", "a.B", "A<A>[]"]
NAMES = ["x", "run", "value", "record", "sealed"]


@st.composite
def prefix(draw):
    annotations = draw(st.lists(st.sampled_from(ANNOTATIONS), max_size=2))
    modifiers = draw(st.sampled_from(["", "public ", "private static final ", "protected ", "abstract "]))
    return "".join(a + "\n" for a in annotations) + modifiers


@st.composite
def pieces(draw, alphabet):
    return " ".join(draw(st.lists(st.sampled_from(alphabet), max_size=12)))


def _comma_name_comma(v):
    return any(a == c == "," and b in VALUE_NAMES for a, b, c in zip(v, v[1:], v[2:]))


@st.composite
def initializer(draw):
    value = draw(
        st.lists(st.sampled_from(VALUE_PIECES), max_size=12).filter(
            lambda v: not _comma_name_comma([p for p in v if p.strip() and p[:2] not in ("//", "/*")])
        )
    )
    return " ".join(value)


@st.composite
def parameters(draw):
    params = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["", "final ", "@A ", "@B(1) final "]),
                st.sampled_from(TYPES),
                st.sampled_from(["", "..."]),
                st.sampled_from(["a", "b"]),
                st.sampled_from(["", "[]"]),
            ),
            max_size=3,
        )
    )
    return ", ".join(f"{p}{t}{dots} {n}{dims}" for p, t, dots, n, dims in params)


@st.composite
def member(draw, owner, keyword, depth):
    head = draw(prefix())
    kinds = ["field", "method", "constructor", "initializer", "empty", "type"]
    kind = draw(st.sampled_from(kinds + ["compact"] if keyword == "record" else kinds))
    if kind == "field":
        names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=2))
        values = [draw(st.sampled_from(["", " = " + draw(initializer())])) for _ in names]
        declarators = ", ".join(n + v for n, v in zip(names, values))
        return f"{head}{draw(st.sampled_from(TYPES))} {declarators};"
    if kind in ("method", "constructor"):
        generics = draw(st.sampled_from(["", "<T> ", "<T extends List<A>> "]))
        result = owner if kind == "constructor" else draw(st.sampled_from([*TYPES, "void"])) + " " + draw(st.sampled_from(NAMES))
        throws = draw(st.sampled_from(["", " throws E", " throws E, a.F"]))
        body = draw(st.sampled_from([";", "{ " + draw(pieces(BODY_PIECES)) + " }"]))
        return f"{head}{generics}{result}({draw(parameters())}){throws} {body}"
    if kind == "compact":  # a record's compact canonical constructor
        return f"{head}{owner} {{ {draw(pieces(BODY_PIECES))} }}"
    if kind == "initializer":
        return draw(st.sampled_from(["", "static "])) + "{ " + draw(pieces(BODY_PIECES)) + " }"
    if kind == "empty" or depth >= 2:
        return ";"
    return head + draw(type_decl(depth + 1))


@st.composite
def type_decl(draw, depth=0):
    keyword = draw(st.sampled_from(["class", "interface", "enum", "record", "@interface"]))
    name = draw(st.sampled_from(["Outer", "Inner", "R", "E"]))
    header = {
        "class": " extends a.B<A> implements C, D",
        "interface": " extends C, D<A>",
        "enum": " implements C",
        "record": "(int a, List<A> b)",
        "@interface": "",
    }[keyword]
    header = draw(st.sampled_from(["", header]))
    members = draw(st.lists(member(name, keyword, depth), max_size=5))
    constants = "A, B(1), C { void f() { } };\n" if keyword == "enum" else ""
    return f"{keyword} {name}{header} {{\n{constants}" + "\n".join(members) + "\n}"


@settings(max_examples=300, deadline=None, database=None)
@given(type_decl())
def test_generated_class_body_spans_hold(source):
    java_file = check("package p;\nimport a.B;\n" + source + "\n")
    assert java_file is not None and len(java_file.classes) == 1
