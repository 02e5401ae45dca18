"""Builtin resolver tests against a fixture repo with a known call graph."""

import logging
from typing import get_type_hints

import pytest

import testmend.resolver as resolver_module
from testmend.errors import CursorNotOnIdentifier, ParseError
from testmend.javasrc.ast import FieldDecl, JavaFile
from testmend.javasrc import lexer
from testmend.javasrc.format import CursorPos, canonical_arrays, canonicalize
from testmend.resolver import (
    BuiltinResolver,
    CodeIndex,
    ParsedFile,
    make_resolver,
)
from testmend.snapshot import POST, PRE, Location, RepoSnapshot

FILES = {
    "src/a/Widget.java": """
        package a;
        public class Widget {
            public int rate;
            public void spin(int n) { tick(n); }
            void tick(int n) { spin(n - 1); }
        }
    """,
    "src/a/Gadget.java": """
        package a;
        import b.Remote;
        public class Gadget {
            void go(Widget w) {
                w.spin(1);
                int r = w.rate;
                Remote.ping();
            }
        }
    """,
    "src/b/Remote.java": """
        package b;
        public class Remote {
            public static void ping() { }
            static void helper() { ping(); }
        }
    """,
    "src/c/Uses.java": """
        package c;
        import a.Widget;
        class Uses {
            void u(Widget w) { w.spin(2); }
        }
    """,
    "src/c/NoImport.java": """
        package c;
        class NoImport {
            void x(Object o) { o.spin(3); }
        }
    """,
}


@pytest.fixture()
def resolver(tmp_path):
    for version in ("pre", "post"):
        for rel, text in FILES.items():
            p = tmp_path / version / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(text)
    snap = RepoSnapshot(tmp_path / "pre", tmp_path / "post")
    return BuiltinResolver(snap)


def loc_of(resolver, version, path, needle, occurrence=0):
    """Location of the n-th occurrence of an identifier in canonical text."""
    text = resolver.index.canonical(version, path)
    lines = text.splitlines()
    seen = 0
    import re
    for lineno, line in enumerate(lines):
        for m in re.finditer(r"[A-Za-z_$][A-Za-z0-9_$]*", line):
            if m.group(0) == needle:
                if seen == occurrence:
                    return Location(
                        version=version,
                        file=path,
                        start=CursorPos(lineno, m.start()),
                        end=CursorPos(lineno, m.end()),
                    )
                seen += 1
    raise AssertionError(f"{needle} occurrence {occurrence} not found in {path}")


def test_goto_definition_same_file_first(resolver):
    # 'spin' called inside Widget.tick resolves to the same-file declaration.
    call = loc_of(resolver, PRE, "src/a/Widget.java", "spin", occurrence=1)
    defs = resolver.goto_definition(call)
    assert len(defs) == 1
    d = defs[0]
    assert d.file == "src/a/Widget.java"
    decl = loc_of(resolver, PRE, "src/a/Widget.java", "spin", occurrence=0)
    assert d.start == decl.start


def test_goto_definition_via_import(resolver):
    use = loc_of(resolver, PRE, "src/c/Uses.java", "Widget", occurrence=1)
    defs = resolver.goto_definition(use)
    assert [d.file for d in defs] == ["src/a/Widget.java"]


def test_goto_definition_same_package(resolver):
    use = loc_of(resolver, PRE, "src/a/Gadget.java", "Widget", occurrence=0)
    defs = resolver.goto_definition(use)
    assert [d.file for d in defs] == ["src/a/Widget.java"]


def test_goto_definition_unresolved_is_empty(resolver):
    use = loc_of(resolver, PRE, "src/c/NoImport.java", "Object", occurrence=0)
    assert resolver.goto_definition(use) == []


def test_not_an_identifier_raises(resolver):
    bad = Location(PRE, "src/a/Widget.java", CursorPos(0, 0), CursorPos(0, 1))
    # line 0 starts with the 'package' keyword in canonical text
    with pytest.raises(CursorNotOnIdentifier):
        resolver.goto_definition(bad)


def brute_force_references(resolver, version, name, visible_files, kind):
    """Independent oracle: raw token scan over canonical texts."""
    import re
    out = []
    for path in visible_files:
        text = resolver.index.canonical(version, path)
        for lineno, line in enumerate(text.splitlines()):
            for m in re.finditer(r"[A-Za-z_$][A-Za-z0-9_$]*", line):
                if m.group(0) != name:
                    continue
                rest = line[m.end():].lstrip()
                is_call = rest.startswith("(")
                decl = re.search(r"\b(void|int|class)\s+$", line[: m.start()])
                if decl:
                    continue
                if kind == "method" and not is_call:
                    continue
                if kind == "field" and is_call:
                    continue
                out.append((path, lineno, m.start()))
    return sorted(out)


def test_method_references_match_oracle(resolver):
    decl = loc_of(resolver, PRE, "src/a/Widget.java", "spin", occurrence=0)
    refs = resolver.find_references(decl)
    got = [(r.file, r.start.line, r.start.col) for r in refs]
    # Visible: declaring file, same-package Gadget, importing Uses.
    # NOT visible: NoImport (different package, no import).
    expected = brute_force_references(
        resolver, PRE, "spin",
        ["src/a/Gadget.java", "src/a/Widget.java", "src/c/Uses.java"],
        kind="method",
    )
    assert got == expected
    assert len(got) == 3
    assert all(r.version == PRE for r in refs)
    assert not any(r.file == "src/c/NoImport.java" for r in refs)


def test_field_references_exclude_calls_and_declaration(resolver):
    decl = loc_of(resolver, PRE, "src/a/Widget.java", "rate", occurrence=0)
    refs = resolver.find_references(decl)
    assert [(r.file, r.start.line) for r in refs] == [
        ("src/a/Gadget.java", refs[0].start.line)
    ]


def test_references_from_a_use_site_take_their_kind_from_the_next_token(resolver):
    # Not a declaration: a name before '(' is a method, any other a field,
    # and with no owner known every file that mentions the name is searched.
    call = loc_of(resolver, PRE, "src/a/Gadget.java", "spin")
    assert [r.file for r in resolver.find_references(call)] == [
        "src/a/Gadget.java", "src/a/Widget.java", "src/c/NoImport.java", "src/c/Uses.java"
    ]
    use = loc_of(resolver, PRE, "src/a/Gadget.java", "rate")
    assert [r.file for r in resolver.find_references(use)] == ["src/a/Gadget.java"]


def test_static_method_references(resolver):
    decl = loc_of(resolver, PRE, "src/b/Remote.java", "ping", occurrence=0)
    refs = resolver.find_references(decl)
    files = [r.file for r in refs]
    assert files == ["src/a/Gadget.java", "src/b/Remote.java"]


def test_references_are_stably_ordered(resolver):
    decl = loc_of(resolver, PRE, "src/a/Widget.java", "spin", occurrence=0)
    first = resolver.find_references(decl)
    second = resolver.find_references(decl)
    assert first == second
    assert first == sorted(first, key=lambda r: (r.file, r.start.line, r.start.col))


def test_index_canonical_text_is_canonical(resolver):
    text = resolver.index.canonical(PRE, "src/a/Widget.java")
    assert canonicalize(text) == text
    assert text == canonicalize(FILES["src/a/Widget.java"])


def test_make_resolver_builtin(resolver):
    snap = resolver.index.snapshot
    r = make_resolver(snap)
    assert isinstance(r, BuiltinResolver)


def test_code_index_resolve_class(resolver):
    index = resolver.index
    hit = index.resolve_class(PRE, "src/c/Uses.java", "Widget")
    assert hit is not None and hit[1].name == "Widget"
    assert index.resolve_class(PRE, "src/c/Uses.java", "Remote") is None
    hit2 = index.resolve_class(PRE, "src/a/Gadget.java", "Remote")
    assert hit2 is not None and hit2[0].path == "src/b/Remote.java"
    assert index.resolve_class(PRE, "src/a/Gadget.java", "Missing") is None


def test_parsed_file_type_hints_resolve():
    assert get_type_hints(ParsedFile)["java"] is JavaFile


def test_token_at_finds_the_token_a_scan_of_every_token_finds():
    # Bisection over lines, then columns, against the linear scan it
    # replaced, at every column of every line and one past each line's
    # end; a text block spans lines, so a line can start inside a token.
    java = resolver_module.parse_source(
        'class T {\n  String s = """\n    a\n    """ + t(1);\n  int[] u = {1, 2};\n}\n'
    )
    parsed = ParsedFile(PRE, "T.java", java)
    tokens = [java.tokens.token(i) for i in range(len(java.tokens.texts))]
    lines = java.text.split("\n")
    for line, text in enumerate(lines):
        for col in range(len(text) + 2):
            scanned = [t for t in tokens if t.line == line and t.col <= col < t.col + len(t.text)]
            assert parsed.token_at(CursorPos(line, col)) == (scanned[0] if scanned else None)
    assert parsed.token_at(CursorPos(len(lines), 0)) is None


def test_records_shared_through_the_source_cache_reject_assignment(resolver):
    # One parse of a text serves every sample that reads it, so no caller
    # may change a token, a location or a parse record in place.
    cache = resolver_module.SourceCache()
    java = cache.parse(FILES["src/a/Widget.java"])
    assert cache.parse(FILES["src/a/Widget.java"]) is java
    widget = java.classes[0]
    rate, spin = widget.members[:2]
    assert isinstance(rate, FieldDecl) and spin.name == "spin"
    parsed = resolver.index.file(PRE, "src/a/Widget.java")
    location = parsed.token_location(spin.name_token)
    # The parse holds the very token arrays the cache keeps, all tuples.
    arrays = cache.canonical(FILES["src/a/Widget.java"])[1]
    assert java.tokens is arrays
    assert all(type(array) is tuple for array in arrays)
    for record, name in [
        (java.tokens.token(0), "text"),
        (spin.name_token, "offset"),
        (arrays, "kinds"),
        (arrays, "texts"),
        (arrays, "offsets"),
        (location, "file"),
        (location.start, "line"),
        (parsed, "java"),
        (java, "tokens"),
        (widget, "members"),
        (rate, "names"),
        (spin, "body_start"),
        (spin.parameters[0], "name"),
    ]:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_explicit_import_shadows_wildcard_import(tmp_path):
    files = {
        "src/p/X.java": "package p;\npublic class X { }\n",
        "src/q/X.java": "package q;\npublic class X { }\n",
        "src/r/U.java": "package r;\nimport p.X;\nimport q.*;\nclass U {\n    X x;\n}\n",
    }
    for version in ("pre", "post"):
        for rel, text in files.items():
            path = tmp_path / version / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    resolver = BuiltinResolver(RepoSnapshot(tmp_path / "pre", tmp_path / "post"))
    # occurrence 0 is the one in "import p.X;"
    defs = resolver.goto_definition(loc_of(resolver, POST, "src/r/U.java", "X", occurrence=1))
    assert [(d.file, d.start) for d in defs] == [("src/p/X.java", CursorPos(1, 13))]


def test_each_declarator_of_a_field_is_a_declaration(tmp_path):
    resolver = BuiltinResolver(
        write_snapshot(tmp_path, {"src/A.java": "class A { int a, b; void run() { b = 1; } }\n"})
    )
    decl, use = (loc_of(resolver, POST, "src/A.java", "b", occurrence=k) for k in (0, 1))
    # The declarator b is neither its own reference nor declared by a.
    assert [r.start for r in resolver.find_references(decl)] == [use.start]
    assert [d.start for d in resolver.goto_definition(use)] == [decl.start]


def test_references_to_a_nested_class_member_through_an_import(tmp_path):
    files = {
        "src/p/Outer.java": (
            "package p;\npublic class Outer {\n"
            "    public static class Inner {\n        public static void ping() { }\n    }\n}\n"
        ),
        "src/q/User.java": "package q;\nimport p.Outer.Inner;\nclass User {\n    void go() { Inner.ping(); }\n}\n",
        "src/r/Wild.java": "package r;\nimport p.Outer.*;\nclass Wild {\n    void go() { Inner.ping(); }\n}\n",
        "src/s/Deep.java": "package s;\nimport p.Outer.Inner.*;\nclass Deep {\n    void go() { Inner.ping(); }\n}\n",
    }
    resolver = BuiltinResolver(write_snapshot(tmp_path, files))
    decl = loc_of(resolver, POST, "src/p/Outer.java", "ping")
    # Inner is seen through an explicit import of itself or a wildcard
    # import of its enclosing class; a wildcard import of Inner imports
    # only the classes nested in it.
    assert [r.file for r in resolver.find_references(decl)] == ["src/q/User.java", "src/r/Wild.java"]


def test_lookups_parse_only_the_files_that_mention_the_name(tmp_path, caplog):
    files = {
        "src/a/A.java": "package a;\npublic class A {\n    void run() { }\n}\n",
        "src/a/B.java": "package a;\nclass B {\n    void go(A a) { a.run(); }\n}\n",
        "src/a/Broken.java": "package a;\nclass Broken {\n    void x() {\n",
    }
    for rel, text in files.items():
        for version in ("pre", "post"):
            path = tmp_path / version / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    index = CodeIndex(RepoSnapshot(tmp_path / "pre", tmp_path / "post"))
    with caplog.at_level(logging.WARNING, logger="testmend.resolver"):
        mentioning = index.files_mentioning(POST, "run")
        assert [pf.path for pf in mentioning] == ["src/a/A.java", "src/a/B.java"]
        assert caplog.messages == []  # Broken.java was never parsed
        assert index.files_mentioning(POST, "Broken") == []
        assert len(caplog.messages) == 1
        assert caplog.messages[0].startswith("skipping unparsable file post:src/a/Broken.java")


# ----------------------------------------------------------------------
# the process-wide source cache
#
# Each test's sources carry a comment no other test uses, so entries that
# earlier tests left in the shared cache cannot make a count pass.
# ----------------------------------------------------------------------


def write_snapshot(root, files):
    """Write the same files into both versions."""
    for version in ("pre", "post"):
        for rel, text in files.items():
            path = root / version / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    return RepoSnapshot(root / "pre", root / "post")


@pytest.fixture()
def work_counts(monkeypatch):
    """Counts of the canonical_arrays and parse_java calls the cache makes.

    On teardown it also checks that no canonical text the cache made
    reached ``lex``: a parse takes the tokens the emitter built.
    """
    counts = {"canonical_arrays": 0, "parse_java": 0}
    canonical_texts, lexed = set(), set()
    for name in counts:
        original = getattr(resolver_module, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            result = _original(*args)
            if _name == "canonical_arrays":
                canonical_texts.add(result[0])
            return result

        monkeypatch.setattr(resolver_module, name, counted)
    lex = lexer.lex

    def recording_lex(text):
        lexed.add(text)
        return lex(text)

    monkeypatch.setattr(lexer, "lex", recording_lex)
    yield counts
    assert counts["canonical_arrays"] > 0
    assert not canonical_texts & lexed


def test_dotted_name_parses_no_file_for_a_package_segment(tmp_path, work_counts):
    """``java`` and ``org`` are in every file and declare no class, so the
    lookups parse only the origin and the files that mention the last
    segment."""
    files = {
        f"src/org/demo/U{i}.java": (
            f"// dotted-package-{i}\npackage org.demo;\nimport java.util.List;\n"
            f"class U{i} {{ java.util.List<String> items; }}\n"
        )
        for i in range(5)
    }
    files["src/java/util/AbstractList.java"] = (
        "// dotted-package-base\npackage java.util;\npublic class AbstractList { }\n"
    )
    files["src/org/demo/Child.java"] = (
        "// dotted-package-child\npackage org.demo;\nclass Child extends java.util.AbstractList { }\n"
    )
    index = CodeIndex(write_snapshot(tmp_path, files))
    hit = index.resolve_class(POST, "src/org/demo/Child.java", "java.util.AbstractList")
    assert (hit[0].path, hit[1].name) == ("src/java/util/AbstractList.java", "AbstractList")
    assert work_counts["parse_java"] == 2
    assert index.resolve_class(POST, "src/org/demo/Child.java", "org.Nope.Base") is None
    assert work_counts["parse_java"] == 2


def test_a_common_name_that_no_file_declares_parses_only_the_origin(tmp_path, work_counts):
    """Every file mentions ``String`` and none declares it: the lookup
    parses the origin, for its imports and package, and no other file."""
    files = {
        f"src/pkg/C{i}.java": f"// common-name-{i}\npackage pkg;\nclass C{i} {{ String label; }}\n"
        for i in range(40)
    }
    index = CodeIndex(write_snapshot(tmp_path, files))
    assert index.resolve_class(POST, "src/pkg/C0.java", "String") is None
    assert work_counts["parse_java"] <= 1


def test_identical_snapshot_elsewhere_is_neither_canonicalized_nor_parsed(tmp_path, work_counts):
    files = {
        "src/a/A.java": "// cache-copy-a\npackage a;\npublic class A {\n    void run() { }\n}\n",
        "src/a/B.java": "// cache-copy-b\npackage a;\nclass B {\n    void go(A a) { a.run(); }\n}\n",
    }
    first = CodeIndex(write_snapshot(tmp_path / "one", files))
    expected = [(pf.path, pf.java) for pf in first.files_mentioning(POST, "run")]
    assert work_counts == {"canonical_arrays": 2, "parse_java": 2}
    second = CodeIndex(write_snapshot(tmp_path / "two", files))
    assert [(pf.path, pf.java) for pf in second.files_mentioning(POST, "run")] == expected
    assert second.canonical(POST, "src/a/A.java") == first.canonical(POST, "src/a/A.java")
    assert work_counts == {"canonical_arrays": 2, "parse_java": 2}


def test_pre_and_post_copies_of_an_unchanged_file_share_one_parse(tmp_path, work_counts):
    files = {"src/a/A.java": "// cache-pre-post\npackage a;\nclass A { }\n"}
    index = CodeIndex(write_snapshot(tmp_path, files))
    assert index.file(PRE, "src/a/A.java").java is index.file(POST, "src/a/A.java").java
    assert work_counts == {"canonical_arrays": 1, "parse_java": 1}


def test_unparsable_file_is_parsed_again_by_each_index(tmp_path, caplog, work_counts):
    # It lexes, so its canonical text is cached; its failed parse is not.
    files = {"src/a/Broken.java": "// cache-broken\npackage a;\nclass Broken {\n    void x() {\n"}
    with caplog.at_level(logging.WARNING, logger="testmend.resolver"):
        for n in (1, 2):
            index = CodeIndex(write_snapshot(tmp_path / str(n), files))
            assert index.file(PRE, "src/a/Broken.java") is None
            assert index.file(PRE, "src/a/Broken.java") is None
            assert work_counts == {"canonical_arrays": 1, "parse_java": n}
            assert len(caplog.messages) == n
            assert caplog.messages[-1].startswith("skipping unparsable file pre:src/a/Broken.java")


def test_cache_evicts_least_recently_used_within_its_bound(monkeypatch, work_counts):
    sources = [f"// cache-lru-{i}\nclass C{i} {{ }}\n" for i in range(4)]
    monkeypatch.setattr(resolver_module, "SOURCE_CACHE_CHARS", 2 * len(sources[0]) + 1)
    cache = resolver_module.SourceCache()
    held = []

    def use(i):
        cache.parse(sources[i])
        held.append(sum(map(len, cache._entries)))

    use(0)
    use(1)
    use(0)  # 1 is now the least recently used
    use(2)  # evicts 1
    assert work_counts["parse_java"] == 3
    use(0)
    assert work_counts["parse_java"] == 3
    use(1)  # parsed again; evicts 2
    assert work_counts["parse_java"] == 4
    use(0)
    assert work_counts["parse_java"] == 4
    assert list(cache._entries) == [sources[1], sources[0]]
    assert max(held) <= resolver_module.SOURCE_CACHE_CHARS


def test_cache_never_stores_a_text_longer_than_its_bound(monkeypatch, work_counts):
    short = "// cache-short\nclass Short { }\n"
    long = "// cache-long, longer than the whole bound\nclass Long { }\n"
    monkeypatch.setattr(resolver_module, "SOURCE_CACHE_CHARS", len(short) + 1)
    cache = resolver_module.SourceCache()
    cache.parse(short)
    assert cache.parse(long).classes[0].name == "Long"
    assert work_counts == {"canonical_arrays": 2, "parse_java": 2}
    assert list(cache._entries) == [short]  # the long text evicted nothing


def test_cache_keeps_the_canonical_form_of_a_text_that_does_not_parse(work_counts):
    broken = "// cache-keeps-canonical\nclass Broken {\n    void x() {\n"
    cache = resolver_module.SourceCache()
    for _ in range(2):
        with pytest.raises(ParseError):
            cache.parse(broken)
    assert cache.canonical(broken) == canonical_arrays(broken)
    assert work_counts == {"canonical_arrays": 1, "parse_java": 2}
