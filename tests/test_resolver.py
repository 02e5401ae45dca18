"""Builtin resolver tests against a fixture repo with a known call graph."""

from typing import get_type_hints

import pytest

from testmend.errors import CursorNotOnIdentifier
from testmend.javasrc.ast import JavaFile
from testmend.javasrc.format import CursorPos
from testmend.resolver import (
    BuiltinResolver,
    CodeIndex,
    ParsedFile,
    ResolverBackend,
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
    from testmend.javasrc.format import canonicalize
    assert canonicalize(text) == text
    assert text == canonicalize(FILES["src/a/Widget.java"])


def test_make_resolver_builtin(resolver):
    snap = resolver.snapshot
    r = make_resolver(ResolverBackend(kind="builtin"), snap)
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
