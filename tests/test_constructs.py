"""The parser on a hand-written corpus of JLS 17 declaration forms.

Each file under ``tests/constructs/`` holds one form of chapters 8 and 9
of the JLS (https://docs.oracle.com/javase/specs/jls/se17/html/jls-8.html),
named in its header comment.  ``expected.json`` holds, checked by hand,
the declarations each file must parse to: its package and imports, and
for every class and member its kind, names, types and the first and last
token of its span.  The raw text and its canonical form must both give
them.  The corpus lives outside ``tests/fixtures/``, whose files feed the
pinned mutant counts.
"""

import json
from pathlib import Path

import pytest

from testmend.javasrc.ast import ClassDecl, FieldDecl, parse_java
from testmend.javasrc.format import canonicalize
from testmend.javasrc.lexer import lex

CONSTRUCTS = Path(__file__).parent / "constructs"
EXPECTED = json.loads((CONSTRUCTS / "expected.json").read_text(encoding="utf-8"))


def dump(java_file):
    """The declarations of a parse, as ``expected.json`` writes them."""

    def span(decl):
        tokens = lex(java_file.slice(decl.start, decl.end))
        return [tokens[0].text, tokens[-1].text]

    def member(decl):
        if isinstance(decl, ClassDecl):
            return declared_class(decl)
        if isinstance(decl, FieldDecl):
            return {
                "kind": "field", "names": decl.names, "type": decl.type_text, "span": span(decl)
            }
        return {
            "kind": "constructor" if decl.is_constructor else "method",
            "name": decl.name,
            "returns": decl.return_type,
            "params": decl.param_types(),
            "throws": decl.throws,
            "span": span(decl),
        }

    def declared_class(cls):
        return {
            "kind": cls.keyword,
            "name": cls.qualified_name,
            "modifiers": sorted(cls.modifiers),
            "annotations": cls.annotations,
            "extends": cls.extends,
            "implements": cls.implements,
            "span": span(cls),
            "members": [member(m) for m in cls.members],
        }

    return {
        "package": java_file.package,
        "imports": java_file.imports,
        "wildcard_imports": java_file.wildcard_imports,
        "classes": [declared_class(c) for c in java_file.classes],
    }


def test_every_construct_file_has_its_declarations():
    assert sorted(p.name for p in CONSTRUCTS.glob("*.java")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_construct_parses_to_its_declarations(name):
    source = (CONSTRUCTS / name).read_text(encoding="utf-8")
    assert dump(parse_java(source)) == EXPECTED[name]
    assert dump(parse_java(canonicalize(source))) == EXPECTED[name]
