"""Lookups that read only the files mentioning a name, against full scans.

``find_references``, ``classes_named`` and ``resolve_class`` (of simple,
nested and fully qualified names) must answer exactly as the full scans of
``index_oracle.py`` do.  Snapshots come from ``hypothesis``: two versions
of a few compilation units in several packages, with explicit and
wildcard imports, ``extends``, nested classes, calls and field uses,
fields of one declarator and of two, class names that follow a comment
after ``class``, and method bodies from
``test_format._random_source``.  Names also occur only in comments, only
in strings, only inside a longer identifier (``run``/``runAll``,
``Alpha``/``AlphaBeta``) or nowhere, and each version holds one file that
lexes but does not parse.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from testmend.javasrc import lexer
from testmend.resolver import BuiltinResolver
from testmend.snapshot import POST, PRE, VERSIONS, RepoSnapshot

import index_oracle
from test_format import _random_source

PACKAGES = ["p", "q", "p.sub"]
CLASSES = ["Alpha", "AlphaBeta", "Beta", "Gamma"]
MEMBERS = ["run", "runAll", "make", "count"]
GHOSTS = ["Delta", "Missing"]  # declared nowhere
NAMES = CLASSES + MEMBERS + GHOSTS

names = st.sampled_from(NAMES)
classes = st.sampled_from(CLASSES)
members = st.sampled_from(MEMBERS)

statements = st.one_of(
    st.builds("{}.{}();".format, classes, members),
    st.builds("new {}().{}();".format, classes, members),
    st.builds("{}();".format, members),
    st.builds("this.{} = 1;".format, members),
    st.builds('String s = "{}";'.format, names),
    st.builds("// only {} here\n".format, names),
)
member_decls = st.one_of(
    st.builds(
        lambda name, body: f"public void {name}() {{ {' '.join(body)} }}",
        members,
        st.lists(statements, max_size=3),
    ),
    st.builds("static int {}() {{ return 0; }}".format, members),
    st.builds("int {} = 0;".format, members),
    st.builds("int {}, {};".format, members, members),
)
# What may stand between ``class`` and the class name.
gaps = st.sampled_from([" ", " /* c */ ", "/**/", " // c\n    "])
imports = st.one_of(
    st.builds("import {}.{};".format, st.sampled_from(PACKAGES), st.sampled_from(CLASSES + GHOSTS)),
    st.builds("import {}.*;".format, st.sampled_from(PACKAGES)),
)


def _random_methods(rng) -> str:
    """The class body of a ``_random_source`` compilation unit."""
    source = _random_source(rng)
    return source[source.index("{") + 1 : source.rindex("}")]


@st.composite
def units(draw) -> tuple[str, str]:
    """A path and the compilation unit stored there."""
    package = draw(st.sampled_from(["", *PACKAGES]))
    name = draw(classes)
    parent = draw(st.sampled_from(["", *CLASSES, *GHOSTS]))
    nested = draw(st.lists(
        st.builds("static class{}{} {{ {} }}".format, gaps, classes, member_decls), max_size=2
    ))
    lines = [f"package {package};"] if package else []
    lines += draw(st.lists(imports, max_size=3))
    lines.append(f"/* mentions {draw(names)} */")
    lines.append(f"public class{draw(gaps)}{name}{f' extends {parent}' if parent else ''} {{")
    lines.append(f'    String label = "{draw(names)}";')
    lines += draw(st.lists(member_decls, max_size=4))
    lines += nested
    if draw(st.booleans()):
        lines.append(_random_methods(draw(st.randoms(use_true_random=False))))
    lines.append("}")
    directory = package.replace(".", "/") or "default"
    return f"src/{directory}/{name}.java", "\n".join(lines) + "\n"


@st.composite
def versions(draw) -> dict[str, str]:
    files = dict(draw(st.lists(units(), min_size=1, max_size=5)))
    # Lexes, but the class body is never closed.
    files["src/p/Broken.java"] = f"package p;\nclass Broken {{\n  void run() {{ {draw(names)}(); }}\n"
    return files


def write(root: Path, snapshot: dict[str, dict[str, str]]) -> RepoSnapshot:
    for version, files in snapshot.items():
        for rel, text in files.items():
            path = root / version / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    return RepoSnapshot(root / PRE, root / POST)


def key(hit):
    """A lookup result as plain data, comparable across two indexes."""
    if hit is None:
        return None
    parsed, cls = hit
    return parsed.version, parsed.path, cls.qualified_name, cls.name_token.offset


FQNS = [
    ".".join(filter(None, [package, outer, inner]))
    for package in ["", *PACKAGES]
    for outer in CLASSES + GHOSTS
    for inner in ["", *CLASSES]
]


@settings(max_examples=60, deadline=None, database=None)
@given(st.fixed_dictionaries({version: versions() for version in VERSIONS}))
def test_filtered_lookups_equal_full_scans(snapshot):
    with tempfile.TemporaryDirectory() as tmp:
        snap = write(Path(tmp), snapshot)
        resolver, oracle = BuiltinResolver(snap), BuiltinResolver(snap)
        index, full = resolver.index, oracle.index
        for version in VERSIONS:
            for name in NAMES:
                assert [key(h) for h in index.classes_named(version, name)] == [
                    key(h) for h in index_oracle.classes_named(full, version, name)
                ]
            paths = [*full.snapshot.java_files(version), "src/Absent.java"]
            for name in NAMES + FQNS:
                for path in paths:
                    assert key(index.resolve_class(version, path, name)) == key(
                        index_oracle.resolve_class(full, version, path, name)
                    )
            for parsed in index_oracle.iter_files(full, version):
                tokens = parsed.java.tokens
                for tok in (tokens.token(i) for i in range(len(tokens.texts))):
                    if tok.kind == lexer.IDENT and tok.text in NAMES:
                        location = parsed.token_location(tok)
                        assert resolver.find_references(location) == (
                            index_oracle.find_references(oracle, location)
                        )
