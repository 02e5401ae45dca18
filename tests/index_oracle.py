"""Name lookups over every file of a version, kept as a differential oracle.

:class:`~testmend.resolver.CodeIndex` answers lookups by name from the
files whose raw text mentions the name
(:meth:`~testmend.resolver.CodeIndex.files_mentioning`).  These are the
full scans it replaced: every file is parsed, nothing is memoized, and
each function answers as the pipeline did before the filter.  The tests
compare the filtered lookups against them.
"""

from __future__ import annotations

from testmend.javasrc import lexer
from testmend.javasrc.ast import ClassDecl
from testmend.resolver import BuiltinResolver, CodeIndex, ParsedFile, _declaration_name_tokens
from testmend.snapshot import Location


def iter_files(index: CodeIndex, version: str) -> list[ParsedFile]:
    out = []
    for path in index.snapshot.java_files(version):
        parsed = index.file(version, path)
        if parsed is not None:
            out.append(parsed)
    return out


def classes_named(
    index: CodeIndex, version: str, simple_name: str
) -> list[tuple[ParsedFile, ClassDecl]]:
    hits = []
    for parsed in iter_files(index, version):
        for cls in parsed.java.all_classes():
            if cls.name == simple_name:
                hits.append((parsed, cls))
    return hits


def class_by_fqn(index: CodeIndex, version: str, fqn: str) -> tuple[ParsedFile, ClassDecl] | None:
    for parsed in iter_files(index, version):
        for cls in parsed.java.all_classes():
            qualified = (
                f"{parsed.java.package}.{cls.qualified_name}"
                if parsed.java.package
                else cls.qualified_name
            )
            if qualified == fqn:
                return parsed, cls
    return None


def resolve_class(
    index: CodeIndex, version: str, from_path: str, simple_name: str
) -> tuple[ParsedFile, ClassDecl] | None:
    origin = index.file(version, from_path)
    if origin is not None:
        for cls in origin.java.all_classes():
            if cls.name == simple_name:
                return origin, cls
        fqn = origin.java.imports.get(simple_name)
        if fqn:
            hit = class_by_fqn(index, version, fqn)
            if hit:
                return hit
        for package in origin.java.wildcard_imports:
            hit = class_by_fqn(index, version, f"{package}.{simple_name}")
            if hit:
                return hit
        package = origin.java.package
        for parsed, cls in classes_named(index, version, simple_name):
            if parsed.java.package == package:
                return parsed, cls
        return None
    hits = classes_named(index, version, simple_name)
    return hits[0] if hits else None


def find_references(resolver: BuiltinResolver, location: Location) -> list[Location]:
    parsed, tok = resolver._identifier_at(location)
    name = tok.text
    decl_kind, owner = resolver._declaration_kind(parsed, tok)
    out: list[Location] = []
    for candidate in iter_files(resolver.index, location.version):
        if not resolver._visible_from(candidate, parsed, owner):
            continue
        decl_tokens = {t.offset for t in _declaration_name_tokens(candidate, name)}
        tokens = candidate.java.tokens
        for i in range(len(tokens.texts)):
            t = tokens.token(i)
            if t.kind != lexer.IDENT or t.text != name:
                continue
            if t.offset in decl_tokens:
                continue
            followed_by_call = i + 1 < len(tokens.texts) and tokens.texts[i + 1] == "("
            if decl_kind == "method" and not followed_by_call:
                continue
            if decl_kind == "field" and followed_by_call:
                continue
            out.append(candidate.token_location(t))
    out.sort(key=lambda loc: (loc.file, loc.start.line, loc.start.col))
    return out
