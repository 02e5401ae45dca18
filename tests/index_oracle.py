"""Name lookups over every file of a version, kept as a differential oracle.

:class:`~testmend.resolver.CodeIndex` answers lookups by name from the
files whose raw text mentions the name
(:meth:`~testmend.resolver.CodeIndex.files_mentioning`), and class lookups
from those of them that may declare it
(:meth:`~testmend.snapshot.VersionText.declaring`).  These are the
full scans it replaced: every file is parsed, nothing is memoized, and
each function answers as the pipeline did before the filter.  The tests
compare the filtered lookups against them.  The oracle shares no name rule
with the resolver but its visibility check: it finds declarations with its
own walk over the tokens, and resolves a dotted name through
:func:`class_by_fqn`.
"""

from __future__ import annotations

from bisect import bisect_left

from testmend.javasrc import lexer
from testmend.javasrc.ast import ClassDecl, FieldDecl, MethodDecl
from testmend.resolver import BuiltinResolver, CodeIndex, ParsedFile
from testmend.snapshot import Location


def iter_files(index: CodeIndex, version: str) -> list[ParsedFile]:
    """Every parsable file of the version's listing, which the snapshot
    lists once and keeps."""
    out = []
    for path in index.snapshot.version_text(version).paths:
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
    if "." in simple_name:
        # Nested classes of the class the first segment names, else a
        # fully qualified name.
        first, rest = simple_name.split(".", 1)
        outer = resolve_class(index, version, from_path, first)
        if outer is not None:
            parsed, cls = outer
            package = f"{parsed.java.package}." if parsed.java.package else ""
            hit = class_by_fqn(index, version, f"{package}{cls.qualified_name}.{rest}")
            if hit:
                return hit
        return class_by_fqn(index, version, simple_name)
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


def declarations(parsed: ParsedFile, name: str) -> dict[int, tuple[str, ClassDecl]]:
    """Offset of each name token of the classes, methods and field
    declarators called ``name``, mapped to its kind and owner.  A
    declarator's name is a token of that text in the field's span that
    ``=``, ``,``, ``;`` or ``[`` follows."""
    texts, offsets = parsed.java.tokens.texts, parsed.java.tokens.offsets
    out: dict[int, tuple[str, ClassDecl]] = {}
    for cls in parsed.java.all_classes():
        if cls.name == name:
            out[cls.name_token.offset] = ("class", cls)
        for member in cls.members:
            if isinstance(member, MethodDecl) and member.name == name:
                out[member.name_token.offset] = ("method", cls)
            elif isinstance(member, FieldDecl) and name in member.names:
                for i in range(bisect_left(offsets, member.start), bisect_left(offsets, member.end)):
                    if texts[i] == name and texts[i + 1] in ("=", ",", ";", "["):
                        out[offsets[i]] = ("field", cls)
    return out


def find_references(resolver: BuiltinResolver, location: Location) -> list[Location]:
    parsed, tok = resolver._identifier_at(location)
    name = tok.text
    declared = declarations(parsed, name)
    if tok.offset in declared:
        decl_kind, owner = declared[tok.offset]
    else:
        i = parsed.java.tokens.offsets.index(tok.offset)
        texts = parsed.java.tokens.texts
        decl_kind, owner = ("method" if texts[i + 1 : i + 2] == ("(",) else "field"), None
    out: list[Location] = []
    for candidate in iter_files(resolver.index, location.version):
        if not resolver._visible_from(candidate, parsed, owner):
            continue
        decl_tokens = declarations(candidate, name)
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
