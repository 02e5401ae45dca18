"""Name resolution over a snapshot: the builtin backend and its index.

The builtin backend works entirely on canonicalized file texts — its
coordinates (and the coordinates of every Location it returns) refer to
the canonical form exposed by :meth:`BuiltinResolver.document_text`.
Resolution is name-based with Java scope rules approximated through
imports and packages:

* ``goto_definition`` tiers: declarations in the same file, then classes
  reachable through explicit/wildcard imports, then classes in the same
  package.  The first non-empty tier wins.
* ``find_references`` is a token scan over the version's files filtered
  by visibility (same file, import of the declaring class, or same
  package).  Method references require an immediately following ``(``;
  declaration name tokens themselves are excluded.

A language-server backend implementing the same protocol lives in
:mod:`testmend.lsp`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Protocol

from testmend.errors import CursorNotOnIdentifier, InputError
from testmend.javasrc import lexer
from testmend.javasrc.ast import ClassDecl, FieldDecl, MethodDecl, parse_java
from testmend.javasrc.format import CursorPos, canonicalize
from testmend.snapshot import Location, RepoSnapshot

log = logging.getLogger(__name__)


@dataclass
class ParsedFile:
    version: str
    path: str
    canonical: str
    java: JavaFile

    def token_at(self, pos: CursorPos) -> lexer.Token | None:
        for tok in self.java.tokens:
            if tok.line == pos.line and tok.col <= pos.col < tok.col + len(tok.text):
                return tok
        return None

    def token_location(self, tok: lexer.Token) -> Location:
        return Location(
            version=self.version,
            file=self.path,
            start=CursorPos(tok.line, tok.col),
            end=CursorPos(tok.line, tok.col + len(tok.text)),
        )


class CodeIndex:
    """Lazily parsed canonical views of every Java file in a snapshot."""

    def __init__(self, snapshot: RepoSnapshot):
        self.snapshot = snapshot
        self._files: dict[tuple[str, str], ParsedFile | None] = {}
        self._listing: dict[str, list[str]] = {}

    def paths(self, version: str) -> list[str]:
        if version not in self._listing:
            self._listing[version] = self.snapshot.java_files(version)
        return self._listing[version]

    def file(self, version: str, path: str) -> ParsedFile | None:
        key = (version, path)
        if key not in self._files:
            parsed: ParsedFile | None = None
            if self.snapshot.exists(version, path):
                raw = self.snapshot.read(version, path)
                try:
                    canonical = canonicalize(raw)
                    parsed = ParsedFile(
                        version=version,
                        path=path,
                        canonical=canonical,
                        java=parse_java(canonical),
                    )
                except InputError as exc:
                    log.warning("skipping unparsable file %s:%s (%s)", version, path, exc)
            self._files[key] = parsed
        return self._files[key]

    def iter_files(self, version: str) -> list[ParsedFile]:
        out = []
        for path in self.paths(version):
            parsed = self.file(version, path)
            if parsed is not None:
                out.append(parsed)
        return out

    def classes_named(self, version: str, simple_name: str) -> list[tuple[ParsedFile, ClassDecl]]:
        hits = []
        for parsed in self.iter_files(version):
            for cls in parsed.java.all_classes():
                if cls.name == simple_name:
                    hits.append((parsed, cls))
        return hits

    def class_by_fqn(self, version: str, fqn: str) -> tuple[ParsedFile, ClassDecl] | None:
        for parsed in self.iter_files(version):
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
        self, version: str, from_path: str, simple_name: str
    ) -> tuple[ParsedFile, ClassDecl] | None:
        """Resolve a simple class name as seen from ``from_path``."""
        origin = self.file(version, from_path)
        if origin is not None:
            for cls in origin.java.all_classes():
                if cls.name == simple_name:
                    return origin, cls
            fqn = origin.java.imports.get(simple_name)
            if fqn:
                hit = self.class_by_fqn(version, fqn)
                if hit:
                    return hit
            for package in origin.java.wildcard_imports:
                hit = self.class_by_fqn(version, f"{package}.{simple_name}")
                if hit:
                    return hit
            package = origin.java.package
            for parsed, cls in self.classes_named(version, simple_name):
                if parsed.java.package == package:
                    return parsed, cls
            return None
        # No origin context: fall back to any class with that name.
        hits = self.classes_named(version, simple_name)
        return hits[0] if hits else None


def _class_location(parsed: ParsedFile, cls: ClassDecl) -> Location:
    assert cls.name_token is not None
    return parsed.token_location(cls.name_token)


class Resolver(Protocol):
    """What the collectors need from a resolution backend."""

    def document_text(self, version: str, path: str) -> str:
        """The text whose coordinates this backend's Locations refer to."""
        ...

    def goto_definition(self, location: Location) -> list[Location]:
        ...

    def find_references(self, location: Location) -> list[Location]:
        ...

    def close(self) -> None:
        ...


@dataclass(frozen=True)
class ResolverBackend:
    """Backend selection plus connection settings."""

    kind: str = "builtin"  # "builtin" | "lsp"
    lsp_command: tuple[str, ...] = ()
    timeout: float = 30.0


def make_resolver(backend: ResolverBackend, snapshot: RepoSnapshot) -> "Resolver":
    if backend.kind == "builtin":
        return BuiltinResolver(snapshot)
    if backend.kind == "lsp":
        from testmend.lsp import LspResolver

        return LspResolver(snapshot, backend)
    raise InputError(f"unknown resolver backend {backend.kind!r}")


class BuiltinResolver:
    """Index-based resolver over canonicalized snapshot files."""

    def __init__(self, snapshot: RepoSnapshot):
        self.snapshot = snapshot
        self.index = CodeIndex(snapshot)

    def close(self) -> None:  # symmetry with the LSP backend
        return None

    def document_text(self, version: str, path: str) -> str:
        parsed = self.index.file(version, path)
        if parsed is None:
            raise InputError(f"cannot load {version}:{path}")
        return parsed.canonical

    # -- definitions -----------------------------------------------------

    def goto_definition(self, location: Location) -> list[Location]:
        parsed = self.index.file(location.version, location.file)
        if parsed is None:
            raise InputError(f"cannot load {location.version}:{location.file}")
        tok = parsed.token_at(location.start)
        if tok is None or tok.kind != lexer.IDENT:
            raise CursorNotOnIdentifier(
                f"no identifier at {location.describe()}"
            )
        name = tok.text
        same_file = self._declarations_in_file(parsed, name)
        if same_file:
            return same_file
        version = location.version
        imported: list[Location] = []
        fqn = parsed.java.imports.get(name)
        if fqn:
            hit = self.index.class_by_fqn(version, fqn)
            if hit:
                imported.append(_class_location(*hit))
        for package in parsed.java.wildcard_imports:
            hit = self.index.class_by_fqn(version, f"{package}.{name}")
            if hit:
                imported.append(_class_location(*hit))
        if imported:
            return imported
        package = parsed.java.package
        same_package = [
            _class_location(pf, cls)
            for pf, cls in self.index.classes_named(version, name)
            if pf.java.package == package and pf.path != parsed.path
        ]
        return same_package

    def _declarations_in_file(self, parsed: ParsedFile, name: str) -> list[Location]:
        out = [parsed.token_location(t) for t in _declaration_name_tokens(parsed, name)]
        out.sort(key=lambda loc: (loc.start.line, loc.start.col))
        return out

    # -- references ------------------------------------------------------

    def find_references(self, location: Location) -> list[Location]:
        parsed = self.index.file(location.version, location.file)
        if parsed is None:
            raise InputError(f"cannot load {location.version}:{location.file}")
        tok = parsed.token_at(location.start)
        if tok is None or tok.kind != lexer.IDENT:
            raise CursorNotOnIdentifier(f"no identifier at {location.describe()}")
        name = tok.text
        decl_kind, owner = self._declaration_kind(parsed, tok)
        version = location.version
        out: list[Location] = []
        for candidate in self.index.iter_files(version):
            if not self._visible_from(candidate, parsed, owner):
                continue
            decl_tokens = {t.offset for t in _declaration_name_tokens(candidate, name)}
            tokens = candidate.java.tokens
            for i, t in enumerate(tokens):
                if t.kind != lexer.IDENT or t.text != name:
                    continue
                if t.offset in decl_tokens:
                    continue
                followed_by_call = i + 1 < len(tokens) and tokens[i + 1].text == "("
                if decl_kind == "method" and not followed_by_call:
                    continue
                if decl_kind == "field" and followed_by_call:
                    continue
                out.append(candidate.token_location(t))
        out.sort(key=lambda loc: (loc.file, loc.start.line, loc.start.col))
        return out

    def _declaration_kind(
        self, parsed: ParsedFile, tok: lexer.Token
    ) -> tuple[str, ClassDecl | None]:
        """Identify what declaration the token names (and its owner class)."""
        for cls in parsed.java.all_classes():
            if cls.name_token is not None and cls.name_token.offset == tok.offset:
                return "class", cls
            for member in cls.members:
                if isinstance(member, MethodDecl) and member.name_token.offset == tok.offset:
                    return "method", cls
                if isinstance(member, FieldDecl) and member.name_token.offset == tok.offset:
                    return "field", cls
        # Not a declaration site: guess the kind from local context.
        idx = parsed.java.tokens.index(tok)
        next_tok = parsed.java.tokens[idx + 1] if idx + 1 < len(parsed.java.tokens) else None
        kind = "method" if next_tok is not None and next_tok.text == "(" else "field"
        return kind, None

    def _visible_from(
        self, candidate: ParsedFile, origin: ParsedFile, owner: ClassDecl | None
    ) -> bool:
        if candidate.path == origin.path:
            return True
        if candidate.java.package == origin.java.package:
            return True
        owner_name = owner.name if owner is not None else None
        if owner_name is None:
            return True  # no owner context: do not filter
        fqn = (
            f"{origin.java.package}.{owner_name}" if origin.java.package else owner_name
        )
        if candidate.java.imports.get(owner_name) == fqn:
            return True
        return origin.java.package in candidate.java.wildcard_imports


def _declaration_name_tokens(parsed: ParsedFile, name: str) -> list[lexer.Token]:
    """Name tokens of the classes, methods and fields called ``name``."""
    out: list[lexer.Token] = []
    for cls in parsed.java.all_classes():
        if cls.name == name and cls.name_token is not None:
            out.append(cls.name_token)
        for member in cls.members:
            if isinstance(member, MethodDecl) and member.name == name:
                out.append(member.name_token)
            elif isinstance(member, FieldDecl) and name in member.names:
                out.append(member.name_token)
    return out
