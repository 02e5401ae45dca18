"""Name resolution over a snapshot: the builtin backend and its index.

Every :class:`~testmend.snapshot.Location` a :class:`Resolver` takes or
returns is in canonical coordinates: a line and column of the file's
canonical form (:func:`~testmend.javasrc.format.canonicalize`), which
:meth:`CodeIndex.canonical` returns.  The builtin backend works on those
texts directly.  Resolution is name-based with Java scope rules
approximated through imports and packages:

* A declaration is a class, a method or a field declarator: ``int a, b;``
  declares ``a`` and ``b``, each at its own name token.
* ``goto_definition`` returns the declarations of the name in the same
  file if there are any; otherwise the one class that
  :meth:`CodeIndex.resolve_class` finds by one search: of the same file,
  then of the explicit import, then of the wildcard imports in order, then
  of the same package.  An explicit import shadows a wildcard import of
  the same simple name (JLS §6.4.1).  A dotted name (``A.Inner``,
  ``q.Base``) names classes nested in the class its first segment names,
  else it is fully qualified (JLS §6.5.2).
* ``find_references`` is a token scan over the version's files filtered
  by visibility: the same file or package, an explicit import of the
  declaring class or a class enclosing it, or a wildcard import of its
  package or a class enclosing it (JLS §7.5).  Method references require
  an immediately following ``(``; declaration name tokens themselves are
  excluded.

Lookups by name parse only the files that may hold the name; the rest are
never canonicalized or parsed.  A reference lookup parses the files whose
raw text mentions the name (:meth:`CodeIndex.files_mentioning`), and a
class lookup, of every segment it resolves, only those of them whose raw
text holds a type keyword, what the lexer skips between two tokens, then
the name (:meth:`~testmend.snapshot.VersionText.declaring`), so a name
that many files use and none declares, such as ``String`` or the package
segment ``java``, parses no file.  This is safe because the lexer and
``canonicalize`` copy identifier text verbatim and decode no ``\\uXXXX``
escapes: a file whose raw text lacks the name holds no identifier token,
class name or reference equal to it, and a file that declares a class
holds its keyword, gap and name verbatim.  The first such lookup in a
version reads each of its files once, with raw system calls, into one
byte buffer (:meth:`RepoSnapshot.version_text
<testmend.snapshot.RepoSnapshot.version_text>`) that the snapshot keeps,
so every index over that snapshot searches the same buffer.  Every lookup
is then a C-level search of that buffer, which holds each file's bytes
once; a file is decoded only to be parsed.

A language-server backend implementing the same protocol lives in
:mod:`testmend.lsp`; it maps between raw and canonical positions itself.
:func:`make_resolver` picks it when given a server command line, and the
builtin backend when the command is empty.

:class:`CodeIndex` owns each file's parse and PRE→POST diff, and
computes each once, as it does each class lookup.  A ``CodeIndex`` lives
for one sample, but it reads canonical texts, tokens and parses through
one content cache shared by every sample in the process
(:class:`SourceCache`).  The cache is keyed by a file's raw text alone,
since ``canonical_arrays`` and ``parse_java`` depend on nothing else, so
byte-identical files are canonicalized and parsed once whichever sample
or version they belong to, and each is lexed once: the parse reads the
token arrays the canonicalizer wrote.  It is an LRU bounded by the
characters of its keys (:data:`SOURCE_CACHE_CHARS`), and it caches no
failure.  Its :class:`~testmend.javasrc.ast.JavaFile` values are shared
across samples: nothing mutates a ``JavaFile`` once ``parse_java``
returns it, and its token arrays are tuples.  A
:class:`~testmend.javasrc.lexer.Token` is built, by
:meth:`~testmend.javasrc.lexer.TokenArrays.token`, only for a token that
leaves the index: a declaration's name, the token at a cursor, a
reference.
Hygiene and classify read a sample's own sources through it too
(:func:`parse_source`), so no stage parses a snapshot file's raw text.

This module is single-threaded by contract: the cache takes no lock.
:func:`testmend.evaluate.run_sample` holds one lock for the whole sample
and lets it go only while a waiting provider's request is in flight, so
at most one thread uses the cache at a time.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from itertools import chain
from typing import NamedTuple, Protocol

from testmend.errors import CursorNotOnIdentifier, InputError
from testmend.javasrc import lexer
from testmend.javasrc.ast import ClassDecl, FieldDecl, JavaFile, MethodDecl, parse_java
from testmend.javasrc.format import CursorPos, canonical_arrays
from testmend.snapshot import POST, PRE, DiffText, Location, RepoSnapshot, unified_diff

log = logging.getLogger(__name__)


class ParsedFile(NamedTuple):
    version: str
    path: str
    java: JavaFile

    def token_at(self, pos: CursorPos) -> lexer.Token | None:
        """The token that covers ``pos``, found by bisection: lines grow
        along the stream, and columns within a line."""
        tokens = self.java.tokens
        lo = bisect_left(tokens.lines, pos.line)
        hi = bisect_right(tokens.lines, pos.line, lo)
        i = bisect_right(tokens.cols, pos.col, lo, hi) - 1
        if i >= lo and pos.col < tokens.cols[i] + len(tokens.texts[i]):
            return tokens.token(i)
        return None

    def token_location(self, tok: lexer.Token) -> Location:
        return Location(
            version=self.version,
            file=self.path,
            start=CursorPos(tok.line, tok.col),
            end=CursorPos(tok.line, tok.col + len(tok.text)),
        )


# At about 27 bytes of heap per cached source character (its canonical
# text, token arrays and parse: 27.2 by tracemalloc over the 255 distinct
# files of one large-repo sample's two versions), the cache holds at most
# some 29 MB besides its keys.
SOURCE_CACHE_CHARS = 1 << 20

# A cached source: its canonical text and tokens, and their parse once made.
_Entry = tuple[str, lexer.TokenArrays, JavaFile | None]

_NO_TOKENS = lexer.TokenArrays((), (), (), (), ())


class SourceCache:
    """Canonical texts, tokens and parses of Java sources, keyed by the raw text.

    Each entry is the ``canonical_arrays`` pair of one raw text (its
    tokens as :class:`~testmend.javasrc.lexer.TokenArrays`, so the cache
    holds no :class:`~testmend.javasrc.lexer.Token` per token) and, once
    asked for, the parse of that text: ``parse_java`` reads the arrays the
    emitter wrote, so no canonical text is lexed again, and the parse's
    ``tokens`` are those same arrays.  An LRU whose keys total at most
    :data:`SOURCE_CACHE_CHARS` characters; a text longer than that is
    never stored.  An
    :class:`~testmend.errors.InputError` from ``canonical_arrays`` or
    ``parse_java`` propagates and is not stored, so every caller that asks
    again tries again; a text that canonicalizes but does not parse keeps
    its canonical form.  Not thread-safe (see the module docstring).
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._chars = 0

    def canonical(self, raw: str) -> tuple[str, lexer.TokenArrays]:
        """``canonical_arrays(raw)``, or ``""`` and no tokens for a blank text."""
        text, tokens, _ = self._entry(raw, parse=False)
        return text, tokens

    def parse(self, raw: str) -> JavaFile:
        """``parse_java`` of the text's canonical form."""
        java = self._entry(raw, parse=True)[2]
        assert java is not None
        return java

    def _entry(self, raw: str, parse: bool) -> _Entry:
        """The entry of ``raw``, computing and storing what it lacks."""
        entry = self._entries.get(raw)
        if entry is None:
            text, tokens = canonical_arrays(raw) if raw.strip() else ("", _NO_TOKENS)
            entry = (text, tokens, None)
        if parse and entry[2] is None:
            self._store(raw, entry)  # kept if the parse fails
            entry = (entry[0], entry[1], parse_java(entry[0], entry[1]))
        self._store(raw, entry)
        return entry

    def _store(self, raw: str, entry: _Entry) -> None:
        """Store ``raw`` as the most recently used entry, within the bound."""
        if len(raw) > SOURCE_CACHE_CHARS:
            return
        if raw not in self._entries:
            self._chars += len(raw)
        self._entries[raw] = entry
        self._entries.move_to_end(raw)
        while self._chars > SOURCE_CACHE_CHARS:
            evicted, _ = self._entries.popitem(last=False)
            self._chars -= len(evicted)


_SOURCES = SourceCache()


def parse_source(raw: str) -> JavaFile:
    """The cached parse of a source text's canonical form."""
    return _SOURCES.parse(raw)


class CodeIndex:
    """Lazily computed canonical texts, parses and diffs of a snapshot's files.

    One index serves one sample; canonical texts and parses come through
    the process-wide :class:`SourceCache`, and the raw texts and version
    buffers through the snapshot.
    """

    def __init__(self, snapshot: RepoSnapshot):
        self.snapshot = snapshot
        self._files: dict[tuple[str, str], ParsedFile | None] = {}
        self._diffs: dict[str, DiffText] = {}
        self._classes: dict[tuple[str, str, str], tuple[ParsedFile, ClassDecl] | None] = {}

    def canonical(self, version: str, path: str) -> str:
        """Canonical text of a file; ``""`` if it is missing or blank.

        Raises :class:`~testmend.errors.ParseError` if the file does not lex.
        """
        return _SOURCES.canonical(self.snapshot.read_or_empty(version, path))[0]

    def tokens(self, version: str, path: str) -> lexer.TokenArrays:
        """The token arrays of :meth:`canonical`'s text, positioned in it."""
        return _SOURCES.canonical(self.snapshot.read_or_empty(version, path))[1]

    def diff(self, path: str) -> DiffText:
        """The canonical PRE→POST diff of a file."""
        if path not in self._diffs:
            self._diffs[path] = unified_diff(
                self.canonical(PRE, path), self.canonical(POST, path)
            )
        return self._diffs[path]

    def file(self, version: str, path: str) -> ParsedFile | None:
        """The parse of a file's canonical text; None if missing or unparsable."""
        key = (version, path)
        if key not in self._files:
            parsed: ParsedFile | None = None
            if self.snapshot.exists(version, path):
                try:
                    java = _SOURCES.parse(self.snapshot.read(version, path))
                    parsed = ParsedFile(version=version, path=path, java=java)
                except InputError as exc:
                    log.warning("skipping unparsable file %s:%s (%s)", version, path, exc)
            self._files[key] = parsed
        return self._files[key]

    def files_mentioning(self, version: str, name: str) -> list[ParsedFile]:
        """Parses of the version's files whose raw text contains ``name``, in path order.

        The version's files are searched as one buffer
        (:meth:`~testmend.snapshot.RepoSnapshot.version_text`).
        A file without the substring is skipped before it is canonicalized
        or parsed.  Such a file holds no token or class named ``name`` (see
        the module docstring), so the files kept are a superset of those
        that can match, in the same order, and every lookup answers as a
        full scan would.
        """
        out = []
        for path in self.snapshot.version_text(version).containing(name):
            parsed = self.file(version, path)
            if parsed is not None:
                out.append(parsed)
        return out

    def classes_named(self, version: str, simple_name: str) -> list[tuple[ParsedFile, ClassDecl]]:
        """The classes called ``simple_name``, parsing only the files that may declare it."""
        out = []
        for path in self.snapshot.version_text(version).declaring(simple_name):
            parsed = self.file(version, path)
            if parsed is not None:
                classes = parsed.java.all_classes()
                out.extend((parsed, cls) for cls in classes if cls.name == simple_name)
        return out

    def resolve_class(
        self, version: str, from_path: str, name: str
    ) -> tuple[ParsedFile, ClassDecl] | None:
        """The class a simple or dotted name written in ``from_path`` names
        (memoized; the rules are in the module docstring)."""
        key = (version, from_path, name)
        if key not in self._classes:
            self._classes[key] = self._lookup_class(version, from_path, name)
        return self._classes[key]

    def _lookup_class(
        self, version: str, from_path: str, name: str
    ) -> tuple[ParsedFile, ClassDecl] | None:
        first, dot, rest = name.partition(".")
        hits = self.classes_named(version, first)
        origin = self.file(version, from_path)
        if origin is None:  # no scope: any class of that name
            hit = hits[0] if hits else None
        else:
            java = origin.java
            imported = [java.imports.get(first), *(f"{p}.{first}" for p in java.wildcard_imports)]
            in_scope = chain(
                (hit for hit in hits if hit[0].path == from_path),
                (hit for fqn in imported for hit in hits if _fqn(*hit) == fqn),
                (hit for hit in hits if hit[0].java.package == java.package),
            )
            hit = next(in_scope, None)
        if dot and hit is not None:  # classes nested in the one ``first`` names
            parsed, nested = hit[0], f"{_fqn(*hit)}.{rest}"
            inner = (cls for cls in parsed.java.all_classes() if _fqn(parsed, cls) == nested)
            hit = next(((parsed, cls) for cls in inner), None)
        if dot and hit is None:  # a fully qualified name
            hits = self.classes_named(version, name.rsplit(".", 1)[-1])
            hit = next((hit for hit in hits if _fqn(*hit) == name), None)
        return hit


def _fqn(parsed: ParsedFile, cls: ClassDecl) -> str:
    """The fully qualified name of a class declared in ``parsed``."""
    package = parsed.java.package
    return f"{package}.{cls.qualified_name}" if package else cls.qualified_name


class Resolver(Protocol):
    """What the collectors need from a resolution backend.

    Every Location passed in and returned is in canonical coordinates,
    those of ``index``, which also serves the collectors' file facts.
    """

    index: CodeIndex

    def goto_definition(self, location: Location) -> list[Location]:
        ...

    def find_references(self, location: Location) -> list[Location]:
        ...

    def close(self) -> None:
        ...


def make_resolver(snapshot: RepoSnapshot, lsp_command: tuple[str, ...] = ()) -> Resolver:
    """The language-server resolver if a command is given, else the builtin one."""
    if not lsp_command:
        return BuiltinResolver(snapshot)
    from testmend.lsp import LspResolver

    return LspResolver(snapshot, lsp_command)


class BuiltinResolver:
    """Index-based resolver over canonicalized snapshot files."""

    def __init__(self, snapshot: RepoSnapshot):
        self.index = CodeIndex(snapshot)

    def close(self) -> None:  # symmetry with the LSP backend
        return None

    def _identifier_at(self, location: Location) -> tuple[ParsedFile, lexer.Token]:
        parsed = self.index.file(location.version, location.file)
        if parsed is None:
            raise InputError(f"cannot load {location.version}:{location.file}")
        tok = parsed.token_at(location.start)
        if tok is None or tok.kind != lexer.IDENT:
            raise CursorNotOnIdentifier(f"no identifier at {location.describe()}")
        return parsed, tok

    # -- definitions -----------------------------------------------------

    def goto_definition(self, location: Location) -> list[Location]:
        parsed, tok = self._identifier_at(location)
        name = tok.text
        same_file = [parsed.token_location(t) for _, _, t in _declarations(parsed, name)]
        if same_file:
            return sorted(same_file, key=lambda loc: (loc.start.line, loc.start.col))
        hit = self.index.resolve_class(location.version, parsed.path, name)
        return [hit[0].token_location(hit[1].name_token)] if hit else []

    # -- references ------------------------------------------------------

    def find_references(self, location: Location) -> list[Location]:
        parsed, tok = self._identifier_at(location)
        name = tok.text
        decl_kind, owner = self._declaration_kind(parsed, tok)
        out: list[Location] = []
        for candidate in self.index.files_mentioning(location.version, name):
            if not self._visible_from(candidate, parsed, owner):
                continue
            decl_offsets = {t.offset for _, _, t in _declarations(candidate, name)}
            tokens = candidate.java.tokens
            kinds, texts, offsets = tokens.kinds, tokens.texts, tokens.offsets
            i = -1
            for _ in range(texts.count(name)):
                i = texts.index(name, i + 1)
                if kinds[i] != lexer.IDENT or offsets[i] in decl_offsets:
                    continue
                followed_by_call = i + 1 < len(texts) and texts[i + 1] == "("
                if decl_kind == "method" and not followed_by_call:
                    continue
                if decl_kind == "field" and followed_by_call:
                    continue
                out.append(candidate.token_location(tokens.token(i)))
        out.sort(key=lambda loc: (loc.file, loc.start.line, loc.start.col))
        return out

    def _declaration_kind(
        self, parsed: ParsedFile, tok: lexer.Token
    ) -> tuple[str, ClassDecl | None]:
        """Identify what declaration the token names (and its owner class)."""
        for kind, owner, decl in _declarations(parsed, tok.text):
            if decl.offset == tok.offset:
                return kind, owner
        # Not a declaration site: guess the kind from local context.
        texts = parsed.java.tokens.texts
        after = bisect_right(parsed.java.tokens.offsets, tok.offset)
        kind = "method" if after < len(texts) and texts[after] == "(" else "field"
        return kind, None

    def _visible_from(
        self, candidate: ParsedFile, origin: ParsedFile, owner: ClassDecl | None
    ) -> bool:
        """Whether ``candidate`` sees ``owner``, a class of ``origin``."""
        if owner is None or candidate.java.package == origin.java.package:
            return True  # no owner to filter by, or the same package (or file)
        classes = [_fqn(origin, owner)]  # the owner, then its enclosing classes outward
        for _ in owner.enclosing:
            classes.append(classes[-1].rsplit(".", 1)[0])
        imports, wildcards = candidate.java.imports, candidate.java.wildcard_imports
        if any(imports.get(fqn.rsplit(".", 1)[-1]) == fqn for fqn in classes):
            return True
        return any(scope in wildcards for scope in [origin.java.package, *classes[1:]])


def _declarations(parsed: ParsedFile, name: str) -> list[tuple[str, ClassDecl, lexer.Token]]:
    """``(kind, owner, name token)`` of each class, method and field
    declarator called ``name``, in source order; a class owns itself."""
    out: list[tuple[str, ClassDecl, lexer.Token]] = []
    for cls in parsed.java.all_classes():
        if cls.name == name:
            out.append(("class", cls, cls.name_token))
        for member in cls.members:
            if isinstance(member, MethodDecl) and member.name == name:
                out.append(("method", cls, member.name_token))
            elif isinstance(member, FieldDecl):
                out.extend(("field", cls, t) for t in member.name_tokens if t.text == name)
    return out
