"""Collecting repair contexts from a two-version snapshot.

Three context families are gathered for a focal change:

* **class context** — member declarations of class types that are new in
  the updated signature (parameter or return position), including
  members inherited from parents up to five levels.  Private members are
  dropped unless a Lombok ``@Data``/``@Getter``/``@Setter`` annotation
  implies generated accessors for a private field.
* **usage context** — for every other reference of the updated focal
  method: the changed lines of the invocation statement's diff hunk,
  extended with changed lines *before* the invocation when the change
  affects parameters and *after* it when it affects the return type,
  scoped to the enclosing method.
* **environment context** — changed lines of the focal method's file and
  its parents' files (and likewise for the test), excluding hunks that
  overlap the focal/test method bodies themselves.

Both follow parents through one walk, ``ContextCollector._parent_chain``,
which resolves each superclass as written, without its type arguments:
simple, nested (``extends A.Inner``) or qualified (``extends q.Base``).
It warns when a parent is outside the snapshot or the chain is
truncated, and stops at a parent already in the chain.

:func:`construct_bundle` builds one :class:`TROCtxBundle` from the
finished families, keeping each warning once, in first-seen order.

All chunk text is canonical-form source, so chunks never contain comment
syntax.  A single chunk is capped at 40 lines plus a trailing
``[truncated]`` marker.

Every Location here — what the resolver takes and returns, and each
chunk's ``origin`` — is in canonical coordinates, whatever the resolver
backend.  Every file fact (canonical text, parse, PRE→POST diff) comes
from the resolver's :class:`~testmend.resolver.CodeIndex`
(``resolver.index``), which computes it once; the collector reaches the
sample's files only through that index (``index.snapshot``).
"""

from __future__ import annotations

import logging
import re
from bisect import bisect_left
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from testmend.errors import CursorNotOnIdentifier, InputError, LocatorNotFound
from testmend.javasrc import lexer
from testmend.javasrc.ast import ClassDecl, FieldDecl, MethodDecl
from testmend.javasrc.format import CursorPos
from testmend.resolver import ParsedFile, Resolver
from testmend.signatures import (
    FocalChange,
    MethodLocator,
    SynBCKind,
    find_located,
    type_identifiers,
)
from testmend.snapshot import POST, PRE, Hunk, Location

log = logging.getLogger(__name__)

CHUNK_LINE_CAP = 40
TRUNCATION_MARKER = "[truncated]"
PARENT_DEPTH_CAP = 5

LOMBOK_ACCESSOR_ANNOTATIONS = frozenset({"Data", "Getter", "Setter"})


class ContextChunk(NamedTuple):
    text: str
    group_label: str
    origin: Location | None = None
    signature_form: str = ""
    is_constructor: bool = False

    def as_dict(self) -> dict:
        return {
            "text": self.text,
            "group_label": self.group_label,
            "origin": self.origin.describe() if self.origin else None,
            "signature_form": self.signature_form,
            "is_constructor": self.is_constructor,
        }


class ClassCtxGroup(NamedTuple):
    type_name: str
    role: str  # "param" | "return" | "both"
    chunks: list[ContextChunk]
    defining_classes: list[str]


class TROCtxBundle(NamedTuple):
    """One sample's context families and collection warnings, built whole
    by :func:`construct_bundle` (collected) and ``rerank_bundle`` (kept)."""

    class_ctx: Mapping[str, ClassCtxGroup] = MappingProxyType({})
    usage_ctx: Sequence[ContextChunk] = ()
    env_ctx_focal: Sequence[ContextChunk] = ()
    env_ctx_test: Sequence[ContextChunk] = ()
    warnings: Sequence[str] = ()

    def as_dict(self) -> dict:
        return {
            "class_ctx": {
                name: {
                    "type_name": g.type_name,
                    "role": g.role,
                    "defining_classes": g.defining_classes,
                    "chunks": [c.as_dict() for c in g.chunks],
                }
                for name, g in self.class_ctx.items()
            },
            "usage_ctx": [c.as_dict() for c in self.usage_ctx],
            "env_ctx_focal": [c.as_dict() for c in self.env_ctx_focal],
            "env_ctx_test": [c.as_dict() for c in self.env_ctx_test],
            "warnings": list(self.warnings),
        }


def cap_chunk_text(text: str) -> str:
    lines = lexer.split_lines(text)
    if len(lines) <= CHUNK_LINE_CAP:
        return text
    return "\n".join(lines[:CHUNK_LINE_CAP] + [TRUNCATION_MARKER])


def _changed_lines(hunk: Hunk) -> list[str]:
    """Hunk lines with diff markers, stripped of indentation."""
    return [f"- {line.strip()}" for line in hunk.deleted] + [
        f"+ {line.strip()}" for line in hunk.added
    ]


class ContextCollector:
    def __init__(self, resolver: Resolver):
        self.resolver = resolver
        self.index = resolver.index

    def _locate(self, locator: MethodLocator) -> tuple[ParsedFile, MethodDecl]:
        """The post-version parse of a locator's file and the method it addresses."""
        parsed = self.index.file(POST, locator.file)
        if parsed is None:
            raise InputError(f"cannot load {POST}:{locator.file}")
        return parsed, find_located(parsed.java, locator)[1]

    # ------------------------------------------------------------------
    # class context
    # ------------------------------------------------------------------

    def new_type_names(self, focal: FocalChange) -> dict[str, str]:
        """Ordered map of new type identifier -> role (param/return/both)."""
        original_ids: set[str] = set()
        for type_text in [*focal.original.param_types, focal.original.return_type]:
            original_ids.update(type_identifiers(type_text))
        roles: dict[str, str] = {}
        for type_text in focal.updated.param_types:
            for name in type_identifiers(type_text):
                if name not in original_ids:
                    roles.setdefault(name, "param")
        for name in type_identifiers(focal.updated.return_type):
            if name in original_ids:
                continue
            if roles.get(name) == "param":
                roles[name] = "both"
            else:
                roles.setdefault(name, "return")
        return roles

    def collect_class_ctx(
        self, focal: FocalChange
    ) -> tuple[dict[str, ClassCtxGroup], list[str]]:
        if focal.post_locator is None:
            raise InputError("focal change has no post-version locator")
        warnings: list[str] = []
        groups: dict[str, ClassCtxGroup] = {}
        roles = self.new_type_names(focal)
        if not roles:
            return groups, warnings
        parsed, post_method = self._locate(focal.post_locator)
        tokens = parsed.java.tokens
        header = range(
            bisect_left(tokens.offsets, post_method.start),
            bisect_left(tokens.offsets, post_method.header_end),
        )
        header_tokens = [tokens.token(i) for i in header if tokens.kinds[i] == lexer.IDENT]
        for type_name, role in roles.items():
            definition = self._resolve_type(type_name, parsed, header_tokens)
            if definition is None:
                warnings.append(f"type {type_name} is not defined inside the snapshot")
                chain = []
            else:
                chain = self._parent_chain(POST, *definition, warnings)
            groups[type_name] = ClassCtxGroup(
                type_name,
                role,
                [chunk for pf, cls in chain for chunk in self._member_chunks(pf, cls)],
                [cls.name for _, cls in chain],
            )
        return groups, warnings

    def _resolve_type(
        self,
        type_name: str,
        focal: ParsedFile,
        header_tokens: list[lexer.Token],
    ) -> tuple[ParsedFile, ClassDecl] | None:
        tok = next((t for t in header_tokens if t.text == type_name), None)
        if tok is not None:
            try:
                for definition in self.resolver.goto_definition(focal.token_location(tok)):
                    parsed = self.index.file(POST, definition.file)
                    if parsed is None:
                        continue
                    cls = parsed.java.find_class(type_name)
                    if cls is not None:
                        return parsed, cls
            except (CursorNotOnIdentifier, InputError) as exc:
                log.debug("definition lookup failed for %s: %s", type_name, exc)
        # Fall back to scope-rule resolution over the index.
        return self.index.resolve_class(POST, focal.path, type_name)

    def _parent_chain(
        self, version: str, parsed: ParsedFile, cls: ClassDecl, warnings: list[str]
    ) -> list[tuple[ParsedFile, ClassDecl]]:
        """``cls`` and up to ``PARENT_DEPTH_CAP`` of its superclasses, nearest first."""
        chain = [(parsed, cls)]
        while (extends := chain[-1][1].extends) is not None:
            if len(chain) > PARENT_DEPTH_CAP:
                warnings.append(
                    f"parent chain of {cls.name} exceeds {PARENT_DEPTH_CAP} levels; truncated"
                )
                break
            pf, decl = chain[-1]
            parent_name = _erasure(extends)
            parent = self.index.resolve_class(version, pf.path, parent_name)
            if parent is None:
                warnings.append(
                    f"parent class {parent_name} of {decl.name} is outside the snapshot"
                )
                break
            if any(known is parent[1] for _, known in chain):
                break  # inheritance cycle
            chain.append(parent)
        return chain

    def _member_chunks(self, pf: ParsedFile, cls: ClassDecl) -> list[ContextChunk]:
        label = f"Defined in class {cls.name}"
        class_lombok = bool(set(cls.annotations) & LOMBOK_ACCESSOR_ANNOTATIONS)
        chunks: list[ContextChunk] = []
        for member in cls.members:
            if isinstance(member, MethodDecl):
                if "private" in member.modifiers:
                    continue
                if member.body_start is not None:
                    text = pf.java.slice(member.start, member.body_start).rstrip() + ";"
                else:
                    text = pf.java.slice(member.start, member.end).strip()
            elif isinstance(member, FieldDecl):
                if "private" in member.modifiers and not (
                    class_lombok or set(member.annotations) & LOMBOK_ACCESSOR_ANNOTATIONS
                ):
                    continue
                text = pf.java.slice(member.start, member.end)
            else:
                continue
            # One line, so the chunk line cap cannot cut it.
            text = " ".join(text.split("\n"))
            chunks.append(
                ContextChunk(
                    text=text,
                    group_label=label,
                    origin=pf.token_location(member.name_token),
                    signature_form=text,
                    is_constructor=isinstance(member, MethodDecl) and member.is_constructor,
                )
            )
        return chunks

    # ------------------------------------------------------------------
    # usage context
    # ------------------------------------------------------------------

    def collect_usage_ctx(
        self, focal: FocalChange, test_locator: MethodLocator | None = None
    ) -> tuple[list[ContextChunk], list[str]]:
        if focal.post_locator is None:
            raise InputError("focal change has no post-version locator")
        warnings: list[str] = []
        parsed, post_method = self._locate(focal.post_locator)
        references = self.resolver.find_references(parsed.token_location(post_method.name_token))
        excluded = [(parsed, post_method)]  # the focal method's own body
        if test_locator is not None:
            try:
                excluded.append(self._locate(test_locator))  # the obsolete test itself
            except InputError:
                pass  # test absent in post tree: nothing to exclude
        chunks: list[ContextChunk] = []
        seen_texts: set[str] = set()
        for ref in references:
            if any(_within(pf, method, ref) for pf, method in excluded):
                continue
            chunk = self._usage_chunk(focal, ref)
            if chunk is None or not chunk.text.strip():
                continue
            if chunk.text in seen_texts:
                continue
            seen_texts.add(chunk.text)
            chunks.append(chunk)
        return chunks, warnings

    def _usage_chunk(self, focal: FocalChange, ref: Location) -> ContextChunk | None:
        diff = self.index.diff(ref.file)
        if diff.is_empty():
            return None
        invocation_line = ref.start.line
        scope = self._enclosing_method_lines(ref.file, invocation_line)
        before: list[str] = []
        invocation: list[str] = []
        after: list[str] = []
        for hunk in diff.hunks:
            if hunk.added and hunk.post_start <= invocation_line < hunk.post_end:
                invocation.extend(_changed_lines(hunk))
            elif hunk.post_end <= invocation_line:
                if scope is None or hunk.post_start >= scope[0]:
                    before.extend(_changed_lines(hunk))
            else:
                if scope is None or hunk.post_end <= scope[1] + 1:
                    after.extend(_changed_lines(hunk))
        lines = list(invocation)
        if focal.is_param:
            lines = before + lines
        if focal.is_ret:
            lines = lines + after
        if not lines:
            return None
        return ContextChunk(
            text=cap_chunk_text("\n".join(lines)),
            group_label=f"Usage change in {ref.file}",
            origin=ref,
        )

    def _enclosing_method_lines(self, path: str, line: int) -> tuple[int, int] | None:
        parsed = self.index.file(POST, path)
        if parsed is None:
            return None
        best: tuple[int, int] | None = None
        for cls in parsed.java.all_classes():
            for method in cls.methods():
                span = _line_span(parsed.java.text, method)
                if span[0] <= line <= span[1]:
                    if best is None or span[1] - span[0] < best[1] - best[0]:
                        best = span
        return best

    # ------------------------------------------------------------------
    # environment context
    # ------------------------------------------------------------------

    def collect_env_ctx(
        self, focal: FocalChange, test_locator: MethodLocator
    ) -> tuple[list[ContextChunk], list[ContextChunk], list[str]]:
        if focal.post_locator is None or focal.pre_locator is None:
            raise InputError("focal change lacks pre/post locators")
        warnings: list[str] = []
        exclusions = [
            (focal.post_locator.file, focal.pre_locator, focal.post_locator),
            (test_locator.file, test_locator, test_locator),
        ]
        focal_chunks = self._env_chunks_for(focal.post_locator.file, exclusions, warnings)
        test_chunks = self._env_chunks_for(test_locator.file, exclusions, warnings)
        return focal_chunks, test_chunks, warnings

    def _env_files(self, anchor_file: str, warnings: list[str]) -> list[str]:
        """The anchor file plus its class's parent files (post tree)."""
        version = POST if self.index.snapshot.exists(POST, anchor_file) else PRE
        parsed = self.index.file(version, anchor_file)
        if parsed is None or not parsed.java.classes:
            return [anchor_file]
        chain = self._parent_chain(version, parsed, parsed.java.classes[0], warnings)
        return list(dict.fromkeys(pf.path for pf, _ in chain))

    def _env_chunks_for(
        self,
        anchor_file: str,
        exclusions: list[tuple[str, MethodLocator, MethodLocator]],
        warnings: list[str],
    ) -> list[ContextChunk]:
        chunks: list[ContextChunk] = []
        for path in self._env_files(anchor_file, warnings):
            diff = self.index.diff(path)
            if diff.is_empty():
                continue
            excluded_pre, excluded_post = self._excluded_spans(path, exclusions)
            for hunk in diff.hunks:
                if _hunk_overlaps(hunk, excluded_pre, excluded_post):
                    continue
                chunks.append(
                    ContextChunk(
                        text=cap_chunk_text("\n".join(_changed_lines(hunk))),
                        group_label=f"Environment change in {path}",
                        origin=Location(
                            version=POST,
                            file=path,
                            start=CursorPos(hunk.post_start, 0),
                            end=CursorPos(max(hunk.post_end, hunk.post_start), 0),
                        ),
                    )
                )
        return chunks

    def _excluded_spans(
        self,
        path: str,
        exclusions: list[tuple[str, MethodLocator, MethodLocator]],
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        pre_spans: list[tuple[int, int]] = []
        post_spans: list[tuple[int, int]] = []
        for ex_file, pre_loc, post_loc in exclusions:
            if ex_file != path:
                continue
            for version, locator, spans in (
                (PRE, pre_loc, pre_spans),
                (POST, post_loc, post_spans),
            ):
                parsed = self.index.file(version, path)
                if parsed is None:
                    continue
                try:
                    _, method = find_located(parsed.java, locator)
                except LocatorNotFound:
                    continue
                spans.append(_line_span(parsed.java.text, method))
        return pre_spans, post_spans


def _erasure(type_text: str) -> str:
    """``type_text`` without its type arguments: ``A<K>.B<V>`` is ``A.B``."""
    while (erased := re.sub(r"<[^<>]*>", "", type_text)) != type_text:
        type_text = erased
    return type_text


def _line_span(text: str, method: MethodDecl) -> tuple[int, int]:
    """First and last line of ``method`` in ``text``."""
    return text.count("\n", 0, method.start), text.count("\n", 0, method.end)


def _within(parsed: ParsedFile, method: MethodDecl, location: Location) -> bool:
    """Whether ``location`` is a token inside ``method`` of ``parsed``."""
    if location.file != parsed.path:
        return False
    tok = parsed.token_at(location.start)
    return tok is not None and method.start <= tok.offset < method.end


def _hunk_overlaps(
    hunk: Hunk,
    pre_spans: list[tuple[int, int]],
    post_spans: list[tuple[int, int]],
) -> bool:
    for start, end in pre_spans:
        if hunk.pre_start <= end and hunk.pre_end > start:
            return True
    for start, end in post_spans:
        if hunk.post_start <= end and hunk.post_end > start:
            return True
    return False


def construct_bundle(
    focal: FocalChange,
    test_locator: MethodLocator,
    resolver: Resolver,
) -> TROCtxBundle:
    """The context families of ``focal`` and ``test_locator``; class
    context only for a parameter or return change."""
    collector = ContextCollector(resolver)
    if focal.kinds & {SynBCKind.PARAM, SynBCKind.RET}:
        class_ctx, class_warnings = collector.collect_class_ctx(focal)
    else:
        class_ctx, class_warnings = {}, []
    usage, usage_warnings = collector.collect_usage_ctx(focal, test_locator)
    focal_env, test_env, env_warnings = collector.collect_env_ctx(focal, test_locator)
    # The class context and both environment walks can meet the same parent.
    warnings = list(dict.fromkeys([*class_warnings, *usage_warnings, *env_warnings]))
    return TROCtxBundle(class_ctx, usage, focal_env, test_env, warnings)
