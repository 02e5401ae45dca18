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

All chunk text is canonical-form source, so chunks never contain comment
syntax.  A single chunk is capped at 40 lines plus a trailing
``[truncated]`` marker.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from testmend.errors import CursorNotOnIdentifier, InputError, LocatorNotFound
from testmend.javasrc import lexer
from testmend.javasrc.ast import ClassDecl, FieldDecl, JavaFile, MethodDecl, parse_java
from testmend.javasrc.format import CursorPos, canonicalize, canonicalize_with_cursor
from testmend.resolver import BuiltinResolver, CodeIndex, ParsedFile, Resolver
from testmend.signatures import (
    FocalChange,
    MethodLocator,
    SynBCKind,
    find_located,
    locate_method,
    type_identifiers,
)
from testmend.snapshot import POST, PRE, Hunk, Location, RepoSnapshot, unified_diff

log = logging.getLogger(__name__)

CHUNK_LINE_CAP = 40
TRUNCATION_MARKER = "[truncated]"
PARENT_DEPTH_CAP = 5

LOMBOK_ACCESSOR_ANNOTATIONS = frozenset({"Data", "Getter", "Setter"})


@dataclass
class ContextChunk:
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


@dataclass
class ClassCtxGroup:
    type_name: str
    role: str  # "param" | "return" | "both"
    chunks: list[ContextChunk] = field(default_factory=list)
    defining_classes: list[str] = field(default_factory=list)


@dataclass
class TROCtxBundle:
    class_ctx: dict[str, ClassCtxGroup] = field(default_factory=dict)
    usage_ctx: list[ContextChunk] = field(default_factory=list)
    env_ctx_focal: list[ContextChunk] = field(default_factory=list)
    env_ctx_test: list[ContextChunk] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def all_chunks(self) -> list[ContextChunk]:
        out: list[ContextChunk] = []
        for group in self.class_ctx.values():
            out.extend(group.chunks)
        out.extend(self.usage_ctx)
        out.extend(self.env_ctx_focal)
        out.extend(self.env_ctx_test)
        return out

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
    lines = text.splitlines()
    if len(lines) <= CHUNK_LINE_CAP:
        return text
    return "\n".join(lines[:CHUNK_LINE_CAP] + [TRUNCATION_MARKER])


def _changed_lines(hunk: Hunk) -> list[str]:
    """Hunk lines with diff markers, stripped of indentation."""
    return [f"- {line.strip()}" for line in hunk.deleted] + [
        f"+ {line.strip()}" for line in hunk.added
    ]


class ContextCollector:
    def __init__(self, snapshot: RepoSnapshot, resolver: Resolver):
        self.snapshot = snapshot
        self.resolver = resolver
        if isinstance(resolver, BuiltinResolver):
            self.index = resolver.index
        else:
            self.index = CodeIndex(snapshot)
        self._doc_parse_cache: dict[tuple[str, str], tuple[str, JavaFile]] = {}

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    def _resolver_document(self, version: str, path: str) -> tuple[str, JavaFile]:
        """The resolver-coordinate text of a file plus its parse."""
        key = (version, path)
        if key not in self._doc_parse_cache:
            text = self.resolver.document_text(version, path)
            self._doc_parse_cache[key] = (text, parse_java(text))
        return self._doc_parse_cache[key]

    def _locate_in_document(
        self, version: str, locator: MethodLocator
    ) -> tuple[str, JavaFile, ClassDecl, MethodDecl]:
        text, java_file = self._resolver_document(version, locator.file)
        cls, method = find_located(java_file, locator)
        return text, java_file, cls, method

    @staticmethod
    def _offset_position(text: str, offset: int) -> CursorPos:
        line = text.count("\n", 0, offset)
        col = offset - (text.rfind("\n", 0, offset) + 1)
        return CursorPos(line, col)

    def _method_line_span(self, text: str, method: MethodDecl) -> tuple[int, int]:
        start = text.count("\n", 0, method.start)
        end = text.count("\n", 0, method.end)
        return start, end

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
        doc_text, _, _, post_method = self._locate_in_document(POST, focal.post_locator)
        header_tokens = [
            t
            for t in lexer.lex(doc_text[post_method.start : post_method.header_end])
            if t.kind == lexer.IDENT
        ]
        for type_name, role in roles.items():
            group = ClassCtxGroup(type_name=type_name, role=role)
            groups[type_name] = group
            definition = self._resolve_type(
                type_name, focal.post_locator.file, doc_text, post_method, header_tokens
            )
            if definition is None:
                warnings.append(f"type {type_name} is not defined inside the snapshot")
                continue
            parsed, cls = definition
            self._collect_members_with_parents(group, parsed, cls, warnings)
        return groups, warnings

    def _resolve_type(
        self,
        type_name: str,
        focal_file: str,
        doc_text: str,
        post_method: MethodDecl,
        header_tokens: list[lexer.Token],
    ) -> tuple[ParsedFile, ClassDecl] | None:
        location = None
        for tok in header_tokens:
            if tok.text == type_name:
                pos = self._offset_position(doc_text, post_method.start + tok.offset)
                location = Location(
                    version=POST,
                    file=focal_file,
                    start=pos,
                    end=CursorPos(pos.line, pos.col + len(type_name)),
                )
                break
        if location is not None:
            try:
                for definition in self.resolver.goto_definition(location):
                    parsed = self.index.file(POST, definition.file)
                    if parsed is None:
                        continue
                    cls = parsed.java.find_class(type_name)
                    if cls is not None:
                        return parsed, cls
            except (CursorNotOnIdentifier, InputError) as exc:
                log.debug("definition lookup failed for %s: %s", type_name, exc)
        # Fall back to scope-rule resolution over the index.
        return self.index.resolve_class(POST, focal_file, type_name)

    def _collect_members_with_parents(
        self,
        group: ClassCtxGroup,
        parsed: ParsedFile,
        cls: ClassDecl,
        warnings: list[str],
    ) -> None:
        current: tuple[ParsedFile, ClassDecl] | None = (parsed, cls)
        seen: set[str] = set()
        depth = 0
        while current is not None and depth <= PARENT_DEPTH_CAP:
            pf, decl = current
            if decl.name in seen:
                break  # inheritance cycle guard
            seen.add(decl.name)
            group.defining_classes.append(decl.name)
            group.chunks.extend(self._member_chunks(pf, decl))
            parent_name = _parent_simple_name(decl)
            if parent_name is None:
                break
            depth += 1
            if depth > PARENT_DEPTH_CAP:
                warnings.append(
                    f"parent chain of {cls.name} exceeds {PARENT_DEPTH_CAP} levels; truncated"
                )
                break
            current = self.index.resolve_class(POST, pf.path, parent_name)
            if current is None:
                warnings.append(
                    f"parent class {parent_name} of {decl.name} is outside the snapshot"
                )
        return None

    def _member_chunks(self, pf: ParsedFile, cls: ClassDecl) -> list[ContextChunk]:
        label = f"Defined in class {cls.name}"
        class_lombok = bool(set(cls.annotations) & LOMBOK_ACCESSOR_ANNOTATIONS)
        chunks: list[ContextChunk] = []
        for member in cls.members:
            if isinstance(member, MethodDecl):
                if "private" in member.modifiers:
                    continue
                if member.body_start is not None:
                    text = pf.canonical[member.start : member.body_start].rstrip() + ";"
                else:
                    text = pf.canonical[member.start : member.end].strip()
                text = " ".join(text.split("\n"))
                chunks.append(
                    ContextChunk(
                        text=cap_chunk_text(text),
                        group_label=label,
                        origin=pf.token_location(member.name_token),
                        signature_form=text,
                        is_constructor=member.is_constructor,
                    )
                )
            elif isinstance(member, FieldDecl):
                if "private" in member.modifiers:
                    field_lombok = bool(
                        set(member.annotations) & LOMBOK_ACCESSOR_ANNOTATIONS
                    )
                    if not (class_lombok or field_lombok):
                        continue
                text = " ".join(pf.canonical[member.start : member.end].split("\n"))
                chunks.append(
                    ContextChunk(
                        text=cap_chunk_text(text),
                        group_label=label,
                        origin=pf.token_location(member.name_token),
                        signature_form=text,
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
        doc_text, _, _, post_method = self._locate_in_document(POST, focal.post_locator)
        name_pos = self._offset_position(doc_text, post_method.name_token.offset)
        decl_location = Location(
            version=POST,
            file=focal.post_locator.file,
            start=name_pos,
            end=CursorPos(name_pos.line, name_pos.col + len(post_method.name)),
        )
        references = self.resolver.find_references(decl_location)
        focal_span = (post_method.start, post_method.end)
        test_span: tuple[int, int] | None = None
        test_file = test_locator.file if test_locator else None
        if test_locator is not None:
            try:
                _, _, _, test_method = self._locate_in_document(POST, test_locator)
                test_span = (test_method.start, test_method.end)
            except (LocatorNotFound, InputError):
                test_span = None  # test absent in post tree: nothing to exclude
        chunks: list[ContextChunk] = []
        seen_texts: set[str] = set()
        for ref in references:
            if ref.file == focal.post_locator.file and self._within(
                doc_text, ref.start, focal_span
            ):
                continue  # the focal method's own body
            if test_file is not None and ref.file == test_file and test_span is not None:
                ref_doc, _ = self._resolver_document(POST, ref.file)
                if self._within(ref_doc, ref.start, test_span):
                    continue  # the obsolete test itself
            chunk = self._usage_chunk(focal, ref, warnings)
            if chunk is None or not chunk.text.strip():
                continue
            if chunk.text in seen_texts:
                continue
            seen_texts.add(chunk.text)
            chunks.append(chunk)
        return chunks, warnings

    def _within(self, text: str, pos: CursorPos, span: tuple[int, int]) -> bool:
        offset = _position_offset(text, pos)
        return span[0] <= offset < span[1]

    def _usage_chunk(
        self, focal: FocalChange, ref: Location, warnings: list[str]
    ) -> ContextChunk | None:
        raw_updated = self.resolver.document_text(POST, ref.file)
        try:
            canon_updated, cursor = canonicalize_with_cursor(raw_updated, ref.start)
        except CursorNotOnIdentifier:
            return None  # e.g. a comment hit reported by an LSP backend
        raw_original = self.snapshot.read_or_empty(PRE, ref.file)
        canon_original = canonicalize(raw_original) if raw_original.strip() else ""
        diff = unified_diff(canon_original, canon_updated)
        if diff.is_empty():
            return None
        invocation_line = cursor.line
        scope = self._enclosing_method_lines(canon_updated, invocation_line)
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

    def _enclosing_method_lines(
        self, canonical_text: str, line: int
    ) -> tuple[int, int] | None:
        try:
            java_file = parse_java(canonical_text)
        except InputError:
            return None
        best: tuple[int, int] | None = None
        for cls in java_file.all_classes():
            for method in cls.methods():
                span = self._method_line_span(canonical_text, method)
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
        focal_chunks = self._env_chunks_for(
            anchor_file=focal.post_locator.file,
            exclusions=[
                (focal.post_locator.file, focal.pre_locator, focal.post_locator),
                (test_locator.file, test_locator, test_locator),
            ],
            warnings=warnings,
        )
        test_chunks = self._env_chunks_for(
            anchor_file=test_locator.file,
            exclusions=[
                (focal.post_locator.file, focal.pre_locator, focal.post_locator),
                (test_locator.file, test_locator, test_locator),
            ],
            warnings=warnings,
        )
        return focal_chunks, test_chunks, warnings

    def _env_files(self, anchor_file: str, warnings: list[str]) -> list[str]:
        """The anchor file plus its class's parent files (post tree)."""
        files = [anchor_file]
        version = POST if self.snapshot.exists(POST, anchor_file) else PRE
        parsed = self.index.file(version, anchor_file)
        if parsed is None:
            return files
        classes = parsed.java.classes
        if not classes:
            return files
        current = (parsed, classes[0])
        for _ in range(PARENT_DEPTH_CAP):
            parent_name = _parent_simple_name(current[1])
            if parent_name is None:
                break
            parent = self.index.resolve_class(version, current[0].path, parent_name)
            if parent is None:
                warnings.append(
                    f"parent class {parent_name} of {current[1].name} is outside the snapshot"
                )
                break
            if parent[0].path not in files:
                files.append(parent[0].path)
            current = parent
        return files

    def _env_chunks_for(
        self,
        anchor_file: str,
        exclusions: list[tuple[str, MethodLocator, MethodLocator]],
        warnings: list[str],
    ) -> list[ContextChunk]:
        chunks: list[ContextChunk] = []
        for path in self._env_files(anchor_file, warnings):
            pre_raw = self.snapshot.read_or_empty(PRE, path)
            post_raw = self.snapshot.read_or_empty(POST, path)
            canon_pre = canonicalize(pre_raw) if pre_raw.strip() else ""
            canon_post = canonicalize(post_raw) if post_raw.strip() else ""
            diff = unified_diff(canon_pre, canon_post)
            if diff.is_empty():
                continue
            excluded_pre, excluded_post = self._excluded_spans(
                path, canon_pre, canon_post, exclusions
            )
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
        canon_pre: str,
        canon_post: str,
        exclusions: list[tuple[str, MethodLocator, MethodLocator]],
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        pre_spans: list[tuple[int, int]] = []
        post_spans: list[tuple[int, int]] = []
        for ex_file, pre_loc, post_loc in exclusions:
            if ex_file != path:
                continue
            for text, locator, spans in (
                (canon_pre, pre_loc, pre_spans),
                (canon_post, post_loc, post_spans),
            ):
                if not text:
                    continue
                try:
                    _, _, method = locate_method(text, locator)
                except InputError:
                    continue
                spans.append(self._method_line_span(text, method))
        return pre_spans, post_spans

    # ------------------------------------------------------------------
    # bundle
    # ------------------------------------------------------------------

    def collect_bundle(
        self, focal: FocalChange, test_locator: MethodLocator
    ) -> TROCtxBundle:
        bundle = TROCtxBundle()
        if focal.kinds & {SynBCKind.PARAM, SynBCKind.RET}:
            bundle.class_ctx, class_warnings = self.collect_class_ctx(focal)
            bundle.warnings.extend(class_warnings)
        usage, usage_warnings = self.collect_usage_ctx(focal, test_locator)
        bundle.usage_ctx = usage
        bundle.warnings.extend(usage_warnings)
        focal_env, test_env, env_warnings = self.collect_env_ctx(focal, test_locator)
        bundle.env_ctx_focal = focal_env
        bundle.env_ctx_test = test_env
        bundle.warnings.extend(env_warnings)
        return bundle


def _parent_simple_name(cls: ClassDecl) -> str | None:
    if not cls.extends:
        return None
    identifiers = type_identifiers(cls.extends)
    return identifiers[0] if identifiers else None


def _position_offset(text: str, pos: CursorPos) -> int:
    lines = text.split("\n")
    if pos.line >= len(lines):
        return len(text)
    return sum(len(line) + 1 for line in lines[: pos.line]) + pos.col


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
    snapshot: RepoSnapshot,
    resolver: Resolver,
) -> TROCtxBundle:
    return ContextCollector(snapshot, resolver).collect_bundle(focal, test_locator)
